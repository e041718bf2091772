package kvserver

// The binary front door: the pipelined, multiplexed serving path. A
// connection that opens with wire.FrontDoorMagic carries a stream of
// length-prefixed request frames (see internal/wire/frontdoor.go) instead of
// text lines. Four rules shape the implementation:
//
//  1. Requests of one wire session execute in FIFO order — a session is a
//     single thread of execution in the causality order, so reordering
//     inside a session would break the session guarantees the client
//     depends on. Each session gets its own worker goroutine and queue.
//
//  2. Requests of different sessions complete out of order. A
//     causally-blocked GET (optimistic reads park in waitVV until the local
//     partition's version vector catches up) or a slow RO-TX on one session
//     must not head-of-line-block the pipeline for everyone else. The only
//     cross-session coupling is backpressure: a session whose queue is full
//     (fdSessionQueue outstanding requests) stalls the connection reader
//     until its worker drains.
//
//  3. One writer goroutine owns the socket's write side. Workers hand it
//     finished responses over a channel; it coalesces whatever is ready
//     into a single buffer and issues one write per batch, so a burst of
//     pipelined completions costs one syscall, not one per response.
//
//  4. A request borrows its frame iff nothing can read its strings after
//     execute returns. The reader decodes each frame in place, in a buffer
//     on lease from fdLeases. The borrowers are GET and PUT: a GET's key is
//     looked up and never stored, and a PUT's key and value are copied into
//     the new version (item.New) before it is stored. Their lease travels
//     with the request through the session's queue and the worker returns it
//     once execute has returned. The price is retention: a borrower pins its
//     whole lease (fdLeaseMin at least, up to fdLeaseMax once a pooled
//     buffer has grown) while it is queued and while it parks in execute — a
//     GET or a PUT in waitVV, a PUT in the clock wait — so a session whose
//     queue fills up behind one blocked request pins up to fdSessionQueue
//     leases. Every other request is detached first — an RO-TX's keys travel
//     (as string headers, not bytes) in slice requests that can outlive a
//     first-error return, an admin line is rare — and the reader keeps the
//     lease for the next frame.

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"

	occ "repro"
	"repro/internal/wire"
)

const (
	// fdSessionQueue bounds the per-session request queue. Deep enough that
	// a pipelining client with a few hundred requests in flight never stalls
	// the reader; shallow enough that one runaway session cannot buffer
	// unbounded work.
	fdSessionQueue = 1024
	// fdFlushBytes caps a coalesced write batch. Past this the writer
	// flushes even with more responses queued, bounding response latency
	// under sustained load and the scratch buffer's growth.
	fdFlushBytes = 256 * 1024
	// fdLeaseMin is a new frame buffer's capacity: room for an ordinary
	// request, so buffers are not regrown frame by longer frame after every
	// collection empties the pool. fdLeaseMax caps the buffers that are kept
	// for reuse: one large PUT must not leave its buffer pinned by the pool
	// or its connection.
	fdLeaseMin = 512
	fdLeaseMax = 64 * 1024
)

// fdLeases holds the frame buffers of requests that are not being read,
// queued or executed: at most one per request in flight is out on lease.
var fdLeases = sync.Pool{New: func() any {
	buf := make([]byte, 0, fdLeaseMin)
	return &buf
}}

// fdRelease ends a lease; nil (the request borrowed nothing) is fine.
func fdRelease(lease *[]byte) {
	if lease != nil && cap(*lease) <= fdLeaseMax {
		fdLeases.Put(lease)
	}
}

// fdWork is one queued request and, when the request borrows its frame
// (rule 4), the lease its session worker returns after executing it.
type fdWork struct {
	req   wire.FrontDoorRequest
	lease *[]byte
}

type fdConn struct {
	s    *Server
	dc   int
	conn net.Conn

	out  chan wire.FrontDoorResponse // workers -> writer
	dead chan struct{}               // closed when the writer dies
	down atomic.Bool                 // set just before dead closes; cheap per-op check

	sessions map[uint64]*fdSession // owned by the reader goroutine
	workers  sync.WaitGroup
}

type fdSession struct {
	sess    *occ.Session
	sessErr error // Session(dc) failure, reported on every request
	in      chan fdWork
}

// handleBinaryConn runs one binary front-door connection. The caller has
// consumed the magic byte; br holds the rest of the stream. It returns when
// the read side is done and every in-flight request has been answered or
// abandoned (writer death).
func (s *Server) handleBinaryConn(dc int, conn net.Conn, br *bufio.Reader) {
	fd := &fdConn{
		s: s, dc: dc, conn: conn,
		out:      make(chan wire.FrontDoorResponse, 1024),
		dead:     make(chan struct{}),
		sessions: make(map[uint64]*fdSession),
	}
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		fd.writer()
	}()

	var lease *[]byte // the reader's own between frames, nil while a request borrows it
	for {
		if lease == nil || cap(*lease) > fdLeaseMax { // an outsize buffer serves one frame
			lease = fdLeases.Get().(*[]byte)
		}
		frame, err := wire.ReadFrontDoorFrame(br, *lease)
		if err != nil {
			break // EOF or protocol corruption: drop the connection
		}
		*lease = frame
		req, err := wire.DecodeFrontDoorRequest(frame)
		if err != nil {
			break
		}
		w := fdWork{req: req}
		if req.Op == wire.FDGet || req.Op == wire.FDPut {
			w.lease, lease = lease, nil // borrowed: the worker returns it
		} else {
			w.req.Detach()
		}
		if !fd.dispatch(w) {
			fdRelease(w.lease)
			break // writer died: no way to answer anything anymore
		}
	}
	fdRelease(lease)
	for _, ss := range fd.sessions {
		close(ss.in)
	}
	fd.workers.Wait()
	close(fd.out) // writer drains the tail, then exits
	writerDone.Wait()
}

// dispatch routes one request to its session's worker, creating session and
// worker on first use. It reports false when the writer is gone.
func (fd *fdConn) dispatch(w fdWork) bool {
	ss := fd.sessions[w.req.Session]
	if ss == nil {
		ss = &fdSession{in: make(chan fdWork, fdSessionQueue)}
		ss.sess, ss.sessErr = fd.s.store.Session(fd.dc)
		fd.sessions[w.req.Session] = ss
		fd.workers.Add(1)
		go func() {
			defer fd.workers.Done()
			fd.sessionWorker(ss)
		}()
	}
	// Fast path: a non-blocking send skips selectgo entirely; the queue
	// almost always has room. Fall back to the two-way select only when the
	// session's worker is backed up.
	select {
	case ss.in <- w:
		return true
	default:
	}
	select {
	case ss.in <- w:
		return true
	case <-fd.dead:
		return false
	}
}

// sessionWorker executes one session's requests in order, returning each
// borrowed lease once nothing reads the request anymore.
func (fd *fdConn) sessionWorker(ss *fdSession) {
	for w := range ss.in {
		if fd.down.Load() {
			fdRelease(w.lease)
			continue // connection is gone; drain without executing
		}
		resp := fd.s.execute(ss, &w.req)
		fdRelease(w.lease)
		select {
		case fd.out <- resp: // non-blocking fast path
			continue
		default:
		}
		select {
		case fd.out <- resp:
		case <-fd.dead:
		}
	}
}

// writer owns the socket's write side: it coalesces finished responses into
// one buffer and issues one write per batch. On a write error it closes
// dead (releasing every worker and the reader) and the connection itself,
// so the reader unblocks promptly.
func (fd *fdConn) writer() {
	defer func() {
		fd.down.Store(true)
		close(fd.dead)
	}()
	var scratch []byte
	for resp := range fd.out {
		scratch = wire.AppendFrontDoorResponse(scratch[:0], &resp)
	coalesce:
		for len(scratch) < fdFlushBytes {
			select {
			case more, ok := <-fd.out:
				if !ok {
					break coalesce
				}
				scratch = wire.AppendFrontDoorResponse(scratch, &more)
			default:
				break coalesce
			}
		}
		if _, err := fd.conn.Write(scratch); err != nil {
			_ = fd.conn.Close()
			return
		}
	}
}
