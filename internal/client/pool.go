// The connection pool: the client side of the binary front door. A Pool
// holds a few TCP connections to one kvserver listener (one data center) and
// multiplexes many RemoteSessions onto them — the paper's model of many
// client threads attached to one DC, without a socket per thread.
//
// Each connection runs a writer goroutine (coalescing queued request frames
// into one write per batch — the pipelining primitive) and a reader
// goroutine (matching response frames to in-flight requests by request id;
// the server completes requests out of order, so the table, not arrival
// order, ties responses back). A RemoteSession's synchronous operations are
// one round trip each: the server-side session behind the wire session has
// already retried a reshard rejection with fresh routing for its own budget
// (Config.SlotRetryBudget) before ErrWrongSlotEpoch reaches the client.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

const (
	// defaultPoolConns is the default socket count per DC. A handful of
	// connections saturates a listener long before a socket per session
	// would; request pipelining does the rest.
	defaultPoolConns = 4
	// poolDialTimeout bounds each connection attempt.
	poolDialTimeout = 5 * time.Second
	// poolWriteQueue bounds the per-connection queue of requests awaiting
	// the writer. Deep enough for a few hundred pipelined requests in
	// flight, shallow enough to apply backpressure to a runaway producer.
	poolWriteQueue = 1024
	// poolFlushBytes caps one coalesced write batch, mirroring the
	// server-side writer.
	poolFlushBytes = 256 * 1024
)

// ErrPoolClosed is returned by operations on a closed Pool.
var ErrPoolClosed = errors.New("client: pool closed")

// ErrRequestTooLarge fails a request whose frame would exceed the front
// door's limit. The pool never sends it, so the connection and every other
// session on it carry on.
var ErrRequestTooLarge = fmt.Errorf("client: request exceeds the front-door frame limit of %d bytes", wire.MaxFrontDoorFrame)

// PoolConfig parameterizes a Pool.
type PoolConfig struct {
	// Addr is the kvserver listener address of one data center.
	Addr string
	// Conns is how many TCP connections to open. 0 selects a default of 4.
	Conns int
}

// Pool is a set of pooled binary-protocol connections to one kvserver
// listener. It is safe for concurrent use.
type Pool struct {
	conns       []*poolConn
	nextConn    atomic.Uint64 // round-robin session placement
	nextSession atomic.Uint64
	closed      atomic.Bool
}

// DialPool opens the pool's connections. It fails fast: if any connection
// cannot be established, everything is torn down.
func DialPool(cfg PoolConfig) (*Pool, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = defaultPoolConns
	}
	p := &Pool{}
	for i := 0; i < cfg.Conns; i++ {
		pc, err := dialPoolConn(cfg.Addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.conns = append(p.conns, pc)
	}
	return p, nil
}

// Close closes every connection; in-flight calls complete with an error.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	for _, pc := range p.conns {
		pc.fail(ErrPoolClosed)
	}
}

// Session opens a RemoteSession, multiplexed onto one of the pool's
// connections round-robin. Sessions are cheap (an id and a counter slot on
// the server); open one per client thread of execution.
func (p *Pool) Session() *RemoteSession {
	pc := p.conns[p.nextConn.Add(1)%uint64(len(p.conns))]
	s := &RemoteSession{pc: pc, id: p.nextSession.Add(1)}
	s.call.reuse = true
	s.call.done = make(chan struct{}, 1) // one token per round trip
	return s
}

// RemoteError is an error reported by the server over the front door. It
// unwraps to the canonical error value its code names, so errors.Is works
// across the wire exactly as it does in-process.
type RemoteError struct {
	Code byte
	Text string
}

func (e *RemoteError) Error() string { return e.Text }

func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case wire.FDCodeWrongSlotEpoch:
		return core.ErrWrongSlotEpoch
	case wire.FDCodeSessionClosed:
		return core.ErrSessionClosed
	case wire.FDCodeStopped:
		return core.ErrStopped
	case wire.FDCodeNoDataCenter:
		return ErrNoDataCenter
	}
	return nil
}

// Call is one in-flight front-door request. Issue many before waiting to
// pipeline them on the session's connection.
type Call struct {
	// state is the request id while the call is in flight, callDone once it
	// has completed and 0 while a reusable call is idle. Completion is a CAS
	// from the id: of the parties that can race to finish one request — the
	// reader with its response, a connection teardown, the sender finding
	// the link dead — exactly one delivers, and a late one holding a stale id
	// cannot touch the call's next use.
	state atomic.Uint64
	resp  wire.FrontDoorResponse
	err   error
	done  chan struct{}
	// reuse marks a session's own call, used for one synchronous round trip
	// after another: completion sends one token on done instead of closing
	// it.
	reuse bool
}

const callDone = ^uint64(0) // never a request id

// complete finishes the request id on this call, once (see state). A call
// can race two outcomes — its response arriving while the connection is
// being torn down — and the first completion wins; either way the caller
// learns the connection died or got its answer, both acceptable for an op
// that raced the teardown.
func (c *Call) complete(id uint64, resp wire.FrontDoorResponse, err error) {
	if !c.state.CompareAndSwap(id, callDone) {
		return
	}
	c.resp, c.err = resp, err
	if c.reuse {
		c.done <- struct{}{}
	} else {
		close(c.done)
	}
}

// Done is closed when the call completes.
func (c *Call) Done() <-chan struct{} { return c.done }

// Wait blocks for completion and returns the response. A server-reported
// error (FDErr) surfaces as a *RemoteError.
func (c *Call) Wait() (wire.FrontDoorResponse, error) {
	<-c.done
	if c.err != nil {
		return wire.FrontDoorResponse{}, c.err
	}
	if c.resp.Kind == wire.FDErr {
		return wire.FrontDoorResponse{}, &RemoteError{Code: c.resp.Code, Text: c.resp.Text}
	}
	return c.resp, nil
}

// RemoteSession is one client session multiplexed onto a pooled connection.
// Like the in-process Session, use it from one goroutine at a time for its
// operations to form a single thread of execution — different sessions of
// the same pool are fully independent.
type RemoteSession struct {
	pc   *poolConn
	id   uint64
	call Call // the synchronous operations' reusable call, see RoundTrip
}

// RoundTrip runs one synchronous request — whatever its op; ID and Session
// are filled in here — on the session's own call: a session is one thread of
// execution, so at most one synchronous request is in flight and nothing
// need be allocated for it. The typed operations below are this plus the
// shaping of their result.
func (s *RemoteSession) RoundTrip(req wire.FrontDoorRequest) (wire.FrontDoorResponse, error) {
	c := &s.call
	req.ID, req.Session = s.pc.nextID.Add(1), s.id
	if !c.state.CompareAndSwap(0, req.ID) {
		// The call is busy: the session is being driven from two goroutines
		// against its contract. Stay correct; pay the allocation.
		return s.pc.send(req).Wait()
	}
	s.pc.submit(req, c)
	resp, err := c.Wait()
	c.resp, c.err = wire.FrontDoorResponse{}, nil
	c.state.Store(0)
	return resp, err
}

// PutAsync issues a write without waiting for it.
func (s *RemoteSession) PutAsync(key string, value []byte) *Call {
	return s.pc.send(wire.FrontDoorRequest{Op: wire.FDPut, Session: s.id, Key: key, Value: value})
}

// GetAsync issues a read without waiting for it.
func (s *RemoteSession) GetAsync(key string) *Call {
	return s.pc.send(wire.FrontDoorRequest{Op: wire.FDGet, Session: s.id, Key: key})
}

// ROTxAsync issues a read-only transaction without waiting for it.
func (s *RemoteSession) ROTxAsync(keys []string) *Call {
	return s.pc.send(wire.FrontDoorRequest{Op: wire.FDROTx, Session: s.id, Keys: keys})
}

// Ping checks liveness.
func (s *RemoteSession) Ping() error {
	_, err := s.RoundTrip(wire.FrontDoorRequest{Op: wire.FDPing})
	return err
}

// Put writes key=value.
func (s *RemoteSession) Put(key string, value []byte) error {
	_, err := s.RoundTrip(wire.FrontDoorRequest{Op: wire.FDPut, Key: key, Value: value})
	return err
}

// Get reads key; nil means the key has no visible version.
func (s *RemoteSession) Get(key string) ([]byte, error) {
	resp, err := s.RoundTrip(wire.FrontDoorRequest{Op: wire.FDGet, Key: key})
	if err != nil || !resp.Exists {
		return nil, err
	}
	return resp.Value, nil
}

// ROTx reads keys atomically from a causal snapshot; missing keys map to
// nil, matching the in-process Session.
func (s *RemoteSession) ROTx(keys []string) (map[string][]byte, error) {
	resp, err := s.RoundTrip(wire.FrontDoorRequest{Op: wire.FDROTx, Keys: keys})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(resp.Items))
	for _, it := range resp.Items {
		if it.Exists {
			out[it.Key] = it.Value
		} else {
			out[it.Key] = nil
		}
	}
	return out, nil
}

// Stats returns the raw stats line.
func (s *RemoteSession) Stats() (string, error) {
	resp, err := s.RoundTrip(wire.FrontDoorRequest{Op: wire.FDStats})
	return resp.Text, err
}

// Admin runs one admin command line (WHEREIS/SPLIT/MOVESLOTS/SLOTS/JOIN/
// LEAVE/EVICT/STATS) and returns its text output.
func (s *RemoteSession) Admin(line string) (string, error) {
	resp, err := s.RoundTrip(wire.FrontDoorRequest{Op: wire.FDAdmin, Line: line})
	return resp.Text, err
}

// TextRoundTrip runs one typed line of the text protocol over the binary
// front door — what a line tool (pocccli, poccshell) does with its input:
// parse it into a request, send the frame, and append to dst the response
// rendered as the lines a text connection would have read. A usage error (it
// never leaves the client), a server-reported error and a dead link all
// render as the protocol's "ERR <message>" line. QUIT is not a request: it
// is answered "BYE" here, as the server's text loop does, and reported so the
// caller can leave.
func (s *RemoteSession) TextRoundTrip(dst []byte, line string) (out []byte, quit bool) {
	req, err := wire.ParseTextRequest(line)
	if err == wire.ErrTextQuit {
		return append(dst, "BYE\n"...), true
	}
	var resp wire.FrontDoorResponse
	if err == nil {
		resp, err = s.RoundTrip(req)
	}
	if err != nil {
		resp = wire.FrontDoorResponse{Kind: wire.FDErr, Text: err.Error()}
	}
	return wire.AppendTextResponse(dst, req.Op, &resp), false
}

// poolConn is one pooled connection: a writer goroutine coalescing queued
// frames, a reader goroutine completing in-flight calls by request id.
type poolConn struct {
	conn   net.Conn
	wq     chan queuedCall
	dead   chan struct{}
	nextID atomic.Uint64

	mu       sync.Mutex
	inflight map[uint64]*Call
	err      error // sticky death reason

	// Owned by the reader goroutine: the frame buffer and the run of
	// responses being delivered (see readRun).
	rbuf     []byte
	arrivals []arrival
}

// queuedCall is a request on its way to the writer. The request travels by
// value, beside the call and not inside it: a call completed early (its
// sender found the link dead) may already be carrying the session's next
// request while the writer still holds this one.
type queuedCall struct {
	req  wire.FrontDoorRequest
	call *Call
}

func dialPoolConn(addr string) (*poolConn, error) {
	conn, err := net.DialTimeout("tcp", addr, poolDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial pool: %w", err)
	}
	// The magic byte selects the binary protocol on the server; everything
	// after it is frames.
	if _, err := conn.Write([]byte{wire.FrontDoorMagic}); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("client: dial pool: %w", err)
	}
	pc := &poolConn{
		conn:     conn,
		wq:       make(chan queuedCall, poolWriteQueue),
		dead:     make(chan struct{}),
		inflight: make(map[uint64]*Call),
	}
	go pc.writer()
	go pc.reader()
	return pc, nil
}

// send queues one request on a call of its own and returns the handle.
func (pc *poolConn) send(req wire.FrontDoorRequest) *Call {
	req.ID = pc.nextID.Add(1)
	call := &Call{done: make(chan struct{})}
	call.state.Store(req.ID)
	pc.submit(req, call)
	return call
}

// submit queues one request (its ID set, call armed with it). On a dead
// connection the call completes immediately with the death reason.
func (pc *poolConn) submit(req wire.FrontDoorRequest, call *Call) {
	q := queuedCall{req: req, call: call}
	select {
	case pc.wq <- q: // non-blocking fast path: the queue has room
	default:
		select {
		case pc.wq <- q:
		case <-pc.dead:
			call.complete(req.ID, wire.FrontDoorResponse{}, pc.deathErr())
			return
		}
	}
	// The writer may have died (and drained the queue) between the enqueue
	// and now; complete the stranded call ourselves. If the writer did pick
	// it up, completion is idempotent.
	select {
	case <-pc.dead:
		call.complete(req.ID, wire.FrontDoorResponse{}, pc.deathErr())
	default:
	}
}

// writer registers each call in the in-flight table (before the bytes hit
// the wire, so the reader can never see a response for an unknown id),
// coalesces whatever is queued into one buffer, and issues one write per
// batch. The whole batch registers under one lock acquisition.
func (pc *poolConn) writer() {
	var scratch []byte
	type registration struct {
		id   uint64
		call *Call
	}
	batch := make([]registration, 0, 64)
	stage := func(q queuedCall) {
		n := len(scratch)
		if scratch = wire.AppendFrontDoorRequest(scratch, &q.req); len(scratch) == n {
			// Too large for one frame: the request fails alone, unsent.
			q.call.complete(q.req.ID, wire.FrontDoorResponse{}, ErrRequestTooLarge)
			return
		}
		batch = append(batch, registration{q.req.ID, q.call})
	}
	for {
		var q queuedCall
		select {
		case q = <-pc.wq:
		case <-pc.dead:
			pc.drainQueue()
			return
		}
		batch, scratch = batch[:0], scratch[:0]
		stage(q)
	coalesce:
		for len(scratch) < poolFlushBytes {
			select {
			case q = <-pc.wq:
				stage(q)
			default:
				break coalesce
			}
		}
		if len(batch) == 0 {
			continue
		}
		pc.mu.Lock()
		if pc.err != nil {
			// The connection died while the batch was being staged; the
			// swapped-out in-flight table will never see these calls, so
			// complete them here.
			err := pc.err
			pc.mu.Unlock()
			for _, b := range batch {
				b.call.complete(b.id, wire.FrontDoorResponse{}, err)
			}
			pc.drainQueue()
			return
		}
		for _, b := range batch {
			pc.inflight[b.id] = b.call
		}
		pc.mu.Unlock()
		if _, err := pc.conn.Write(scratch); err != nil {
			pc.fail(fmt.Errorf("client: pool write: %w", err))
			pc.drainQueue()
			return
		}
	}
}

// drainQueue fails whatever was queued behind a dead connection.
func (pc *poolConn) drainQueue() {
	for {
		select {
		case q := <-pc.wq:
			q.call.complete(q.req.ID, wire.FrontDoorResponse{}, pc.deathErr())
		default:
			return
		}
	}
}

// arrival is one decoded response on its way to the call it answers.
type arrival struct {
	resp wire.FrontDoorResponse
	call *Call
}

// reader completes in-flight calls as response frames arrive — in whatever
// order the server finished them.
func (pc *poolConn) reader() {
	br := bufio.NewReader(pc.conn)
	for {
		if err := pc.readRun(br); err != nil {
			pc.fail(err)
			return
		}
	}
}

// readRun delivers one run of responses: the frames already sitting in the
// read buffer (the server coalesces its writes, so they arrive in runs) are
// decoded together and resolved against the in-flight table under one lock.
// A delivered response belongs to its caller: the run's slots are zeroed, so
// an idle connection keeps no value, item list or text reachable.
func (pc *poolConn) readRun(br *bufio.Reader) error {
	batch := pc.arrivals[:0]
	for {
		frame, err := wire.ReadFrontDoorFrame(br, pc.rbuf)
		if err != nil {
			return fmt.Errorf("client: pool read: %w", err)
		}
		pc.rbuf = frame[:0]
		resp, err := wire.DecodeFrontDoorResponse(frame)
		if err != nil {
			return fmt.Errorf("client: pool decode: %w", err)
		}
		batch = append(batch, arrival{resp: resp})
		if br.Buffered() == 0 || len(batch) >= 256 {
			break
		}
	}
	pc.arrivals = batch
	pc.mu.Lock()
	for i := range batch {
		id := batch[i].resp.ID
		batch[i].call = pc.inflight[id]
		delete(pc.inflight, id)
	}
	pc.mu.Unlock()
	for i := range batch {
		if batch[i].call != nil {
			batch[i].call.complete(batch[i].resp.ID, batch[i].resp, nil)
		}
		batch[i] = arrival{}
	}
	return nil
}

// fail kills the connection once: records the reason, releases the writer,
// closes the socket (releasing the reader), and completes every in-flight
// call with the reason.
func (pc *poolConn) fail(err error) {
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return
	}
	pc.err = err
	stranded := pc.inflight
	pc.inflight = make(map[uint64]*Call)
	// Closed under mu: whoever finds err set finds dead closed. A writer
	// that saw err and left while dead was still open would strand the
	// request a sender queues in between (it checks dead, finds it open).
	close(pc.dead)
	pc.mu.Unlock()
	_ = pc.conn.Close()
	for id, call := range stranded {
		call.complete(id, wire.FrontDoorResponse{}, err)
	}
}

func (pc *poolConn) deathErr() error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.err
}
