// Package tcpnet carries the protocol over real TCP connections, proving
// the engine is transport-agnostic: each node owns a listener, keeps one
// persistent outbound connection per destination (TCP ordering gives the
// lossless FIFO channel the system model assumes), and encodes messages
// with internal/wire's binary codec. What an accepted connection decodes is
// input from outside the process: a frame reaches the handler only when its
// envelope names a source in this node's directory, so a handler may answer
// with Send(src, …). Intended for single-host/loopback deployments and
// demos; the emulated transport (internal/netemu) remains the tool for
// latency and partition injection.
package tcpnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netemu"
	"repro/internal/wire"
)

// Node is a TCP-backed netemu.Transport.
type Node struct {
	id       netemu.NodeID
	listener net.Listener
	handler  atomic.Pointer[netemu.Handler]

	mu     sync.Mutex
	peers  map[netemu.NodeID]string // node -> address (set by Connect)
	outs   map[netemu.NodeID]*outLink
	ins    map[net.Conn]struct{} // accepted connections, closed on shutdown
	closed bool

	sent atomic.Uint64
	wg   sync.WaitGroup
}

// Listen binds a node on addr ("127.0.0.1:0" for an ephemeral port).
func Listen(id netemu.NodeID, addr string) (*Node, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	n := &Node{
		id:       id,
		listener: l,
		peers:    make(map[netemu.NodeID]string),
		outs:     make(map[netemu.NodeID]*outLink),
		ins:      make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.listener.Addr().String() }

// ID implements netemu.Transport.
func (n *Node) ID() netemu.NodeID { return n.id }

// SetHandler implements netemu.Transport.
func (n *Node) SetHandler(h netemu.Handler) { n.handler.Store(&h) }

// Connect installs the directory of peer addresses. It must be called before
// the first Send; connections are dialed lazily.
func (n *Node) Connect(directory map[netemu.NodeID]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, addr := range directory {
		n.peers[id] = addr
	}
}

// Sent returns the number of messages handed to the transport.
func (n *Node) Sent() uint64 { return n.sent.Load() }

// Send implements netemu.Transport: it enqueues m on the persistent ordered
// connection to dst and never blocks on the network.
func (n *Node) Send(dst netemu.NodeID, m any) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	link, ok := n.outs[dst]
	if !ok {
		addr, known := n.peers[dst]
		if !known {
			n.mu.Unlock()
			panic(fmt.Sprintf("tcpnet: send to unknown node %v", dst))
		}
		link = newOutLink(n, addr)
		n.outs[dst] = link
	}
	n.mu.Unlock()
	n.sent.Add(1)
	link.enqueue(m)
}

// Close shuts the node down: the listener stops, outbound links flush their
// queues best-effort and close, and all goroutines are joined.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	outs := make([]*outLink, 0, len(n.outs))
	for _, l := range n.outs {
		outs = append(outs, l)
	}
	ins := make([]net.Conn, 0, len(n.ins))
	for c := range n.ins {
		ins = append(ins, c)
	}
	n.mu.Unlock()

	for _, l := range outs {
		l.close()
	}
	_ = n.listener.Close()
	// Unblock inbound readers: their Decode calls return once the
	// connections are closed.
	for _, c := range ins {
		_ = c.Close()
	}
	n.wg.Wait()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.ins[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readLoop(conn)
		}()
	}
}

// readLoop decodes envelopes from one inbound connection and dispatches them
// sequentially, preserving the sender's FIFO order. The handler runs before
// the next Decode, so what the decoder lends stays valid for the call
// (netemu.Handler). A frame whose source is
// not a directory peer is dropped: handlers answer with Send(src, …), which
// panics on an unknown node, and a corrupt or hostile frame must not be able
// to bring that about. A peer's link stamps every frame with the one source,
// so the directory is consulted once per connection.
func (n *Node) readLoop(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.ins, conn)
		n.mu.Unlock()
	}()
	dec := wire.NewBinaryDecoder(conn)
	var peer netemu.NodeID // the last source found in the directory
	checked := false
	for {
		env, err := dec.Decode()
		if err != nil {
			return
		}
		if !checked || env.Src != peer {
			if !n.isPeer(env.Src) {
				continue
			}
			peer, checked = env.Src, true
		}
		if hp := n.handler.Load(); hp != nil {
			(*hp)(env.Src, env.Msg)
		}
	}
}

// isPeer reports whether frames from src may reach the handler. A node
// without a directory (Connect never called: a receive-only endpoint) can
// send to nobody, so nothing it hears can be answered and everything passes.
func (n *Node) isPeer(src netemu.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, known := n.peers[src]
	return known || len(n.peers) == 0
}

// outLink is a persistent ordered connection to one destination with an
// unbounded send queue (the lossless-channel model). A dedicated writer
// goroutine drains the queue in batches: everything queued is encoded
// through one buffered writer and flushed once per drain, so a replication
// burst costs one syscall instead of one per message. Dial failures are
// retried with backoff so no message is ever dropped while the node is up.
type outLink struct {
	node *Node
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	q      []any // messages awaiting the writer
	spare  []any // the drained buffer q swaps with, see run
	closed bool
}

// maxIdleQueue is the largest queue buffer an outLink keeps between drains;
// one grown past it by a burst (a catch-up stream) is left to the collector.
const maxIdleQueue = 4096

func newOutLink(n *Node, addr string) *outLink {
	l := &outLink{node: n, addr: addr}
	l.cond = sync.NewCond(&l.mu)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		l.run()
	}()
	return l
}

func (l *outLink) enqueue(m any) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.q = append(l.q, m)
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *outLink) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *outLink) run() {
	var conn net.Conn
	var bw *bufio.Writer
	var enc *wire.BinaryEncoder
	defer func() {
		if conn != nil {
			_ = conn.Close()
		}
	}()
	backoff := time.Millisecond
	var batch []any // taken off the queue, not yet flushed
	for {
		if len(batch) == 0 {
			if batch = l.take(); batch == nil {
				return // closed and drained
			}
		}

		if conn == nil {
			c, err := net.Dial("tcp", l.addr)
			if err != nil {
				if l.isClosed() {
					return // give up on the backlog at shutdown
				}
				time.Sleep(backoff)
				if backoff < 100*time.Millisecond {
					backoff *= 2
				}
				continue
			}
			if tc, ok := c.(*net.TCPConn); ok {
				// TCP_NODELAY on, explicitly (it is also Go's default):
				// batching happens here in the writer, where it costs one
				// flush per drain, not in the kernel, where Nagle would add
				// up to an RTT of latency to every small heartbeat.
				_ = tc.SetNoDelay(true)
			}
			conn = c
			bw = bufio.NewWriterSize(conn, 64*1024)
			enc = wire.NewBinaryEncoder(bw)
			backoff = time.Millisecond
		}
		ok := true
		for _, m := range batch {
			if err := enc.Encode(wire.Envelope{Src: l.node.id, Msg: m}); err != nil {
				ok = false
				break
			}
		}
		if ok {
			ok = bw.Flush() == nil
		}
		if !ok {
			// Connection broke: drop it and retransmit the whole batch on a
			// fresh connection (the codec cannot resume mid-stream). A
			// partially-flushed batch means duplicates on the receiver,
			// which the protocol tolerates: sequenced replication drops
			// already-seen (epoch, seq) pairs, a gap triggers catch-up, and
			// a lost catch-up chunk sends its round again.
			_ = conn.Close()
			conn, bw, enc = nil, nil, nil
			continue
		}
		l.recycle(batch)
		batch = nil
	}
}

// take blocks until messages are queued and returns the whole backlog —
// everything queued drains in one buffered write — leaving the other buffer
// for enqueues, so at steady state the two swap and nothing is allocated. It
// returns nil once the link is closed and drained.
func (l *outLink) take() []any {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.q) == 0 && !l.closed {
		l.cond.Wait()
	}
	if len(l.q) == 0 {
		return nil
	}
	batch := l.q
	l.q, l.spare = l.spare, nil
	return batch
}

// recycle takes back a flushed batch: its references are dropped (a queued
// replication batch pins its versions), a pooled message is released now
// that no retransmission can need it — a replication batch's or heartbeat's
// reference of this link, or a slice request or reply, this link's since
// Send — and the emptied buffer is parked for the next swap.
func (l *outLink) recycle(batch []any) {
	for i, m := range batch {
		if r, ok := m.(interface{ Release() }); ok {
			r.Release()
		}
		batch[i] = nil
	}
	if cap(batch) > maxIdleQueue {
		return
	}
	l.mu.Lock()
	l.spare = batch[:0]
	l.mu.Unlock()
}

func (l *outLink) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}
