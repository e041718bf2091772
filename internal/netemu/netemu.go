// Package netemu emulates the geo-distributed network of the paper's AWS
// testbed. Nodes (one per partition server per data center) exchange messages
// over point-to-point lossless FIFO channels — the system model assumed by
// POCC (§II-C). Every directed link injects a configurable latency with
// jitter, and links can be taken down and healed to emulate network
// partitions for the HA-POCC experiments. While a link is down, messages are
// buffered (lossless) and drain in order after healing.
package netemu

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a partition server: data center m, partition n.
type NodeID struct {
	DC        int
	Partition int
}

func (id NodeID) String() string {
	return fmt.Sprintf("dc%d/p%d", id.DC, id.Partition)
}

// Handler processes a message delivered to an endpoint. Handlers are invoked
// sequentially per link (preserving FIFO order per channel); a handler that
// may block for a long time must hand the message off to another goroutine.
//
// A message is valid for the call: the TCP transport lends a decoded
// *msg.ReplicateBatch or *msg.Heartbeat, and the batch's version list, until
// the handler returns. A pointer message is immutable — one flush is shared
// by every sibling — and a handler that hands off or keeps a lent slice
// copies it (the versions in it are independent objects and may be kept).
type Handler func(src NodeID, m any)

// LatencyFunc returns the base one-way delay for a directed link.
type LatencyFunc func(src, dst NodeID) time.Duration

// Config parameterizes a Network.
type Config struct {
	// Latency returns the base one-way latency per link. Nil means zero
	// latency (still asynchronous and FIFO).
	Latency LatencyFunc
	// JitterFrac adds a uniform random jitter in [0, JitterFrac·base) to
	// every message. Zero disables jitter.
	JitterFrac float64
	// Seed makes jitter deterministic across runs.
	Seed uint64
}

// Network is a collection of endpoints connected by emulated links.
type Network struct {
	cfg Config

	mu     sync.Mutex
	eps    map[NodeID]*Endpoint
	links  map[linkKey]*link
	closed bool
	wg     sync.WaitGroup

	msgs  atomic.Uint64 // total messages accepted for delivery
	scale atomic.Uint64 // latency multiplier (float64 bits); 1.0 at start
}

type linkKey struct{ src, dst NodeID }

// New creates an empty network.
func New(cfg Config) *Network {
	n := &Network{
		cfg:   cfg,
		eps:   make(map[NodeID]*Endpoint),
		links: make(map[linkKey]*link),
	}
	n.scale.Store(math.Float64bits(1.0))
	return n
}

// SetLatencyScale multiplies every link's base latency by f from now on —
// the chaos plane's live latency reprofile. f must be >= 0; 1 restores the
// configured profile. In-flight messages keep the delay they were assigned.
func (n *Network) SetLatencyScale(f float64) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("netemu: invalid latency scale %v", f))
	}
	n.scale.Store(math.Float64bits(f))
}

// Endpoint is a node's attachment point to the network.
type Endpoint struct {
	net     *Network
	id      NodeID
	handler atomic.Pointer[Handler]
}

// Register attaches a node. The handler may be set later with SetHandler;
// messages delivered before a handler is installed are dropped (registration
// happens before any traffic in practice).
func (n *Network) Register(id NodeID, h Handler) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[id]; ok {
		panic(fmt.Sprintf("netemu: duplicate endpoint %v", id))
	}
	ep := &Endpoint{net: n, id: id}
	if h != nil {
		ep.handler.Store(&h)
	}
	n.eps[id] = ep
	return ep
}

// SetHandler installs or replaces the endpoint's message handler.
func (e *Endpoint) SetHandler(h Handler) { e.handler.Store(&h) }

// ID returns the endpoint's node id.
func (e *Endpoint) ID() NodeID { return e.id }

// Send enqueues m for delivery to dst. It never blocks: links buffer an
// unbounded number of messages, modelling lossless channels. Sends on a
// closed network are dropped.
func (e *Endpoint) Send(dst NodeID, m any) {
	e.net.send(e.id, dst, m)
}

func (n *Network) send(src, dst NodeID, m any) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	dstEP, ok := n.eps[dst]
	if !ok {
		n.mu.Unlock()
		panic(fmt.Sprintf("netemu: send to unregistered endpoint %v", dst))
	}
	k := linkKey{src, dst}
	l, ok := n.links[k]
	if !ok {
		l = n.newLink(src, dst, dstEP)
		n.links[k] = l
	}
	n.mu.Unlock()

	n.msgs.Add(1)
	l.enqueue(envelope{msg: m, sent: time.Now()})
}

// MessageCount reports the total number of messages sent through the network,
// a proxy for the communication overhead of the protocols.
func (n *Network) MessageCount() uint64 { return n.msgs.Load() }

// SetLinkDown cuts or heals a single directed link.
func (n *Network) SetLinkDown(src, dst NodeID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{src, dst}
	l, ok := n.links[k]
	if !ok {
		if dstEP, okEP := n.eps[dst]; okEP {
			l = n.newLink(src, dst, dstEP)
			n.links[k] = l
		} else {
			return
		}
	}
	l.setDown(down)
}

// PartitionDCs cuts (or heals) every link between two data centers, in both
// directions, emulating an inter-DC network partition.
func (n *Network) PartitionDCs(a, b int, down bool) {
	n.mu.Lock()
	ids := make([]NodeID, 0, len(n.eps))
	for id := range n.eps {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	for _, src := range ids {
		for _, dst := range ids {
			if src == dst {
				continue
			}
			crosses := (src.DC == a && dst.DC == b) || (src.DC == b && dst.DC == a)
			if crosses {
				n.SetLinkDown(src, dst, down)
			}
		}
	}
}

// Close shuts the network down. Buffered messages are discarded and all link
// goroutines are joined before Close returns.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, l := range n.links {
		l.close()
	}
	n.mu.Unlock()
	n.wg.Wait()
}

// envelope carries a message and its send time so latency is measured from
// the moment of the send, not the moment the link goroutine dequeues it.
type envelope struct {
	msg  any
	sent time.Time
}

// link is a directed FIFO channel with injected latency.
type link struct {
	src, dst NodeID
	ep       *Endpoint
	latency  time.Duration
	jitter   float64
	scale    *atomic.Uint64 // the network's live latency multiplier
	rng      *rand.Rand     // owned by the delivery goroutine after start

	mu     sync.Mutex
	cond   *sync.Cond
	q      queue
	down   bool
	closed bool
}

// queue is the link's FIFO: a ring over a power-of-two buffer. Popping clears
// the slot, so a delivered message is not retained by the link, and keeps the
// buffer, so a link in steady state enqueues without allocating.
type queue struct {
	buf  []envelope
	head int // index of the oldest entry
	n    int // entries queued
}

// maxIdleQueue bounds the buffer an empty queue keeps: a backlog built up
// while the link was down must not stay allocated for the life of the link.
const maxIdleQueue = 4096

func (q *queue) push(e envelope) {
	if q.n == len(q.buf) {
		grown := make([]envelope, max(8, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *queue) pop() envelope {
	e := q.buf[q.head]
	q.buf[q.head] = envelope{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n == 0 && len(q.buf) > maxIdleQueue {
		*q = queue{}
	}
	return e
}

// newLink must be called with n.mu held.
func (n *Network) newLink(src, dst NodeID, dstEP *Endpoint) *link {
	var lat time.Duration
	if n.cfg.Latency != nil {
		lat = n.cfg.Latency(src, dst)
	}
	seed := n.cfg.Seed ^ uint64(src.DC)<<48 ^ uint64(src.Partition)<<32 ^
		uint64(dst.DC)<<16 ^ uint64(dst.Partition)
	l := &link{
		src:     src,
		dst:     dst,
		ep:      dstEP,
		latency: lat,
		jitter:  n.cfg.JitterFrac,
		scale:   &n.scale,
		rng:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
	l.cond = sync.NewCond(&l.mu)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		l.run()
	}()
	return l
}

func (l *link) enqueue(e envelope) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.q.push(e)
	l.mu.Unlock()
	l.cond.Signal()
}

func (l *link) setDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.q = queue{}
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *link) run() {
	var lastDelivery time.Time
	for {
		l.mu.Lock()
		for (l.q.n == 0 || l.down) && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		e := l.q.pop()
		l.mu.Unlock()

		delay := l.latency
		if s := math.Float64frombits(l.scale.Load()); s != 1.0 {
			delay = time.Duration(float64(delay) * s)
		}
		if l.jitter > 0 && delay > 0 {
			delay += time.Duration(l.rng.Float64() * l.jitter * float64(delay))
		}
		deliverAt := e.sent.Add(delay)
		if now := time.Now(); deliverAt.Before(now) {
			deliverAt = now // link was down or goroutine lagged
		}
		if deliverAt.Before(lastDelivery) {
			deliverAt = lastDelivery // FIFO: never deliver out of order
		}
		lastDelivery = deliverAt
		if d := time.Until(deliverAt); d > 0 {
			time.Sleep(d)
		}
		if hp := l.ep.handler.Load(); hp != nil {
			(*hp)(l.src, e.msg)
		}
	}
}
