// Package core implements the partition server of POCC (Algorithm 2) and of
// the pessimistic baseline Cure* behind a single engine, mirroring the
// paper's fairness setup: the two protocols exchange identical metadata and
// differ only in that the pessimistic mode runs a stabilization protocol and
// searches version chains for stable versions, while the optimistic mode
// returns the freshest received version and blocks (rarely) on missing
// dependencies. HA-POCC is the optimistic engine with infrequent
// stabilization plus a block-timeout that closes sessions so clients can fall
// back to the pessimistic protocol (§III-B, §IV-C).
//
// # Hot-path locking
//
// The server has no global lock. State is split into independently
// synchronized regions so the optimistic read path never contends with
// replication apply:
//
//   - VV and GSS are atomic vectors ([]atomic.Uint64). Readers (Get, ROTx
//     snapshots, waiter checks) load entries lock-free. Each remote VV entry
//     has a single writer — the link handler of that DC's sibling (FIFO
//     delivery serializes per source) — and the local entry is written under
//     the replication manager's outbound lock; writes use CAS-max so they
//     stay monotone under any interleaving.
//   - The replication plane (outbound buffering, flush/heartbeat cadence,
//     per-link sequence numbers and WAL-shipped catch-up) lives in
//     internal/repl. Its outbound lock serializes the local write path — the
//     local VV entry, the replication buffer, and every send to sibling DCs
//     — so per-link FIFO order matches update-timestamp order, which VV
//     advancement relies on. The server's Put delegates to repl.Manager
//     through the Backend interface.
//   - gssMu guards the stabilization inputs (peer VVs) and GSS recomputation.
//   - gcMu guards the garbage-collection contributions.
//   - txMu guards RO-TX coordinator state: one table of in-flight
//     transactions, each entry holding its snapshot vector and its fan-in.
//   - Blocked requests live on per-vector wait lists (one for VV, one for
//     GSS) with their own locks and a fast lock-free empty check, so writers
//     that advance a vector pay nothing when nobody is blocked. Waiters and
//     fan-in entries are pooled; neither leaves this package.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Transport carries protocol messages between partition servers. The
// emulated network (netemu.Endpoint) and the TCP transport (tcpnet.Node)
// both implement it; the protocol only requires lossless FIFO delivery per
// (src, dst) pair.
type Transport interface {
	// ID returns the local node's coordinate.
	ID() netemu.NodeID
	// Send enqueues m for delivery to dst without blocking.
	Send(dst netemu.NodeID, m any)
	// SetHandler installs the message handler; it is invoked sequentially
	// per source link.
	SetHandler(h netemu.Handler)
}

// Mode selects the visibility protocol a request is served under.
type Mode int

// Visibility modes.
const (
	// Optimistic is POCC: reads return the freshest received version; a
	// request whose dependencies are missing blocks until they arrive.
	Optimistic Mode = iota + 1
	// Pessimistic is Cure*: reads return the freshest *stable* version
	// (dependency vector covered by the GSS); local items written by
	// pessimistic sessions are always visible.
	Pessimistic
)

// defaultGCMaxHoldback is how long a frozen or catching-up replication link
// defers garbage collection before being released (Config.GCMaxHoldback).
const defaultGCMaxHoldback = 10 * time.Second

// Sentinel errors returned by server operations.
var (
	// ErrStopped is returned for operations on a closed server.
	ErrStopped = errors.New("core: server stopped")
	// ErrSessionClosed is returned when a blocked optimistic request exceeds
	// the block timeout: the server suspects a network partition and closes
	// the session so the client can re-initialize it pessimistically.
	ErrSessionClosed = errors.New("core: session closed (suspected network partition)")
	// ErrWrongSlotEpoch is returned when an operation reaches a server that
	// no longer owns the key's slot: the client's slot table is stale (a
	// reshard moved the slot). Clients refresh their routing table and retry
	// — the error is a redirect, not a failure.
	ErrWrongSlotEpoch = errors.New("core: wrong slot epoch (slot moved; refresh routing)")
)

// Metrics aggregates the per-server statistics the evaluation reports.
type Metrics struct {
	GetBlocking metrics.Blocking
	PutBlocking metrics.Blocking
	TxBlocking  metrics.Blocking // transactional slice reads (Fig. 3c)
	GetStale    metrics.Staleness
	TxStale     metrics.Staleness
	// Parked slices by where they waited: on the local DC's entry (the cost
	// of skew under raw clocks; 0 under hybrid ones) or on remote updates only.
	TxParkLocal, TxParkRemote atomic.Uint64
}

// Config parameterizes a Server.
type Config struct {
	// ID is the server's (data center, partition) coordinate.
	ID netemu.NodeID
	// NumDCs (M) and NumPartitions (N) describe the layout.
	NumDCs        int
	NumPartitions int
	// Clock is the node's physical clock.
	Clock *clock.Clock
	// Endpoint attaches the server to the network (emulated or TCP). The
	// server installs its own handler.
	Endpoint Transport
	// DefaultMode is the visibility protocol of the deployment: Optimistic
	// for POCC and HA-POCC, Pessimistic for Cure*. Individual requests carry
	// their session's mode, enabling HA-POCC's mixed operation.
	DefaultMode Mode
	// HeartbeatInterval is Δ of Algorithm 2 (1 ms in the evaluation).
	HeartbeatInterval time.Duration
	// StabilizationInterval is the GSS exchange period: 5 ms for Cure*,
	// infrequent (e.g. 500 ms) for HA-POCC, 0 to disable (pure POCC).
	StabilizationInterval time.Duration
	// LeanStabilization switches most GSS exchange ticks from a full
	// version vector to a single scalar HLC watermark (Okapi-style): the
	// minimum nonzero member entry of the sender's VV, folded by the
	// receiver into the sender's last full vector. Cuts stabilization
	// traffic from O(MaxDCs) varints to one per tick; full vectors are
	// still sent every leanFullVVEvery ticks to refresh the baseline.
	LeanStabilization bool
	// GCInterval is the garbage-collection exchange period; 0 disables GC.
	GCInterval time.Duration
	// PutDepWait enables the optional wait of Algorithm 2 line 6 (enabled in
	// the paper's evaluation to emulate merge-based conflict handling).
	PutDepWait bool
	// BlockTimeout > 0 turns on HA-POCC's partition suspicion: optimistic
	// requests blocked longer than this return ErrSessionClosed. 0 waits
	// forever (the paper's POCC, evaluated without partitions).
	BlockTimeout time.Duration
	// DataDir selects the storage engine backing this server: empty, a
	// fresh in-memory engine (storage.New); otherwise a durable WAL-backed
	// engine opened (and crash-recovered) from this directory, tuned by
	// DurableOptions. The server owns its engine and closes it on Close. A
	// recovered engine reports a version-vector floor (Durable.RecoveredVV) and
	// the server's VV starts from it, so reads never miss versions the
	// replayed state already contains. A durable engine also serves the
	// replication plane's catch-up streams out of its log (internal/repl); a
	// server without one answers Unsupported and peers resume on its word.
	DataDir string
	// DurableOptions tunes the durable engine opened for DataDir
	// (checkpoint trigger, segment size, fsync policy). Ignored when DataDir
	// is empty.
	DurableOptions storage.DurableOptions
	// MaxDCs caps the data-center ids this server can ever track: the
	// version-vector and GSS capacity, reserved up front because the hot
	// path reads those vectors lock-free and cannot repoint them. 0 means
	// NumDCs — fixed membership, the pre-membership behavior and footprint.
	// Headroom beyond NumDCs lets whole DCs join at runtime (internal/repl
	// membership); a departed DC's id is never reused.
	MaxDCs int
	// Joining marks this server's DC as bootstrapping into an existing
	// deployment: its replication manager pulls every partition's history
	// from its siblings through WAL-shipped catch-up, and the stabilization
	// loop does not start — this server contributes nothing to the GSS —
	// until the bootstrap completes.
	Joining bool
	// JoinTimeout bounds how long a Joining server keeps soliciting the
	// deployment before giving up: past it the join solicitation stops and
	// JoinFailed reports true, so the operator can tear the half-joined
	// server down cleanly. 0 retries forever (the pre-timeout behavior).
	JoinTimeout time.Duration
	// GCMaxHoldback bounds how long the garbage-collection exchange defers
	// pruning for a frozen, catching-up or joining replication link (the
	// membership-aware GC clamp, repl.Manager.ClampGC). Past the bound the
	// holdback is released and GC advances — a laggard frozen longer than
	// this must re-bootstrap via full resync, because the history it still
	// needs may now be pruned past. 0 selects the default (10 s); negative
	// never releases (GC waits for the laggard indefinitely).
	GCMaxHoldback time.Duration
	// Membership is the initial membership view (zero value: the first
	// NumDCs DCs are active). Deployments that grew or shrank pass the
	// current view so restarted and joining servers start from reality.
	Membership msg.Membership
	// MaxPartitions caps the partition ids this server can ever track
	// within its DC — the headroom for splitting partitions at runtime,
	// mirroring MaxDCs: the same-DC peer state (stabilization and GC
	// inputs, RO-TX fan-in) is reserved up front. 0 means NumPartitions —
	// a fixed partition count, the pre-reshard behavior and footprint.
	MaxPartitions int
	// SlotMap is the initial slot table routing keys to partition servers
	// within the DC. Nil means the static layout: this server owns exactly
	// the keys PartitionOf maps to its id, and no ownership checks run.
	// With a map installed, operations on keys whose slot this server does
	// not own fail with ErrWrongSlotEpoch, and the table is gossiped and
	// lattice-merged across the deployment (see InstallSlotMap).
	SlotMap *keyspace.SlotMap
	// Gated starts the server behind the stabilization gate without the
	// whole-DC join protocol: it serves and replicates normally but does
	// not feed the DC's GSS until ReleaseGate. SplitPartition uses it for
	// the new slot owner while the donor's history is being copied in.
	Gated bool
	// Metrics receives the server's statistics; required.
	Metrics *Metrics
}

func (c *Config) validate() error {
	if c.NumDCs < 1 || c.NumPartitions < 1 {
		return fmt.Errorf("core: invalid layout %dx%d", c.NumDCs, c.NumPartitions)
	}
	if c.ID.DC < 0 || c.ID.DC >= c.NumDCs || c.ID.Partition < 0 || c.ID.Partition >= c.maxPartitions() {
		return fmt.Errorf("core: id %v outside layout %dx%d", c.ID, c.NumDCs, c.NumPartitions)
	}
	if c.Clock == nil || c.Endpoint == nil || c.Metrics == nil {
		return errors.New("core: Clock, Endpoint and Metrics are required")
	}
	if c.DefaultMode != Optimistic && c.DefaultMode != Pessimistic {
		return errors.New("core: DefaultMode must be Optimistic or Pessimistic")
	}
	if c.DefaultMode == Pessimistic && c.StabilizationInterval <= 0 {
		return errors.New("core: pessimistic mode requires a stabilization interval")
	}
	if c.MaxDCs != 0 && c.MaxDCs < c.NumDCs {
		return fmt.Errorf("core: MaxDCs %d below NumDCs %d", c.MaxDCs, c.NumDCs)
	}
	if c.MaxPartitions != 0 && c.MaxPartitions < c.NumPartitions {
		return fmt.Errorf("core: MaxPartitions %d below NumPartitions %d", c.MaxPartitions, c.NumPartitions)
	}
	if c.MaxPartitions > keyspace.NumSlots {
		return fmt.Errorf("core: MaxPartitions %d exceeds the slot universe (%d)", c.MaxPartitions, keyspace.NumSlots)
	}
	if c.SlotMap != nil {
		if err := c.SlotMap.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// maxDCs resolves the version-vector capacity.
func (c *Config) maxDCs() int {
	if c.MaxDCs != 0 {
		return c.MaxDCs
	}
	return c.NumDCs
}

// maxPartitions resolves the same-DC peer-state capacity.
func (c *Config) maxPartitions() int {
	if c.MaxPartitions != 0 {
		return c.MaxPartitions
	}
	return c.NumPartitions
}

// atomicVC is a vector clock whose entries are read and written atomically,
// giving readers lock-free monotone snapshots. Cross-entry consistency is
// not required by the protocol: every entry only grows, so any interleaved
// load yields a vector that was a valid lower bound of the true state.
type atomicVC struct {
	e []atomic.Uint64
}

func newAtomicVC(n int) *atomicVC { return &atomicVC{e: make([]atomic.Uint64, n)} }

func (a *atomicVC) get(i int) vclock.Timestamp { return vclock.Timestamp(a.e[i].Load()) }

// raiseTo lifts entry i to at least t, reporting whether it advanced. The
// CAS loop keeps the entry monotone even with racing writers (e.g. a TCP
// reconnect briefly running two reader goroutines for one link).
func (a *atomicVC) raiseTo(i int, t vclock.Timestamp) bool {
	for {
		cur := a.e[i].Load()
		if uint64(t) <= cur {
			return false
		}
		if a.e[i].CompareAndSwap(cur, uint64(t)) {
			return true
		}
	}
}

// load fills dst (reallocating only on length mismatch) with an atomic
// snapshot of the vector and returns it.
func (a *atomicVC) load(dst vclock.VC) vclock.VC {
	if len(dst) != len(a.e) {
		dst = make(vclock.VC, len(a.e))
	}
	for i := range a.e {
		dst[i] = vclock.Timestamp(a.e[i].Load())
	}
	return dst
}

// snapshot returns a fresh copy of the vector.
func (a *atomicVC) snapshot() vclock.VC { return a.load(nil) }

// covers reports whether the vector satisfies need on every entry except
// skip (-1 checks all entries), the lock-free form of vclock.LessEqExcept.
func (a *atomicVC) covers(need vclock.VC, skip int) bool {
	for i, t := range need {
		if i == skip {
			continue
		}
		if i >= len(a.e) {
			if t > 0 {
				return false
			}
			continue
		}
		if uint64(t) > a.e[i].Load() {
			return false
		}
	}
	return true
}

// waiter represents one blocked request: it is released when the watched
// vector covers need on every entry except skip (-1 to check all entries).
// A GET or PUT blocks its caller's goroutine on wake; a parked RO-TX slice has
// none — the waiter carries the request and whoever takes it off the list
// serves it (Server.unpark).
// Waiters are recycled through waiterPool: release is one token on the
// 1-buffered wake channel, sent by whoever takes the waiter off its list, so
// a waiter that is off the list with an empty channel is safe to reuse.
type waiter struct {
	need vclock.VC
	skip int
	wake chan struct{}

	req    *msg.SliceReq // a parked slice, who sent it and when it parked
	src    netemu.NodeID
	parked time.Time
	timer  *time.Timer // its block timeout (HA-POCC), else nil
	next   *waiter     // chains the slices one release took off the list
}

var waiterPool = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// waitList is the per-vector condition structure: blocked requests register
// here and writers that advance the vector wake the satisfied ones. The
// active counter lets writers skip the lock entirely when nobody waits —
// the common case on the optimistic hot path.
type waitList struct {
	vec    *atomicVC
	mu     sync.Mutex
	active atomic.Int32
	ws     []*waiter
	serve  func(w *waiter, err error) // ends a parked slice: Server.unpark
}

func (l *waitList) add(w *waiter) {
	l.mu.Lock()
	l.ws = append(l.ws, w)
	l.active.Store(int32(len(l.ws)))
	l.mu.Unlock()
}

// remove takes w off the list and reports whether it was still on it. False
// means wake released w first: its token is already in w.wake (wake sends
// under l.mu), and the caller must take it before recycling w.
func (l *waitList) remove(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, x := range l.ws {
		if x == w {
			l.ws[i] = l.ws[len(l.ws)-1]
			l.ws[len(l.ws)-1] = nil
			l.ws = l.ws[:len(l.ws)-1]
			l.active.Store(int32(len(l.ws)))
			return true
		}
	}
	return false
}

// wake releases every waiter the vector now satisfies.
func (l *waitList) wake() { l.release(false) }

// release takes every waiter the vector satisfies off the list — and, when
// the server is stopping, every parked slice. A blocked goroutine gets its
// token under the list lock; the slices are served by this goroutine once the
// lock is released, so their reads and replies hold up no other park or wake.
func (l *waitList) release(stopping bool) {
	if l.active.Load() == 0 {
		return
	}
	var ready *waiter
	l.mu.Lock()
	out := l.ws[:0]
	for _, w := range l.ws {
		switch covered := l.vec.covers(w.need, w.skip); {
		case w.req != nil && (covered || stopping):
			w.next, ready = ready, w
		case covered:
			w.wake <- struct{}{} // never blocks: one token per registration
		default:
			out = append(out, w)
		}
	}
	// Clear the tail so released waiters are not retained.
	for i := len(out); i < len(l.ws); i++ {
		l.ws[i] = nil
	}
	l.ws = out
	l.active.Store(int32(len(out)))
	l.mu.Unlock()
	for ready != nil {
		w := ready
		ready, w.next = w.next, nil
		l.serve(w, nil)
	}
}

// Server is one partition replica p_n^m.
type Server struct {
	cfg      Config
	m        int // data center id
	n        int // partition id
	maxDCs   int // version-vector capacity (DC ids this server can track)
	maxParts int // same-DC peer-state capacity (partition ids trackable)
	clk      *clock.Clock
	ep       Transport
	store    storage.Engine
	durable  *storage.Durable // store, when DataDir opened it from a log; nil in memory
	mx       *Metrics

	// slots is the current slot table (immutable; swapped whole under
	// slotMu, read lock-free on the per-operation routing check). Nil means
	// the static layout with no ownership enforcement.
	slots  atomic.Pointer[keyspace.SlotMap]
	slotMu sync.Mutex // serializes merge-and-swap of the slot table

	// joined closes when this server's DC finishes bootstrapping into the
	// deployment (immediately for ordinary members). The stabilization loop
	// of a joining server waits on it: a half-bootstrapped replica must not
	// inject its partial version vector into the GSS.
	joined     chan struct{}
	joinedOnce sync.Once

	vv  *atomicVC // version vector VV_n^m; lock-free reads
	gss *atomicVC // globally stable snapshot (pessimistic/HA); lock-free reads

	// repl is the replication plane: outbound buffering and flush/heartbeat
	// cadence, per-link sequence numbers, and WAL-shipped catch-up. Its
	// outbound lock serializes the local write path (the local VV entry,
	// the buffer, and all sends to sibling DCs — per-link FIFO order must
	// match timestamp order); the server reaches it through Put → Publish.
	repl *repl.Manager

	// gssMu guards GSS recomputation and its inputs.
	gssMu      sync.Mutex
	peerVV     []vclock.VC // last VV heard from each same-DC partition
	gssScratch vclock.VC   // reused aggregate-min workspace

	// gcMu guards the garbage-collection exchange state.
	gcMu      sync.Mutex
	gcContrib []vclock.VC // last GC contribution per same-DC partition

	// txMu guards RO-TX coordinator state: the in-flight table and the fan-in
	// fields of its entries.
	txMu     sync.Mutex
	inflight map[uint64]*txPending // RO-TXs this server coordinates, by txID

	vvWaiters  waitList // requests blocked on VV advances
	gssWaiters waitList // requests blocked on GSS advances

	txSeq       atomic.Uint64
	suspectedAt atomic.Int64 // unix nanos of the last block timeout; 0 = never

	stopped atomic.Bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// txPending is one in-flight RO-TX at its coordinator: the snapshot vector
// the GC contribution must not overtake, and the fan-in of its slice replies.
// seen marks the partitions that already responded: transports are
// at-least-once (TCP reconnects redeliver), and a duplicate reply must not
// decrement remaining or the fan-in would complete with another partition's
// items missing.
//
// Entries are recycled through txPendingPool and never leave the package.
// Replies reach one only by looking its txID up in Server.inflight under
// txMu, so a late or duplicate reply can never touch the entry's next use.
type txPending struct {
	tv        vclock.VC       // snapshot vector; shared read-only with the slice requests
	remaining int             // slices still awaited; 0 once completed or failed
	seen      []bool          // by responder partition
	items     []msg.ItemReply // replies folded in so far (the tail of the result array)
	err       string          // first slice error
	done      chan struct{}   // 1-buffered; one token when remaining reaches 0

	// Scratch of the grouping pass, touched by the coordinating goroutine only.
	part []int // partition of each key
	end  []int // per partition: end offset of its keys in the grouped array
}

var txPendingPool = sync.Pool{New: func() any { return &txPending{done: make(chan struct{}, 1)} }}

// group sorts keys by owning partition into one freshly allocated array (a
// stable counting sort; the array is shared with the slice requests, so it is
// never pooled) and returns it with the number of partitions that own a key;
// keysOf then cuts a partition's keys out of it.
func (p *txPending) group(keys []string, partitionOf func(string) int, parts int) ([]string, int, error) {
	p.part = p.part[:0]
	p.end = slices.Grow(p.end[:0], parts)[:parts]
	clear(p.end)
	for _, k := range keys {
		q := partitionOf(k)
		if q < 0 || q >= parts {
			return nil, 0, fmt.Errorf("core: key %q routed to partition %d outside the layout (%d)", k, q, parts)
		}
		p.part = append(p.part, q)
		p.end[q]++
	}
	// Counts become start offsets; placing a partition's keys then advances
	// its offset to its end.
	owners, sum := 0, 0
	for q, c := range p.end {
		if c > 0 {
			owners++
		}
		p.end[q] = sum
		sum += c
	}
	grouped := make([]string, len(keys))
	for i, k := range keys {
		grouped[p.end[p.part[i]]] = k
		p.end[p.part[i]]++
	}
	return grouped, owners, nil
}

// keysOf returns partition q's part of the array group built.
func (p *txPending) keysOf(grouped []string, q int) []string {
	lo := 0
	if q > 0 {
		lo = p.end[q-1]
	}
	return grouped[lo:p.end[q]]
}

// NewServer builds and starts a partition server: its network handler is
// installed and its heartbeat/stabilization/GC loops are running when
// NewServer returns.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var eng storage.Engine
	var durable *storage.Durable
	var src repl.Source // stays nil without a durable log to serve from
	if cfg.DataDir == "" {
		eng = storage.New()
	} else {
		d, err := storage.OpenDurable(cfg.DataDir, cfg.DurableOptions)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		eng, durable, src = d, d, d
	}
	maxDCs := cfg.maxDCs()
	maxParts := cfg.maxPartitions()
	s := &Server{
		cfg:       cfg,
		m:         cfg.ID.DC,
		n:         cfg.ID.Partition,
		maxDCs:    maxDCs,
		maxParts:  maxParts,
		clk:       cfg.Clock,
		ep:        cfg.Endpoint,
		store:     eng,
		durable:   durable,
		mx:        cfg.Metrics,
		joined:    make(chan struct{}),
		vv:        newAtomicVC(maxDCs),
		gss:       newAtomicVC(maxDCs),
		peerVV:    make([]vclock.VC, maxParts),
		gcContrib: make([]vclock.VC, maxParts),
		inflight:  make(map[uint64]*txPending),
		stop:      make(chan struct{}),
	}
	if cfg.SlotMap != nil {
		s.slots.Store(cfg.SlotMap.Clone())
	}
	if !cfg.Joining && !cfg.Gated {
		close(s.joined)
		s.joinedOnce.Do(func() {})
	}
	s.vvWaiters.vec, s.vvWaiters.serve = s.vv, s.unpark
	s.gssWaiters.vec = s.gss
	for i := range s.peerVV {
		s.peerVV[i] = vclock.New(maxDCs)
		s.gcContrib[i] = nil // unknown until first exchange
	}
	// A recovered engine replays a version-vector floor: every entry must be
	// restored before the server goes on the network, or a read at the old
	// VV could miss versions the replayed chains already contain. The clock
	// must clear the floor too: recovered timestamps are anchored to the
	// previous process's epoch and can sit ahead of this process's wall
	// clock, and a new write assigned a timestamp below existing versions
	// would be shadowed by LWW and fall outside the catch-up protocol's
	// completion claims.
	if durable != nil {
		var maxFloor vclock.Timestamp
		for i, t := range durable.RecoveredVV() {
			// A DC the view records as departed is frozen at its final
			// timestamp: recovered state above it is the un-agreed suffix a
			// forced removal discarded, so the restored floor must not
			// resurrect it (the matching versions are dropped below).
			if cfg.Membership.Get(i) == msg.DCLeft {
				if f := cfg.Membership.FinalOf(i); f > 0 && t > f {
					t = f
				}
			}
			if i < maxDCs {
				s.vv.raiseTo(i, t)
			}
			if t > maxFloor {
				maxFloor = t
			}
		}
		cfg.Clock.AdvanceTo(maxFloor)
	}
	// Re-apply departed DCs' purges at open: a crash between a forced
	// removal's seal and the next checkpoint leaves the dropped suffix in the
	// WAL, and replay resurrects it into the chains.
	for dc := 0; dc < maxDCs; dc++ {
		if cfg.Membership.Get(dc) == msg.DCLeft {
			if f := cfg.Membership.FinalOf(dc); f > 0 {
				eng.DropAbove(dc, f)
			}
		}
	}
	// Seed transaction IDs from the clock so a restarted server never reuses
	// a prior incarnation's TxIDs: a stale pre-restart slice reply must not
	// fold into a new transaction that happens to share its ID (the
	// duplicate-partition guard cannot tell incarnations apart). Clocks are
	// monotone across in-process restarts, and transactions take far longer
	// than a nanosecond, so the new floor always clears the old range.
	s.txSeq.Store(uint64(cfg.Clock.Now()))
	// The replication manager must exist before the handler is installed
	// (inbound messages delegate to it) and after the VV floor is restored
	// (its resume floor starts at the recovered local entry).
	mgr, err := repl.NewManager(repl.Config{
		ID:                cfg.ID,
		NumDCs:            cfg.NumDCs,
		Clock:             cfg.Clock,
		Endpoint:          cfg.Endpoint,
		Backend:           (*replBackend)(s),
		HeartbeatInterval: cfg.HeartbeatInterval,
		Source:            src,
		MaxDCs:            cfg.MaxDCs,
		Joining:           cfg.Joining,
		JoinTimeout:       cfg.JoinTimeout,
		Membership:        cfg.Membership,
	})
	if err != nil {
		_ = eng.Close()
		return nil, fmt.Errorf("core: %w", err)
	}
	s.repl = mgr
	s.ep.SetHandler(s.handle)

	if cfg.StabilizationInterval > 0 {
		s.wg.Add(1)
		go s.stabilizationLoop()
	}
	if cfg.GCInterval > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// Close stops the background loops, releases every blocked request with
// ErrStopped, flushes any buffered replication and closes the storage
// engine. It does not close the shared network.
func (s *Server) Close() { s.shutdown(true) }

// Crash stops the server the way a machine failure would: the buffered
// replication tail is discarded instead of flushed, so sibling DCs lose the
// end of the update stream — the loss the catch-up protocol exists to
// repair. The storage engine still closes (in-process we must release the
// WAL files for a reopen); genuinely torn log tails are exercised by tests
// that truncate segment files on disk.
func (s *Server) Crash() { s.shutdown(false) }

func (s *Server) shutdown(flush bool) {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	// A parked slice has no goroutine watching s.stop: answer it here, so a
	// live coordinator's transaction fails instead of hanging.
	s.vvWaiters.release(true)
	s.wg.Wait()
	// On a graceful close the manager hands buffered updates to the
	// transport so siblings do not lose the tail of the update stream; on a
	// crash it drops them.
	s.repl.Close(flush)
	// The flushed versions were persisted at Insert time, so the engine can
	// close last; a durable engine syncs its log here.
	_ = s.store.Close()
}

// ID returns the server's coordinate.
func (s *Server) ID() netemu.NodeID { return s.cfg.ID }

// Store exposes the underlying storage engine for tests and seeding.
func (s *Server) Store() storage.Engine { return s.store }

// StorageErr reports the durable engine's sticky persistence error (the
// in-memory engine never fails). A non-nil error means acknowledged writes
// may not be durable: the server keeps serving from memory, but monitoring
// should treat the node as having lost its crash tolerance.
func (s *Server) StorageErr() error {
	if s.durable == nil {
		return nil
	}
	return s.durable.Err()
}

// DurableStats returns the durable engine's commit-pipeline and catch-up
// seek counters; all-zero for an in-memory server.
func (s *Server) DurableStats() storage.DurableStats {
	if s.durable == nil {
		return storage.DurableStats{}
	}
	return s.durable.DurableStats()
}

// VV returns a copy of the current version vector.
func (s *Server) VV() vclock.VC { return s.vv.snapshot() }

// ReplicationLag reports, per remote data center, how far that DC's update
// stream trails this server's own progress: the local version-vector entry
// minus the remote one, in time units (timestamps are physical
// nanoseconds). The local DC's entry is zero, as are the entries of DCs
// that are not members (never joined, or departed — a departed entry is
// frozen by design and would otherwise read as unbounded lag). A frozen
// entry (catch-up in progress) shows up as growing lag.
func (s *Server) ReplicationLag() []time.Duration {
	lag := make([]time.Duration, s.maxDCs)
	view := s.repl.View()
	local := s.vv.get(s.m)
	for dc := range lag {
		if dc == s.m || !view.IsMember(dc) {
			continue
		}
		if remote := s.vv.get(dc); remote < local {
			lag[dc] = time.Duration(local - remote)
		}
	}
	return lag
}

// Membership returns the server's current epoch-stamped membership view.
func (s *Server) Membership() msg.Membership { return s.repl.View() }

// Bootstrapped reports whether this server participates fully in
// replication: always true for ordinary members; for a server started with
// Config.Joining it turns true once every active inbound link has been
// synced via catch-up and the DC announced itself Active.
func (s *Server) Bootstrapped() bool { return s.repl.Bootstrapped() }

// AnnounceLeave announces this server's departure from the deployment: the
// replication buffer is flushed and a LeaveNotice follows it on every link,
// so sibling DCs hold the complete local history and drop this DC from
// their fan-out. The server keeps serving until Close; it returns the final
// announced timestamp.
func (s *Server) AnnounceLeave() vclock.Timestamp { return s.repl.Leave() }

// CatchUpStats returns the replication manager's catch-up counters.
func (s *Server) CatchUpStats() repl.Stats { return s.repl.Stats() }

// LinkStates reports the health of every inbound replication link by DC id
// (see repl.LinkState).
func (s *Server) LinkStates() []repl.LinkState { return s.repl.LinkStates() }

// GCHoldbackAge reports how long the oldest live GC holdback (a frozen,
// catching-up or joining link deferring this server's GC contribution) has
// been held, or 0 when none is.
func (s *Server) GCHoldbackAge() time.Duration { return s.repl.HoldbackAge() }

// JoinFailed reports whether a Joining server gave up soliciting the
// deployment (Config.JoinTimeout elapsed before the bootstrap completed).
func (s *Server) JoinFailed() bool { return s.repl.JoinFailed() }

// ForceRemove coordinates the forced removal of a crashed data center: the
// survivors agree on the highest update timestamp each of them holds from
// dead, freeze its membership entry at that final, and discard any version
// above it. It returns the agreed final timestamp. The caller must be sure
// dead is actually gone — evicting a live DC discards its un-replicated
// suffix (it can re-join under a fresh id). timeout bounds the proposal
// round (0 selects a default).
func (s *Server) ForceRemove(dead int, timeout time.Duration) (vclock.Timestamp, error) {
	return s.repl.ProposeEvict(dead, timeout)
}

// GSS returns a copy of the current globally stable snapshot.
func (s *Server) GSS() vclock.VC { return s.gss.snapshot() }

// GSSLag reports how far the globally-stable snapshot trails this node's own
// visibility: the largest per-member-DC gap between the VV and GSS entries,
// as a physical duration. It is the stable-visibility penalty a pessimistic
// read pays on top of replication, and the stabilization benchmark's third
// axis (bytes/version, remote visibility, GSS lag). Zero when stabilization
// is disabled.
func (s *Server) GSSLag() time.Duration {
	if s.cfg.StabilizationInterval <= 0 {
		return 0
	}
	view := s.repl.View()
	vv, gss := s.vv.snapshot(), s.gss.snapshot()
	var lag time.Duration
	for d := range vv {
		if !view.IsMember(d) {
			continue
		}
		if v, g := vv.Get(d).Physical(), gss.Get(d).Physical(); v > g {
			if l := time.Duration(v - g); l > lag {
				lag = l
			}
		}
	}
	return lag
}

// SlotTable returns the server's current slot table (nil under the static
// layout). The returned map is immutable — callers must not modify it.
func (s *Server) SlotTable() *keyspace.SlotMap { return s.slots.Load() }

// SlotEpoch returns the epoch of the current slot table (0 under the static
// layout).
func (s *Server) SlotEpoch() uint64 {
	if sm := s.slots.Load(); sm != nil {
		return sm.Epoch
	}
	return 0
}

// liveParts is the number of partition servers currently live in this DC:
// the slot table's count when it exceeds the configured layout (a split
// grew the DC after this server started), clamped to the reserved capacity.
func (s *Server) liveParts() int {
	n := s.cfg.NumPartitions
	if sm := s.slots.Load(); sm != nil && sm.Parts > n {
		n = sm.Parts
	}
	if n > s.maxParts {
		n = s.maxParts
	}
	return n
}

// ownsKey reports whether this server currently owns the key's slot. Under
// the static layout (nil table) every key the old hash routed here is
// accepted unchecked — the pre-reshard behavior.
func (s *Server) ownsKey(key string) bool {
	sm := s.slots.Load()
	return sm == nil || int(sm.Owner[keyspace.SlotOf(key)]) == s.n
}

// InstallSlotMap folds a slot table into the server's own by the lattice
// merge and, when the merge changed anything, gossips the merged table to
// the same-DC partitions and the cross-DC siblings. Because the merge is
// idempotent, the gossip converges: a receiver that learns nothing new
// re-sends nothing. It returns whether the local table changed.
func (s *Server) InstallSlotMap(m *keyspace.SlotMap) bool {
	if m == nil || s.stopped.Load() {
		return false
	}
	s.slotMu.Lock()
	cur := s.slots.Load()
	var merged *keyspace.SlotMap
	changed := false
	if cur == nil {
		merged, changed = m.Clone(), true
	} else {
		merged = cur.Clone()
		changed = merged.Merge(m)
	}
	if changed {
		// Store under the replication manager's outbound lock — the same
		// lock PrepareLocal checks ownership under — so the install is a
		// hard fence: when it returns, every write the old table admitted
		// has committed and raised the local VV entry, and the reshard's
		// drain marks (captured after the install) provably cover the old
		// layout's entire output.
		s.repl.Locked(func() { s.slots.Store(merged) })
	}
	s.slotMu.Unlock()
	if !changed {
		return false
	}
	// Same-DC fan-out first (routing within the DC is what the table
	// protects), then the sibling in every member DC.
	for p := 0; p < s.liveParts(); p++ {
		if p != s.n {
			s.ep.Send(netemu.NodeID{DC: s.m, Partition: p}, msg.SlotMapUpdate{Map: merged})
		}
	}
	view := s.repl.View()
	for dc := 0; dc < s.maxDCs; dc++ {
		if dc != s.m && view.IsMember(dc) {
			s.ep.Send(netemu.NodeID{DC: dc, Partition: s.n}, msg.SlotMapUpdate{Map: merged})
		}
	}
	return true
}

// ReleaseGate opens the stabilization gate of a server started with
// Config.Gated: its history bootstrap (the reshard copy) is complete, so its
// version vector may now feed the DC's GSS. Idempotent.
func (s *Server) ReleaseGate() { s.joinedOnce.Do(func() { close(s.joined) }) }

// AdvanceClock lifts the server's physical clock to at least t. The reshard
// copy uses it so a new slot owner never assigns an update timestamp below a
// version it inherited from the donor — LWW would shadow the new write and
// the catch-up protocol's completion claims would not cover it.
func (s *Server) AdvanceClock(t vclock.Timestamp) { s.clk.AdvanceTo(t) }

// SeedVV raises the server's version-vector entries to at least vv and wakes
// any requests the advance unblocks — the reshard bootstrap claim. It is only
// sound when the caller has installed into this server every version with a
// timestamp at or below vv whose key this server's slot table routes here:
// for a freshly split owner that is the donor's VV after the drain, because
// the copied history is complete for exactly the moved slots and nothing else
// resolves to the new owner.
func (s *Server) SeedVV(vv vclock.VC) {
	woke := false
	for dc, t := range vv {
		if dc >= 0 && dc < s.maxDCs && s.vv.raiseTo(dc, t) {
			woke = true
		}
	}
	if woke {
		s.vvWaiters.wake()
	}
}

// Suspected reports whether the server recently suspected a network
// partition (a blocked request hit the block timeout). HA-POCC clients use
// it to decide when to promote sessions back to the optimistic protocol.
func (s *Server) Suspected() bool {
	at := s.suspectedAt.Load()
	if at == 0 {
		return false
	}
	window := 4 * s.cfg.BlockTimeout
	if window <= 0 {
		window = time.Second
	}
	return time.Since(time.Unix(0, at)) < window
}

// ---------------------------------------------------------------------------
// Client-facing operations
// ---------------------------------------------------------------------------

// Get serves a GET(k) with the client's read dependency vector (Algorithm 2,
// lines 1-4). Under Optimistic it blocks until VV covers rdv on every remote
// entry, then returns the freshest version. Under Pessimistic it waits until
// the GSS covers rdv, then returns the freshest stable version.
func (s *Server) Get(key string, rdv vclock.VC, mode Mode) (msg.ItemReply, error) {
	var reply msg.ItemReply
	if !s.ownsKey(key) {
		return reply, ErrWrongSlotEpoch
	}
	var res storage.ReadResult
	blocked, err := func() (time.Duration, error) {
		if mode == Pessimistic {
			blocked, err := s.waitGSS(rdv, s.m)
			if err != nil {
				return blocked, err
			}
			gss := s.gss.snapshot()
			res = s.store.ReadVisible(key, s.pessimisticVisible(gss))
			return blocked, nil
		}
		blocked, err := s.waitVV(rdv, s.m)
		if err != nil {
			return blocked, err
		}
		res = s.store.ReadVisible(key, nil)
		return blocked, nil
	}()
	s.mx.GetBlocking.Record(blocked)
	if err != nil {
		return reply, err
	}
	s.mx.GetStale.Record(res.Fresher, res.Invisible)
	return msg.FromVersion(key, res.V, res.Fresher, res.Invisible), nil
}

// Put serves a PUT(k, v) with the client's dependency vector (Algorithm 2,
// lines 5-15): optionally wait until the server's state covers the client's
// dependencies, wait until the local clock exceeds every dependency, assign
// the update timestamp, store the version, and replicate it asynchronously
// in timestamp order (buffered; see flushRepBufLocked).
//
// The server takes ownership of value and dv — they become the new version's
// payload and dependency vector, shared with every replica of an emulated
// deployment — so callers must not mutate either after the call. The copy
// that protects a caller's buffer is made once, where one is needed: the
// in-process session's Put (client.Session); a front-door PUT's key and value
// left their frame together, in one private copy (wire's Detach).
func (s *Server) Put(key string, value []byte, dv vclock.VC, mode Mode) (vclock.Timestamp, error) {
	if !s.ownsKey(key) {
		return 0, ErrWrongSlotEpoch
	}
	var blocked time.Duration
	if s.cfg.PutDepWait {
		var err error
		blocked, err = s.waitVV(dv, s.m)
		if err != nil {
			s.mx.PutBlocking.Record(blocked)
			return 0, err
		}
	}
	s.mx.PutBlocking.Record(blocked)

	// Ensure the new version's timestamp exceeds all its dependencies (the
	// clock-wait of Algorithm 2, line 7). A raw physical clock sleeps out
	// the skew; a hybrid clock waits on the physical component only and
	// satisfies the ordering with a logical bump, so skewed writers pay
	// nothing here.
	s.clk.SleepUntilAfter(dv.MaxEntry())

	if value == nil {
		value = []byte{} // a nil payload reads back as "no such key"
	}
	d := &item.Version{
		Key:        key,
		Value:      value,
		SrcReplica: s.m,
		Deps:       dv,
		Optimistic: mode == Optimistic,
	}
	if d.Deps == nil {
		d.Deps = vclock.New(s.maxDCs)
	}

	// Publish runs the write path under the replication manager's outbound
	// lock: timestamp assignment, storage insert and the local VV advance
	// (PrepareLocal below) stay atomic with enqueueing for replication, so
	// per-link FIFO order matches timestamp order. Slot ownership is
	// re-checked there too — the lock-free check above is only a fast path,
	// and a reshard's fence is sound only if no write can commit under a
	// table that InstallSlotMap (which serializes on the same lock) already
	// replaced.
	ut, err := s.repl.Publish(d)
	if err != nil {
		if err == ErrWrongSlotEpoch {
			return 0, ErrWrongSlotEpoch
		}
		return 0, ErrStopped
	}
	s.vvWaiters.wake()
	return ut, nil
}

// replBackend adapts the server to the replication manager's Backend
// interface without polluting the Server API (a plain type conversion, no
// allocation).
type replBackend Server

// PrepareLocal is the under-lock half of Put: re-check slot ownership (the
// authoritative check — Put's lock-free one only fast-fails; a reshard
// installs its fencing table through the same lock, so a write that loaded
// the old table but commits here after the install would otherwise escape
// the drain marks), assign the update timestamp, install the version
// (insert before advancing VV so a reader at the new VV finds it) and raise
// the local entry. Callers wake the VV waiters after the manager releases
// its lock.
func (b *replBackend) PrepareLocal(v *item.Version) (vclock.Timestamp, error) {
	s := (*Server)(b)
	if s.stopped.Load() {
		return 0, ErrStopped
	}
	if !s.ownsKey(v.Key) {
		return 0, ErrWrongSlotEpoch
	}
	ut := s.clk.Now()
	v.UpdateTime = ut
	s.store.Insert(v)
	// A durable engine drops the insert when its log append fails (a crash or
	// sticky persistence error): the version must then not be acknowledged,
	// claimed by the local VV entry, or enqueued for replication — any of
	// those would let the causal order observe a version no replica durably
	// holds, a hole no catch-up can repair.
	if s.durable != nil && s.durable.Err() != nil {
		return 0, ErrStopped
	}
	s.vv.raiseTo(s.m, ut)
	return ut, nil
}

// ApplyRemote installs a batch of remote versions under one shard pass.
// slotEpoch is the sender's slot-table epoch when the batch was cut: when it
// trails this server's table, the batch may contain versions of slots a
// reshard has since moved away, so after the local insert (this server's VV
// claims still require it to hold the stream) those versions are forwarded
// to their current in-DC owner as an idempotent SlotHandoff. The reshard
// protocol's drain makes this path rare; it exists so a batch in flight
// across the epoch flip cannot strand versions on the old owner.
func (b *replBackend) ApplyRemote(vs []*item.Version, slotEpoch uint64) {
	s := (*Server)(b)
	s.store.InsertBatch(vs)
	sm := s.slots.Load()
	if sm == nil || slotEpoch >= sm.Epoch {
		return
	}
	var byOwner map[int][]*item.Version
	for _, v := range vs {
		if o := int(sm.Owner[keyspace.SlotOf(v.Key)]); o != s.n {
			if byOwner == nil {
				byOwner = make(map[int][]*item.Version)
			}
			byOwner[o] = append(byOwner[o], v)
		}
	}
	for o, fw := range byOwner {
		s.ep.Send(netemu.NodeID{DC: s.m, Partition: o}, msg.SlotHandoff{Versions: fw})
	}
}

// SlotEpoch stamps outgoing replication batches and catch-up chunks with
// the sender's slot-table epoch (see ApplyRemote).
func (b *replBackend) SlotEpoch() uint64 { return (*Server)(b).SlotEpoch() }

// DropAbove discards src-originated versions above after — the forced-removal
// purge of a departed DC's un-agreed suffix.
func (b *replBackend) DropAbove(dc int, after vclock.Timestamp) int {
	return (*Server)(b).store.DropAbove(dc, after)
}

// VVEntry returns one version-vector entry, lock-free.
func (b *replBackend) VVEntry(dc int) vclock.Timestamp {
	return (*Server)(b).vv.get(dc)
}

// RaiseVV lifts one version-vector entry and wakes the requests the advance
// unblocks.
func (b *replBackend) RaiseVV(dc int, t vclock.Timestamp) {
	s := (*Server)(b)
	if s.vv.raiseTo(dc, t) {
		s.vvWaiters.wake()
	}
}

// Joined releases the stabilization loop of a joining server: its bootstrap
// is complete, so its version vector may now feed the GSS.
func (b *replBackend) Joined() {
	s := (*Server)(b)
	s.joinedOnce.Do(func() { close(s.joined) })
}

// ROTx coordinates a causally consistent read-only transaction (Algorithm 2,
// lines 29-38): compute the snapshot vector TV, fan SliceReqs out to the
// partitions holding the keys, and gather the replies. The first slice error
// fails the transaction without waiting for the remaining slices. The
// returned slice is the caller's: one reply per requested key, grouped by
// partition in no particular order.
func (s *Server) ROTx(keys []string, rdv vclock.VC, mode Mode, partitionOf func(string) int) ([]msg.ItemReply, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	p := txPendingPool.Get().(*txPending)
	grouped, owners, err := p.group(keys, partitionOf, s.maxParts)
	if err != nil {
		txPendingPool.Put(p)
		return nil, err
	}
	p.seen = slices.Grow(p.seen[:0], s.maxParts)[:s.maxParts]
	clear(p.seen)

	// Snapshot boundary: the optimistic protocol snapshots what the
	// coordinator has *received* (VV); the pessimistic one snapshots what is
	// *stable* (GSS). Both include the client's history (rdv).
	//
	// tv is computed and registered under txMu so it serializes against
	// localGCContribution: either the GC pass sees this transaction in the
	// in-flight table, or it snapshotted the visibility vector before we did
	// — in which case tv covers the GC base and no version inside the
	// snapshot can be pruned.
	txID := s.txSeq.Add(1)
	s.txMu.Lock()
	if s.stopped.Load() {
		s.txMu.Unlock()
		txPendingPool.Put(p)
		return nil, ErrStopped
	}
	var tv vclock.VC
	if mode == Pessimistic {
		tv = s.gss.snapshot()
	} else {
		tv = s.vv.snapshot()
	}
	tv.MaxInPlace(rdv)
	// The fan-in appends every slice's items to the result, the caller's.
	p.tv, p.remaining, p.items = tv, owners, make([]msg.ItemReply, 0, len(keys))
	s.inflight[txID] = p
	s.txMu.Unlock()

	// One array of requests per transaction, never pooled: a sibling may
	// still hold a parked one after this transaction has failed.
	reqs := make([]msg.SliceReq, 0, owners)
	for q := range p.end {
		ks := p.keysOf(grouped, q)
		if len(ks) == 0 {
			continue
		}
		reqs = append(reqs, msg.SliceReq{TxID: txID, Coordinator: s.cfg.ID, Keys: ks, TV: tv})
		if req := &reqs[len(reqs)-1]; q == s.n {
			s.serveSlice(s.cfg.ID, req) // the coordinator's own: reads now, or parks
		} else {
			s.ep.Send(netemu.NodeID{DC: s.m, Partition: q}, req)
		}
	}

	select {
	case <-p.done:
	case <-s.stop:
		err = ErrStopped
	}

	// Off the table no reply can reach p any more, so it can be recycled —
	// once a completion token nobody waited for (the early exit above) is out
	// of the channel.
	s.txMu.Lock()
	delete(s.inflight, txID)
	if err == nil {
		err = sliceError(p.err)
	}
	result := p.items
	p.tv, p.items, p.err = nil, nil, ""
	s.txMu.Unlock()
	select {
	case <-p.done:
	default:
	}
	txPendingPool.Put(p)

	if err != nil {
		return nil, err
	}
	return result, nil
}

// sliceError maps a slice reply's error string back to its sentinel, so
// callers can errors.Is it (slice errors cross the wire as strings).
func sliceError(e string) error {
	switch e {
	case "":
		return nil
	case ErrSessionClosed.Error():
		return ErrSessionClosed
	case ErrStopped.Error():
		return ErrStopped
	case ErrWrongSlotEpoch.Error():
		return ErrWrongSlotEpoch
	}
	return errors.New(e)
}

// ---------------------------------------------------------------------------
// Network message handling
// ---------------------------------------------------------------------------

func (s *Server) handle(src netemu.NodeID, m any) {
	if s.stopped.Load() {
		// A stopped (crashed, or departed) server receives nothing: racing
		// senders that have not yet processed the shutdown must not reach a
		// half-closed engine.
		return
	}
	switch mm := m.(type) {
	case msg.ReplicateBatch:
		s.repl.HandleBatch(src, mm)
	case msg.Heartbeat:
		s.repl.HandleHeartbeat(src, mm)
	case msg.CatchUpRequest:
		s.repl.HandleCatchUpRequest(src, mm)
	case msg.CatchUpReply:
		s.repl.HandleCatchUpReply(src, mm)
	case msg.CatchUpAck:
		s.repl.HandleCatchUpAck(src, mm)
	case msg.JoinRequest:
		s.repl.HandleJoinRequest(src, mm)
	case msg.JoinAccept:
		s.repl.HandleJoinAccept(src, mm)
	case msg.MembershipUpdate:
		s.repl.HandleMembershipUpdate(src, mm)
	case msg.LeaveNotice:
		s.repl.HandleLeaveNotice(src, mm)
	case msg.EvictProposal:
		s.repl.HandleEvictProposal(src, mm)
	case msg.EvictAck:
		s.repl.HandleEvictAck(src, mm)
	case msg.EvictNotice:
		s.repl.HandleEvictNotice(src, mm)
	case msg.VVExchange:
		s.applyVVExchange(mm)
	case msg.GCExchange:
		s.applyGCExchange(mm)
	case msg.SlotMapUpdate:
		s.InstallSlotMap(mm.Map)
	case msg.SlotHandoff:
		// Idempotent store inserts only: the forwarder cannot vouch for the
		// origins' gap-free prefixes, so the VV must not move here.
		s.store.InsertBatch(mm.Versions)
	case *msg.SliceReq:
		s.serveSlice(src, mm) // never blocks the link: reads now, or parks
	case *msg.SliceResp:
		s.applySliceResp(src.Partition, mm)
	}
}

// applyVVExchange records a same-DC peer's version vector and recomputes the
// GSS as the aggregate minimum (§IV-C).
//
// A lean exchange (VV nil, Watermark set) raises the already-nonzero entries
// of the sender's last known full vector to the watermark. Safety of the
// fold — no entry may ever exceed the sender's true VV entry — follows from
// three facts:
//
//  1. The sender computed the watermark as the minimum over its nonzero
//     member entries, so for every DC that is still a member, watermark ≤
//     that entry of the sender's VV. An entry nonzero in our (older) copy is
//     necessarily nonzero at the (monotone) sender, hence in that minimum.
//  2. An entry that is zero in our copy is never raised, so a DC that joined
//     after the sender's last full exchange stays conservatively at zero
//     until the next full vector arrives (bounded by leanFullVVEvery ticks).
//  3. A DC departed since our copy was taken has a frozen final timestamp;
//     raising its entry past the final is vacuous — the leave/evict
//     protocols guarantee no version beyond the final exists anywhere.
//
// A watermark arriving before any full vector has nothing to fold into and
// is dropped; the sender's periodic full exchanges repair this.
func (s *Server) applyVVExchange(m msg.VVExchange) {
	if m.Partition < 0 || m.Partition >= s.maxParts {
		return
	}
	s.gssMu.Lock()
	if m.VV == nil {
		if pv := s.peerVV[m.Partition]; pv != nil {
			for i, t := range pv {
				if t > 0 && m.Watermark > t {
					pv[i] = m.Watermark
				}
			}
			s.recomputeGSSLocked()
		}
	} else {
		// Copy rather than alias: the sender broadcasts one VV slice to every
		// same-DC peer, and the watermark fold above writes into peerVV
		// entries — mutating the shared message would race with the other
		// receivers.
		s.peerVV[m.Partition] = s.peerVV[m.Partition].CopyFrom(m.VV)
		s.recomputeGSSLocked()
	}
	s.gssMu.Unlock()
}

// recomputeGSSLocked folds the freshest known VV of every partition in the
// DC (including this node's own) into the GSS. Entries are raised
// individually: every input only grows, so the aggregate minimum is monotone
// per entry. Called with gssMu held.
func (s *Server) recomputeGSSLocked() {
	s.peerVV[s.n] = s.vv.load(s.peerVV[s.n])
	// Fold only the live partitions: the reserved tail (split headroom) has
	// never spoken and would pin the aggregate minimum at zero. A partition
	// that just went live contributes its zero vector until its first
	// exchange arrives — the GSS merely stalls (it is monotone), it cannot
	// regress.
	live := s.peerVV[:s.liveParts()]
	min := s.gssScratch.CopyFrom(live[0])
	for _, v := range live[1:] {
		min.MinInPlace(v)
	}
	s.gssScratch = min
	advanced := false
	for i, t := range min {
		if s.gss.raiseTo(i, t) {
			advanced = true
		}
	}
	if advanced {
		s.gssWaiters.wake()
	}
}

// applyGCExchange records a peer's GC contribution; when contributions from
// every partition are known, prune with their aggregate minimum.
func (s *Server) applyGCExchange(m msg.GCExchange) {
	if m.Partition < 0 || m.Partition >= s.maxParts {
		return
	}
	s.gcMu.Lock()
	s.gcContrib[m.Partition] = m.TV
	gv := s.gcVectorLocked()
	s.gcMu.Unlock()
	if gv != nil {
		s.store.CollectGarbage(gv)
	}
}

// gcVectorLocked returns the DC-wide GC vector, or nil if some partition has
// not contributed yet. Called with gcMu held.
func (s *Server) gcVectorLocked() vclock.VC {
	s.gcContrib[s.n] = s.localGCContribution()
	live := s.gcContrib[:s.liveParts()]
	vs := make([]vclock.VC, 0, len(live))
	for _, c := range live {
		if c == nil {
			return nil
		}
		vs = append(vs, c)
	}
	return vclock.AggregateMin(vs)
}

// localGCContribution is the node's GC input: the minimum of its
// visibility vector (VV for optimistic deployments, GSS when stabilization
// runs) and the snapshot vectors of its active transactions. Taking the
// minimum (rather than the paper's "aggregate maximum" wording) is the
// conservative-safe choice: the GC vector never overtakes a snapshot an
// active transaction may still read (see DESIGN.md §3).
func (s *Server) localGCContribution() vclock.VC {
	// The base snapshot is taken under txMu (see ROTx): a transaction not
	// yet in the in-flight table is guaranteed to compute a tv covering this
	// base.
	s.txMu.Lock()
	var base vclock.VC
	if s.cfg.StabilizationInterval > 0 {
		base = s.gss.snapshot()
	} else {
		base = s.vv.snapshot()
	}
	for _, p := range s.inflight {
		base.MinInPlace(p.tv)
	}
	s.txMu.Unlock()
	// Clamp to the replication plane's holdback floors: a frozen or
	// catching-up link must not have the history it still needs pruned out
	// from under its resume point (bounded by GCMaxHoldback).
	c := s.repl.ClampGC(base, s.gcMaxHoldback())
	// A contribution is a promise about this node's post-crash state: the
	// DC prunes to the aggregate of these vectors, so a restart must never
	// recover a VV below one — heartbeat-attested entries with no backing
	// version record would otherwise collapse to the last stored version
	// and hand out snapshot vectors under the prune point (see
	// Durable.AttestVV). Persist the vector before sharing it; if the log
	// is sticky-failed, contribute the last durable attestation instead.
	if s.durable != nil {
		c = s.durable.AttestVV(c)
	}
	return c
}

// gcMaxHoldback resolves Config.GCMaxHoldback: 0 selects the default,
// negative means hold back forever.
func (s *Server) gcMaxHoldback() time.Duration {
	if s.cfg.GCMaxHoldback == 0 {
		return defaultGCMaxHoldback
	}
	return s.cfg.GCMaxHoldback
}

// serveSlice executes a transactional slice read (Algorithm 2, lines 39-47):
// once this node has installed every update in the snapshot, read the
// freshest version of each key within TV. It never blocks its caller (a link,
// or the coordinator): the local DC's entry it satisfies itself, by a
// heartbeat tick's effect on demand (doc.go, "Hybrid clocks", argues it); a
// snapshot covered then is answered here; otherwise remote updates are
// missing, and the request parks for whoever advances the vector (unpark).
//
// Visibility within a slice is exactly Deps ≤ TV for both protocols: the
// snapshot vector already encodes the protocol's visibility rule (the
// coordinator builds it from its VV for optimistic transactions and from
// its GSS for pessimistic ones, plus the client's history either way).
// Re-checking stability against this server's own GSS — which may lag the
// coordinator's — would hide versions that are inside the snapshot and
// break the transaction's causal cut (the seed's flaky Cure* stress
// failure).
func (s *Server) serveSlice(src netemu.NodeID, req *msg.SliceReq) {
	if !s.ownsAll(req.Keys) {
		// The coordinator routed this slice with a stale slot table; the
		// whole transaction retries after a refresh.
		s.replySlice(src, req, ErrWrongSlotEpoch)
		return
	}
	if need := req.TV.Get(s.m); need > s.vv.get(s.m) {
		s.clk.Observe(need)
		s.repl.Locked(func() {
			if t := s.clk.Now(); t >= need {
				s.vv.raiseTo(s.m, t)
			}
		})
		s.vvWaiters.wake() // after the lock is released, as a PUT does
	}
	if s.vv.covers(req.TV, -1) {
		s.mx.TxBlocking.Record(0)
		s.replySlice(src, req, nil)
		return
	}
	if req.TV.Get(s.m) > s.vv.get(s.m) {
		s.mx.TxParkLocal.Add(1)
	} else {
		s.mx.TxParkRemote.Add(1)
	}
	w := waiterPool.Get().(*waiter)
	w.need, w.skip, w.req, w.src, w.parked = req.TV, -1, req, src, time.Now()
	l := &s.vvWaiters
	l.mu.Lock()
	if s.cfg.BlockTimeout > 0 {
		// Armed under the list lock: the callback cannot look for w before it
		// is on the list. Whoever takes w off the list serves it.
		w.timer = time.AfterFunc(s.cfg.BlockTimeout, func() {
			if l.remove(w) {
				s.suspectedAt.Store(time.Now().UnixNano())
				s.unpark(w, ErrSessionClosed)
			}
		})
	}
	l.ws = append(l.ws, w)
	l.active.Store(int32(len(l.ws)))
	l.mu.Unlock()
	// Re-check after registration, as waitOn does: an advance of the vector
	// or a shutdown in between saw no waiter.
	l.release(s.stopped.Load())
}

// unpark ends a parked slice whose waiter the caller took off the list: the
// goroutine that advanced the vector or shut down (err nil), or the timer.
func (s *Server) unpark(w *waiter, err error) {
	if err == nil && s.stopped.Load() {
		err = ErrStopped
	}
	s.mx.TxBlocking.Record(time.Since(w.parked))
	s.replySlice(w.src, w.req, err)
	// A timer past stopping may still run its callback against w: such a
	// waiter is left to the collector, not reused.
	if w.timer == nil || w.timer.Stop() {
		w.need, w.req, w.timer = nil, nil, nil
		waiterPool.Put(w)
	}
}

// replySlice answers a slice however it got here: with the freshest version
// within TV of every key (the caller has established that VV covers TV) or
// with the error that ended it. The pooled reply is the receiver's to release.
func (s *Server) replySlice(src netemu.NodeID, req *msg.SliceReq, err error) {
	resp := msg.NewSliceResp(req.TxID)
	if err != nil {
		resp.Err = err.Error()
	} else {
		for _, k := range req.Keys {
			res := s.store.ReadWithin(k, req.TV)
			s.mx.TxStale.Record(res.Fresher, res.Invisible)
			resp.Items = append(resp.Items, msg.FromVersion(k, res.V, res.Fresher, res.Invisible))
		}
	}
	if src == s.cfg.ID {
		s.applySliceResp(s.n, resp)
		return
	}
	s.ep.Send(src, resp)
}

func (s *Server) ownsAll(keys []string) bool {
	for _, k := range keys {
		if !s.ownsKey(k) {
			return false
		}
	}
	return true
}

// applySliceResp folds partition from's slice reply into the coordinator's
// fan-in and releases it: the items are copied into the result. The fan-in
// completes when the last slice has replied or the first one fails — the
// slices still out then answer to a finished transaction and are dropped here.
func (s *Server) applySliceResp(from int, m *msg.SliceResp) {
	defer m.Release()
	s.txMu.Lock()
	defer s.txMu.Unlock()
	p, ok := s.inflight[m.TxID]
	if !ok || p.remaining == 0 {
		// Transaction already completed or failed.
		return
	}
	if from < 0 || from >= len(p.seen) || p.seen[from] {
		// Duplicate delivery (TCP reconnects are at-least-once): this
		// partition's items are already folded in.
		return
	}
	p.seen[from] = true
	if m.Err != "" {
		p.err = m.Err
		p.remaining = 0
	} else {
		p.items = append(p.items, m.Items...)
		p.remaining--
	}
	if p.remaining == 0 {
		p.done <- struct{}{} // never blocks: remaining reaches 0 once per use
	}
}

// ---------------------------------------------------------------------------
// Background loops
// ---------------------------------------------------------------------------

// stabilizationLoop periodically broadcasts this node's VV to its same-DC
// peers so everyone can maintain the GSS (§IV-C).
func (s *Server) stabilizationLoop() {
	defer s.wg.Done()
	// A joining server enters the GSS protocol only after its bootstrap: its
	// version vector is a hole until catch-up fills it, and the GSS is an
	// aggregate minimum — one half-bootstrapped contributor would stall
	// stable visibility for the whole data center.
	select {
	case <-s.joined:
	case <-s.stop:
		return
	}
	t := time.NewTicker(s.cfg.StabilizationInterval)
	defer t.Stop()
	tick := 0
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		vv := s.vv.snapshot()
		s.gssMu.Lock()
		s.recomputeGSSLocked()
		s.gssMu.Unlock()
		out := msg.VVExchange{Partition: s.n, VV: vv}
		if s.cfg.LeanStabilization && tick%leanFullVVEvery != 0 {
			if w := s.stableWatermark(vv); w > 0 {
				out = msg.VVExchange{Partition: s.n, Watermark: w}
			}
		}
		tick++
		for p := 0; p < s.liveParts(); p++ {
			if p != s.n {
				s.ep.Send(netemu.NodeID{DC: s.m, Partition: p}, out)
			}
		}
	}
}

// leanFullVVEvery is the cadence of full-vector exchanges under lean
// stabilization: one full VV establishes/refreshes the per-entry baseline,
// then leanFullVVEvery-1 scalar watermark ticks ride on it.
const leanFullVVEvery = 16

// stableWatermark computes the scalar attestation a lean stabilization tick
// broadcasts: the minimum over the node's nonzero VV entries of member DCs.
// Zero entries (a member with no shipped data yet, typically a fresh joiner)
// are excluded — including them would pin the watermark at zero — which is
// safe because receivers never raise a zero entry from a watermark. Departed
// DCs are excluded so their frozen final timestamps do not pin the watermark
// in the past. Returns 0 when no entry qualifies; the caller then falls back
// to a full-vector exchange.
func (s *Server) stableWatermark(vv vclock.VC) vclock.Timestamp {
	view := s.repl.View()
	var w vclock.Timestamp
	for d, t := range vv {
		if t == 0 || !view.IsMember(d) {
			continue
		}
		if w == 0 || t < w {
			w = t
		}
	}
	return w
}

// gcLoop periodically broadcasts this node's GC contribution and prunes with
// the DC-wide minimum when known.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.gcMu.Lock()
		contrib := s.localGCContribution()
		gv := s.gcVectorLocked()
		s.gcMu.Unlock()
		for p := 0; p < s.liveParts(); p++ {
			if p != s.n {
				s.ep.Send(netemu.NodeID{DC: s.m, Partition: p}, msg.GCExchange{Partition: s.n, TV: contrib})
			}
		}
		if gv != nil {
			s.store.CollectGarbage(gv)
		}
	}
}

// ---------------------------------------------------------------------------
// Blocking machinery
// ---------------------------------------------------------------------------

// waitVV blocks until the version vector covers need on every entry except
// skip. It returns how long the caller was blocked. With a BlockTimeout
// configured, a wait that exceeds it marks the server suspected and returns
// ErrSessionClosed (the HA-POCC recovery trigger).
func (s *Server) waitVV(need vclock.VC, skip int) (time.Duration, error) {
	return s.waitOn(&s.vvWaiters, need, skip)
}

// waitGSS blocks until the GSS covers need on every entry except skip.
func (s *Server) waitGSS(need vclock.VC, skip int) (time.Duration, error) {
	return s.waitOn(&s.gssWaiters, need, skip)
}

func (s *Server) waitOn(l *waitList, need vclock.VC, skip int) (time.Duration, error) {
	if s.stopped.Load() {
		return 0, ErrStopped
	}
	// Lock-free fast path: the vector already covers the dependencies.
	if l.vec.covers(need, skip) {
		return 0, nil
	}
	w := waiterPool.Get().(*waiter)
	w.need, w.skip = need, skip
	l.add(w)
	// Re-check after registration: a writer that advanced the vector between
	// the fast-path check and add would have seen an empty wait list. wake
	// also releases any other now-satisfied waiter, which is harmless.
	l.wake()

	start := time.Now()
	var timeout <-chan time.Time
	if s.cfg.BlockTimeout > 0 {
		timer := time.NewTimer(s.cfg.BlockTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	var err error
	select {
	case <-w.wake:
	case <-s.stop:
		err = ErrStopped
	case <-timeout:
		err = ErrSessionClosed
	}
	if err != nil && !l.remove(w) {
		// Released concurrently with the stop or the timer: prefer success,
		// and take the token so the recycled waiter starts empty.
		<-w.wake
		err = nil
	}
	w.need = nil
	waiterPool.Put(w)
	if err == ErrSessionClosed {
		s.suspectedAt.Store(time.Now().UnixNano())
	}
	return time.Since(start), err
}

// pessimisticVisible returns the Cure* visibility predicate for the given
// GSS snapshot: stable versions (deps covered by the GSS) are visible; local
// versions written by pessimistic sessions are always visible; local versions
// written by optimistic sessions need stability (HA-POCC, §IV-C).
func (s *Server) pessimisticVisible(gss vclock.VC) func(*item.Version) bool {
	return func(v *item.Version) bool {
		if v.Deps.LessEq(gss) {
			return true
		}
		return v.SrcReplica == s.m && !v.Optimistic
	}
}
