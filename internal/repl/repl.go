// Package repl is the replication plane of a partition server: it owns the
// outbound update stream to the sibling replicas in the other data centers
// and the inbound bookkeeping that decides when a received update stream is
// trustworthy enough to advance the version vector.
//
// Every message of the plane enters through one door, Manager.Handle. Each
// part is one file, headed by the design argument it implements:
//
//   - outbound.go: the local write path, the one flush cadence, heartbeats.
//   - inbound.go: sequenced streams — a link's receiver-side state machine
//     (its transition table), gap detection, the catch-up client.
//   - serve.go: WAL-shipped catch-up from the serving side, and the
//     garbage-collection holdbacks owed to the laggards it serves.
//   - membership.go: the epoch-stamped view, the fan-out, joins and leaves.
//   - evict.go: forced removal of a crashed DC.
package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// Backend is the surface the manager needs from its partition server. All
// methods must be safe for concurrent use; PrepareLocal is invoked under the
// manager's outbound lock so the assigned timestamps leave each link in
// order.
type Backend interface {
	// PrepareLocal assigns v its update timestamp, installs it in storage
	// and raises the local version-vector entry — the write-path work that
	// must be atomic with enqueueing v for replication. A non-nil error
	// (surfaced verbatim by Publish, with nothing done) means the backend
	// refused the write: it has stopped, or its slot table no longer routes
	// v's key here. The ownership check lives in this under-lock half — not
	// in the caller's fast path — so a slot-map install serialized by Locked
	// is a hard fence: no write commits under a table the install replaced.
	PrepareLocal(v *item.Version) (vclock.Timestamp, error)
	// ApplyRemote installs a batch of remote versions in storage. slotEpoch
	// is the sender's slot-table epoch when the batch was stamped: a backend
	// whose table has moved past it re-routes versions whose slots changed
	// owner (see keyspace.SlotMap). 0 = the epoch-0 table, which no table
	// has moved past — versions apply in place. vs may be a transport's lent
	// list (netemu.Handler): the backend reads it during the call only.
	ApplyRemote(vs []*item.Version, slotEpoch uint64)
	// SlotEpoch returns the backend's current slot-table epoch (0 = the
	// epoch-0 table); stamped on outbound batches and catch-up chunks.
	SlotEpoch() uint64
	// VVEntry returns the server's version-vector entry for dc.
	VVEntry(dc int) vclock.Timestamp
	// RaiseVV lifts the version-vector entry for dc to at least t and wakes
	// any requests the advance unblocks.
	RaiseVV(dc int, t vclock.Timestamp)
	// DropAbove removes every stored version originated by dc with an update
	// timestamp strictly greater than after, returning the number removed —
	// the forced-removal purge of a crashed DC's un-agreed suffix.
	DropAbove(dc int, after vclock.Timestamp) int
	// Joined signals that this node's bootstrap finished: every active
	// inbound link is synced and the DC announced itself Active. Called at
	// most once, and never when Config.Joining is unset.
	Joined()
}

// Source is the durable history a manager serves catch-up streams from;
// storage.Durable implements it. A Source that cannot prove its history is
// complete (a sticky persistence error) must fail the walk; the manager then
// answers Unsupported instead of claiming completeness it cannot back.
type Source interface {
	// ForEachDurable walks the durable history that may fall inside the
	// per-origin (lo, hi] window — snapshot first, then the log tail — using
	// a storage-side index to skip cold parts; a nil window is the whole
	// history. The window is advisory (versions outside it may still be
	// visited), so callers keep their per-version filter. No order is
	// promised: a catch-up round proves nothing until its Done, so the walk
	// need not.
	ForEachDurable(lo, hi vclock.VC, fn func(v *item.Version) error) error
	// CompactedFloor is the per-origin boundary below which checkpoints have
	// discarded superseded history: an incremental catch-up range starting
	// under it cannot be proven complete, so the manager answers with a full
	// resync instead. Nil when nothing has been compacted.
	CompactedFloor() vclock.VC
}

// Tuning constants.
const (
	batchCap              = 128     // buffered updates that force an inline flush
	catchUpWindow         = 1 << 20 // catch-up bytes on the wire, un-acked
	catchUpChunkBytes     = 64 << 10
	minReRequestInterval  = 100 * time.Millisecond
	maxReRequestInterval  = 2 * time.Second
	reRequestPerHeartbeat = 50

	// evictFreezeGrace bounds the provisional version-vector freeze a node
	// holds after acking an eviction proposal: if the round dies with its
	// proposer (no verdict ever arrives), the freeze expires and the link
	// resumes — the false-positive recovery path.
	evictFreezeGrace = 10 * time.Second

	// defaultGCMaxHoldback is the GC holdback bound a zero
	// Config.GCMaxHoldback selects.
	defaultGCMaxHoldback = 10 * time.Second
)

// Config holds a manager's options. The partition server embeds it whole
// (core.Config), so each is declared here and nowhere else; the server
// itself is no option — it hands NewManager its Backend and Source.
type Config struct {
	// ID is the server's (data center, partition) coordinate.
	ID netemu.NodeID
	// NumDCs (M) is the number of data centers (sibling replicas = NumDCs-1).
	NumDCs int
	// MaxDCs caps the data-center ids this server can ever track: the
	// capacity of the membership view, the inbound link table and the
	// server's version vector and GSS, reserved up front because the hot
	// path reads those vectors lock-free and cannot repoint them. 0 means
	// NumDCs — fixed membership, no joins possible. Headroom beyond NumDCs
	// lets whole DCs join at runtime; a departed DC's id is never reused.
	MaxDCs int
	// Clock is the node's physical clock (timestamps and the incarnation
	// epoch are drawn from it).
	Clock *clock.Clock
	// Endpoint attaches the server to the network (emulated or TCP). The
	// server installs its own handler and passes the plane's messages to
	// Manager.Handle.
	Endpoint netemu.Transport
	// HeartbeatInterval is Δ of Algorithm 2 (1 ms in the evaluation): the
	// idle-heartbeat cadence and the flush cadence (a buffered update waits
	// at most one Δ).
	HeartbeatInterval time.Duration
	// Joining marks this server's DC as bootstrapping into an existing
	// deployment: the manager sends JoinRequests to every active sibling,
	// pulls each link's history through catch-up, and announces the DC
	// Active when every link is synced. Until then the server contributes
	// nothing to the GSS (Backend.Joined releases it).
	Joining bool
	// JoinTimeout abandons a bootstrap that has not completed within the
	// given duration: the manager stops soliciting and JoinFailed reports
	// true, so the operator can unwind the half-joined DC cleanly instead
	// of letting it solicit forever. 0 means no deadline.
	JoinTimeout time.Duration
	// GCMaxHoldback bounds how long the garbage-collection exchange defers
	// pruning for a frozen, catching-up or joining replication link
	// (ClampGC). Past the bound the holdback is released and GC advances —
	// a laggard frozen longer than this must re-bootstrap via full resync,
	// because the history it still needs may now be pruned past. 0 selects
	// the default (10 s); negative never releases (GC waits for the laggard
	// indefinitely).
	GCMaxHoldback time.Duration
	// Membership is the initial view (zero value: the first NumDCs DCs are
	// active). Deployments that grew or shrank pass the current view so
	// restarted and joining servers start from reality.
	Membership msg.Membership
}

// DCCapacity resolves MaxDCs: 0 means NumDCs, and a cap below NumDCs is an
// error.
func (c *Config) DCCapacity() (int, error) {
	switch {
	case c.MaxDCs == 0:
		return c.NumDCs, nil
	case c.MaxDCs < c.NumDCs:
		return 0, fmt.Errorf("MaxDCs %d below NumDCs %d", c.MaxDCs, c.NumDCs)
	}
	return c.MaxDCs, nil
}

// Stats counts the manager's catch-up activity.
type Stats struct {
	// Requested counts inbound catch-up rounds this node started (gaps or
	// sender restarts it detected).
	Requested uint64
	// Completed counts inbound rounds that finished (Done after every chunk).
	Completed uint64
	// Served counts outbound streams this node served to lagging siblings.
	Served uint64
	// FullResyncs counts inbound rounds answered with a full re-bootstrap
	// because the requested floor was below the sender's checkpoint-
	// compacted boundary (the GC-overran-the-laggard degraded path).
	FullResyncs uint64
	// ActiveIn is the number of links currently frozen awaiting catch-up.
	ActiveIn int
}

// Manager owns a partition server's replication plane: outbound buffering,
// flush and heartbeat cadence, per-link sequence numbers, and both sides of
// the catch-up protocol.
type Manager struct {
	cfg     Config
	m, n    int
	maxDCs  int
	clk     *clock.Clock
	ep      netemu.Transport
	be      Backend
	history Source // nil: catch-up requests are answered Unsupported
	epoch   uint64 // incarnation id, immutable

	// viewMu guards the membership view; targets caches the fan-out set
	// (remote member DCs) so the flush path reads it with one atomic load.
	viewMu      sync.Mutex
	view        msg.Membership
	joinAskAt   time.Time     // last JoinRequest broadcast (rate limit)
	joinBackoff time.Duration // current re-solicit interval (nextWait per send)
	joinStart   time.Time     // when the bootstrap began (JoinTimeout anchor)
	targets     atomic.Pointer[[]int]
	joining     atomic.Bool // this DC is bootstrapping
	joinFailed  atomic.Bool // bootstrap abandoned (JoinTimeout elapsed)
	retired     atomic.Bool // this DC has left: Publish refuses new writes

	// evictMu guards the forced-removal round this node is proposing (at
	// most one at a time).
	evictMu sync.Mutex
	evict   *evictRound

	// holdMu guards the GC holdback table: per requesting DC, the floors the
	// local GC contribution must not pass while the laggard is draining, and
	// the first-seen time of any Joining DC (a joiner needs everything).
	holdMu    sync.Mutex
	holdbacks map[int]*holdback
	joinSeen  map[int]time.Time

	fanout    bool // MaxDCs > 1: there may be someone to replicate to
	reRequest time.Duration

	// floor is the incarnation's starting history floor: every version this
	// node originated before this incarnation has a timestamp ≤ floor (the
	// recovered WAL floor; 0 for a fresh store). Advertised on every
	// sequenced message so a first-contact receiver can tell whether the
	// stream's past holds history it never saw. Immutable.
	floor vclock.Timestamp

	// mu serializes the outbound stream: the buffer, the batch sequence
	// counter, and every send to sibling DCs (per-link FIFO order must match
	// update-timestamp order). PrepareLocal runs under it so a timestamp is
	// never assigned out of enqueue order.
	mu     sync.Mutex
	buf    []*item.Version
	seq    uint64           // last flushed batch sequence
	lastTS vclock.Timestamp // highest timestamp handed to the transport

	in []*inLink // inbound link state, indexed by source DC

	serveMu sync.Mutex
	serving map[int]*catchUpServe // outbound streams by destination DC

	reqSeq         atomic.Uint64
	statReq        atomic.Uint64
	statDone       atomic.Uint64
	statServed     atomic.Uint64
	statFullResync atomic.Uint64
	activeIn       atomic.Int64

	stopped atomic.Bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewManager builds and starts the replication manager of the partition
// server be; src serves its outbound catch-up streams (nil answers requests
// with Unsupported). Its heartbeat loop is running when it returns.
func NewManager(cfg Config, be Backend, src Source) (*Manager, error) {
	if cfg.Clock == nil || cfg.Endpoint == nil || be == nil {
		return nil, errors.New("repl: Clock, Endpoint and Backend are required")
	}
	if cfg.NumDCs < 1 {
		return nil, fmt.Errorf("repl: invalid NumDCs %d", cfg.NumDCs)
	}
	maxDCs, err := cfg.DCCapacity()
	if err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	if cfg.GCMaxHoldback == 0 {
		cfg.GCMaxHoldback = defaultGCMaxHoldback
	}
	if len(cfg.Membership.Status) > maxDCs {
		return nil, fmt.Errorf("repl: initial membership names %d DCs, capacity is %d",
			len(cfg.Membership.Status), maxDCs)
	}
	if cfg.ID.DC < 0 || cfg.ID.DC >= maxDCs {
		return nil, fmt.Errorf("repl: id %v outside the DC capacity %d", cfg.ID, maxDCs)
	}
	r := &Manager{
		cfg:       cfg,
		m:         cfg.ID.DC,
		n:         cfg.ID.Partition,
		maxDCs:    maxDCs,
		clk:       cfg.Clock,
		ep:        cfg.Endpoint,
		be:        be,
		history:   src,
		epoch:     uint64(cfg.Clock.Now()), // monotone across in-process restarts
		fanout:    maxDCs > 1,
		serving:   make(map[int]*catchUpServe),
		holdbacks: make(map[int]*holdback),
		joinSeen:  make(map[int]time.Time),
		stop:      make(chan struct{}),
	}
	// The membership view lives at full capacity; slots beyond the current
	// deployment stay DCUnknown until a join claims them.
	status := make([]uint8, maxDCs)
	if cfg.Membership.Status != nil {
		copy(status, cfg.Membership.Status)
	} else {
		for i := 0; i < cfg.NumDCs; i++ {
			status[i] = msg.DCActive
		}
	}
	if cfg.Joining {
		status[r.m] = msg.DCJoining
		r.joining.Store(true)
	} else if status[r.m] == msg.DCUnknown {
		status[r.m] = msg.DCActive
	}
	// The final-timestamp lattice rides along with the statuses: a restarted
	// server seeded with a view that already records departures must keep
	// their caps, or it would re-adopt a dead DC's un-agreed suffix.
	var final vclock.VC
	if len(cfg.Membership.Final) > 0 {
		final = cfg.Membership.Final.Clone()
	}
	r.view = msg.Membership{Epoch: cfg.Membership.Epoch, Status: status, Final: final}
	r.rebuildTargetsLocked()
	r.reRequest = min(max(reRequestPerHeartbeat*cfg.HeartbeatInterval, minReRequestInterval), maxReRequestInterval)
	// The resume floor: a recovered server starts its stream at its replayed
	// local entry, so a catch-up snapshot taken before its first flush still
	// covers everything the previous incarnation acknowledged — and every
	// sequenced message advertises it so first-contact receivers can tell
	// whether they are behind this node's past.
	r.lastTS = r.be.VVEntry(r.m)
	r.floor = r.lastTS
	r.in = make([]*inLink, maxDCs)
	for i := range r.in {
		r.in[i] = &inLink{state: LinkIdle}
	}

	// The join bootstrap starts before the background loop: heartbeatLoop
	// reads joinStart to enforce JoinTimeout, so it must be published before
	// the goroutine exists (goroutine creation is the happens-before edge).
	if r.joining.Load() {
		r.joinStart = time.Now()
		r.sendJoinRequests()
		// Degenerate join (no active sibling to sync against, e.g. the first
		// DC of a deployment): complete immediately.
		r.maybeFinishJoin()
	}
	if cfg.HeartbeatInterval > 0 && r.fanout {
		r.wg.Add(1)
		go r.heartbeatLoop()
	}
	return r, nil
}

// nextWait is the plane's one backoff, which every retried request waits
// through: after last (0 before the first ask), the next wait — reRequest,
// then doubling up to maxReRequestInterval.
func (r *Manager) nextWait(last time.Duration) time.Duration {
	return max(r.reRequest, min(2*last, maxReRequestInterval))
}

// Epoch returns the manager's incarnation id.
func (r *Manager) Epoch() uint64 { return r.epoch }

// Stats returns a snapshot of the catch-up counters.
func (r *Manager) Stats() Stats {
	return Stats{
		Requested:   r.statReq.Load(),
		Completed:   r.statDone.Load(),
		Served:      r.statServed.Load(),
		FullResyncs: r.statFullResync.Load(),
		ActiveIn:    int(r.activeIn.Load()),
	}
}

// Handle is the plane's one inbound door: the owning server passes it every
// message it does not serve itself. It reports whether m is a message of the
// replication plane; anything else is left alone.
func (r *Manager) Handle(src netemu.NodeID, m any) bool {
	switch mm := m.(type) {
	case *msg.ReplicateBatch:
		r.handleBatch(src, mm)
	case *msg.Heartbeat:
		r.handleHeartbeat(src, mm)
	case msg.CatchUpRequest:
		r.handleCatchUpRequest(src, mm)
	case msg.CatchUpReply:
		r.handleCatchUpReply(src, mm)
	case msg.CatchUpAck:
		r.handleCatchUpAck(src, mm)
	case msg.JoinRequest:
		r.handleJoinRequest(src, mm)
	case msg.MembershipUpdate:
		r.handleMembershipUpdate(src, mm)
	case msg.LeaveNotice:
		r.handleLeaveNotice(src, mm)
	case msg.EvictProposal:
		r.handleEvictProposal(src, mm)
	case msg.EvictAck:
		r.handleEvictAck(src, mm)
	default:
		return false
	}
	return true
}

// Close stops the heartbeat loop and any catch-up streams in progress.
// With flush set (graceful shutdown) the buffered tail is handed to the
// transport first; without it (crash simulation) the tail is discarded — the
// loss catch-up exists to repair.
func (r *Manager) Close(flush bool) {
	if !r.stopped.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	r.serveMu.Lock()
	for _, s := range r.serving {
		close(s.cancel)
	}
	r.serveMu.Unlock()
	r.wg.Wait()
	r.mu.Lock()
	if flush {
		r.flushLocked()
	} else {
		r.buf = nil
	}
	r.mu.Unlock()
}
