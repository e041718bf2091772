// Package repl is the replication plane of a partition server: it owns the
// outbound update stream to the sibling replicas in the other data centers
// and the inbound bookkeeping that decides when a received update stream is
// trustworthy enough to advance the version vector.
//
// # Sequenced streams
//
// Every flushed batch (msg.ReplicateBatch) carries the sender's incarnation
// epoch and a monotone sequence number; heartbeats re-attest the current
// sequence. Because a flush goes to every sibling DC, each link observes
// the same gap-free sequence 1, 2, 3, …, so a receiver can verify — before
// advancing its version vector, which asserts "I hold every version from
// this DC up to t" — that it did not miss a batch. A hole in the sequence,
// or a new epoch (the sender restarted and its in-memory buffer tail died
// with it), freezes the link's VV advancement and triggers catch-up. Every
// manager holds every inbound message to this rule, whatever its storage
// engine; on the lossless FIFO links Algorithm 2 assumes, the check is
// silent.
//
// # WAL-shipped catch-up
//
// The lagging receiver sends a msg.CatchUpRequest carrying the timestamp
// through which its prefix is complete (its VV entry for that DC). The
// sender streams every version it originated after that point straight out
// of its durable log (Source: storage.Durable over the internal/wal cursor)
// in acknowledged chunks, never holding more than catchUpWindow (1 MiB) of
// un-acked data on the wire — backpressure instead of unbounded buffers.
// The final chunk carries the resume point (epoch, sequence, timestamp): on
// receipt the receiver raises its VV through the streamed history, splices
// the batches that arrived during the round back onto the sequence, and
// resumes normal operation — or detects another discontinuity and goes
// again from the new, strictly higher floor, so rounds always make
// progress.
//
// A sender without a durable engine (Config.Source nil: an in-memory
// deployment, where a crashed replica has nothing to re-ship anyway) answers
// Unsupported, and the receiver resumes on the reply's word — the optimistic
// pre-catch-up semantics, reached through the sequenced rule.
//
// # Membership
//
// The manager owns an epoch-stamped membership view (msg.Membership): the
// per-DC statuses Joining → Active → Left, merged entry-wise as a lattice so
// concurrent view changes converge without coordination. The view drives the
// outbound fan-out — batches and heartbeats go to every Joining or Active
// remote DC, never to a departed one.
//
// A joining DC's servers start with Config.Joining set: each sends a
// msg.JoinRequest to its sibling partition in every active DC, which merges
// the joiner into its view (adding it to the fan-out) and answers
// msg.JoinAccept. Bootstrap then *is* the catch-up protocol: the first
// sequenced message on each inbound link either proves the sender has no
// prior history (adopt) or triggers a WAL-shipped catch-up round from
// timestamp zero. Once every active link is synced, the manager flips the
// DC to Active, broadcasts a msg.MembershipUpdate, and signals the backend
// (Joined) — the server only then enters the stabilization protocol, so a
// half-bootstrapped replica can never inject its partial state into the GSS.
//
// A leaving DC calls Leave: under the outbound lock it flushes the buffered
// tail, then sends msg.LeaveNotice carrying its final timestamp on the same
// FIFO links — so by the time the notice arrives, the receiver holds every
// version the leaver originated. Receivers freeze the departed entry at
// Final, cancel catch-up rounds pending on the link (nobody is left to
// answer), and drop the DC from the fan-out: stabilization keeps advancing
// on the survivors because no achievable dependency can exceed Final.
//
// # Forced removal
//
// A crashed DC never sends a LeaveNotice, so the survivors' GSS freezes at
// its last heartbeat and stays there. ProposeEvict runs the coordination
// round that unblocks them: the proposer broadcasts msg.EvictProposal to
// every active survivor, each answers msg.EvictAck carrying its
// version-vector entry for the dead DC — a prefix-complete "I hold
// everything it originated through t" claim — and the agreed final is the
// maximum of those entries. The proposer freezes the view (Status Left,
// Final recorded in the membership lattice) and broadcasts msg.EvictNotice.
//
// Unlike a graceful leave, the notice does not ride the departed DC's own
// FIFO links, so a receiver may hold versions *beyond* the final (applied
// optimistically from the dead DC's last, un-agreed flush) or may be
// *behind* it. Both sides are reconciled at the notice: versions above the
// final are dropped from storage (Backend.DropAbove — they were replicated
// to nobody provably, so keeping them is unreplicatable divergence), and a
// receiver below the final gap-fills through ordinary catch-up rounds on
// the surviving links. Every msg.CatchUpRequest carries the requester's
// full version vector (Have), and the server streams — besides its own
// history — every departed-origin version the requester lacks up to the
// agreed final, bounding each claim in the Done chunk's Departed list. The
// same mechanism re-ships a departed DC's history to joiners that arrive
// after it left.
//
// # Catch-up-aware garbage collection
//
// The GC exchange prunes superseded versions once every replica's snapshot
// has moved past them — but a replica frozen in catch-up (or a joiner mid-
// bootstrap) still needs the history below its resume floor. The manager
// therefore remembers the floors of every catch-up request it has served
// recently and clamps the server's local GC contribution to them (ClampGC),
// holding the global prune point back until the laggard drains. The
// holdback ages out after GCMaxHoldback (see core.Config): past that, GC
// advances and the laggard's next incremental request is answered with a
// CatchUpReply.FullResync full re-bootstrap instead of a silently
// incomplete range — the serving side detects the request floor is below
// the WAL's checkpoint-compacted boundary (storage.Durable.CompactedFloor)
// and restreams from zero.
package repl

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// Transport carries protocol messages between partition servers (the same
// contract as core.Transport: lossless FIFO delivery per (src, dst) pair,
// non-blocking Send).
type Transport interface {
	ID() netemu.NodeID
	Send(dst netemu.NodeID, m any)
}

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
	// owner (see keyspace.SlotMap). Zero means the sender predates slot
	// tables (or runs the default map) — versions apply in place.
	ApplyRemote(vs []*item.Version, slotEpoch uint64)
	// SlotEpoch returns the backend's current slot-table epoch (0 when no
	// table is installed); stamped on outbound batches and catch-up chunks.
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
	// visited), so callers keep their per-version filter. tail is true for a
	// version read from the append-ordered live log rather than the
	// unordered snapshot: own-origin tail versions arrive in ascending
	// timestamp order after all own-origin snapshot history, which is what
	// lets serveCatchUp stamp sound mid-stream progress claims — once an
	// own-origin tail version with timestamp t has been shipped, every
	// own-origin version at or below t the requester asked for is in the
	// chunks sent so far.
	ForEachDurable(lo, hi vclock.VC, fn func(v *item.Version, tail bool) error) error
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
	// proposer (no notice ever arrives), the freeze expires and the link
	// resumes — the false-positive recovery path.
	evictFreezeGrace = 10 * time.Second
)

// errCanceled aborts a catch-up serving stream (superseded, or shutdown).
var errCanceled = errors.New("repl: catch-up stream canceled")

// Config parameterizes a Manager.
type Config struct {
	// ID is the server's (data center, partition) coordinate.
	ID netemu.NodeID
	// NumDCs is the number of data centers (sibling replicas = NumDCs-1).
	NumDCs int
	// Clock is the node's physical clock (timestamps and the incarnation
	// epoch are drawn from it).
	Clock *clock.Clock
	// Endpoint attaches the manager to the network. The manager never
	// installs a handler; the server routes inbound messages to the
	// Handle* methods.
	Endpoint Transport
	// Backend is the owning partition server.
	Backend Backend
	// HeartbeatInterval is Δ: the idle-heartbeat cadence and the flush
	// cadence (a buffered update waits at most one Δ).
	HeartbeatInterval time.Duration
	// Source serves outbound catch-up streams; nil answers requests with
	// Unsupported.
	Source Source
	// MaxDCs caps the DC ids this node can ever track — the capacity of the
	// membership view and the inbound link table. 0 means NumDCs: fixed
	// membership, no joins possible.
	MaxDCs int
	// Joining marks this node's DC as bootstrapping into an existing
	// deployment: the manager sends JoinRequests to every active sibling,
	// pulls each link's history through catch-up, and announces the DC
	// Active when every link is synced.
	Joining bool
	// JoinTimeout abandons a bootstrap that has not completed within the
	// given duration: the manager stops soliciting and JoinFailed reports
	// true, so the operator can unwind the half-joined DC cleanly instead
	// of letting it solicit forever. 0 means no deadline.
	JoinTimeout time.Duration
	// Membership is the initial view (zero value: the first NumDCs DCs are
	// active). Deployments that grew or shrank pass the current view so
	// restarted and joining servers start from reality.
	Membership msg.Membership
}

// Stats counts the manager's catch-up activity.
type Stats struct {
	// Requested counts inbound catch-up rounds this node started (gaps or
	// sender restarts it detected).
	Requested uint64
	// Completed counts inbound rounds that finished (Done received).
	Completed uint64
	// Served counts outbound streams this node served to lagging siblings.
	Served uint64
	// FullResyncs counts inbound rounds answered with a full re-bootstrap
	// because the requested floor was below the sender's checkpoint-
	// compacted boundary (the GC-overran-the-laggard degraded path).
	FullResyncs uint64
	// Resumed counts inbound rounds that picked up a dead predecessor's
	// persisted mid-stream progress instead of re-requesting its whole
	// range — the catch-up starvation fix for flaky links.
	Resumed uint64
	// Deferred counts fresh inbound batches parked while a catch-up round
	// was in flight on their link, so the round's chunk and Done-claim
	// application gets the CPU first (the oversubscription starvation fix).
	Deferred uint64
	// ActiveIn is the number of links currently frozen awaiting catch-up.
	ActiveIn int
}

// inLink is the receiver-side state of one inbound replication link,
// identified by the source DC (the sibling partition is fixed). Messages on
// a link are handled by one goroutine at a time in the common case, but TCP
// reconnects can briefly run two, so the state is locked.
type inLink struct {
	mu sync.Mutex
	// state is LinkIdle until first contact, LinkActive while the link is
	// synced to (epoch, seq), LinkCatchingUp while a catch-up round is in
	// flight. Written only by setStateLocked.
	state LinkState
	epoch uint64 // sender incarnation the link is synced to
	seq   uint64 // last batch sequence applied in order

	// Catch-up round state. While the link is catching up, arriving versions
	// are installed but the VV entry is frozen; chain* tracks the contiguous
	// run of sequenced messages seen during the round so it can be spliced
	// onto the resume point when Done arrives.
	reqID      uint64
	reqAt      time.Time
	chainSet   bool
	chainEpoch uint64
	chainBase  uint64 // sequence immediately before the chain's first batch
	chainSeq   uint64
	chainTS    vclock.Timestamp

	// Resumable rounds. resume records, per origin, the floor below which
	// streamed chunks have already been applied contiguously — the round's
	// persisted progress. A round that dies mid-stream (frozen link, lost
	// chunk, superseding re-request) restarts from max(VV, resume) instead
	// of re-streaming everything after the VV floor, so a slow link makes
	// forward progress across rounds instead of starving. nextChunk is the
	// next contiguous chunk number expected for reqID: a chunk's Progress
	// claim is only valid once chunks 1..k have all been applied, so a gap
	// in the stream stops resume (but never version installs) from
	// advancing. Cleared when a round completes — the Done raise covers it.
	resume    vclock.VC
	nextChunk uint64

	// Eviction freeze. Acking an EvictProposal attests "I hold everything
	// through evictCap" — the entry must not pass that point before the
	// verdict, or the agreed final could cut below an already-attested
	// prefix. The freeze self-expires (evictFreezeGrace) if no notice
	// follows.
	evictCap      vclock.Timestamp
	evictCapUntil time.Time

	// Done-claim priority. While a catch-up round is pending, fresh inbound
	// batches are parked here (bounded by deferMaxBytes) instead of applied
	// inline, so under CPU oversubscription the round's chunk and Done
	// application is not starved by a firehose of new version traffic. The
	// buffer drains — outside the link lock — before the round's completion
	// raises the VV, and on link retirement. Past the byte cap batches fall
	// back to inline application (store inserts are idempotent and
	// order-independent, so mixing is safe).
	deferred      []deferredBatch
	deferredBytes int
}

// deferredBatch is one parked fresh batch: the versions to apply and the
// slot epoch they were fenced under.
type deferredBatch struct {
	vs        []*item.Version
	slotEpoch uint64
}

// deferMaxBytes bounds the parked fresh traffic per link while a catch-up
// round is pending.
const deferMaxBytes = 1 << 20

// capRaiseLocked clamps a version-vector raise on a link frozen by a
// pending eviction round. Called with st.mu held.
func capRaiseLocked(st *inLink, t vclock.Timestamp) vclock.Timestamp {
	if st.evictCap > 0 && t > st.evictCap && time.Now().Before(st.evictCapUntil) {
		return st.evictCap
	}
	return t
}

// catchUpServe is one outbound catch-up stream in progress.
type catchUpServe struct {
	dc     int
	reqID  uint64
	acks   chan uint64
	cancel chan struct{}
}

// evictRound is one forced-removal coordination round in progress: the
// proposer waits for an EvictAck from every survivor in need, folding the
// acked version-vector entries into the agreed final.
type evictRound struct {
	dc    int
	reqID uint64
	need  map[int]bool
	final vclock.Timestamp
	done  chan struct{}
}

// holdback is the GC floor owed to one lagging catch-up requester: the
// server must not let the global prune point pass what the laggard has not
// received yet (its request floor for this link, its Have entries for
// departed origins).
type holdback struct {
	floors  vclock.VC // entry-wise: prune nothing above these
	since   time.Time // when the laggard was first seen (holdback age)
	lastReq time.Time // last request or served chunk (expiry clock)
}

// Manager owns a partition server's replication plane: outbound buffering,
// flush and heartbeat cadence, per-link sequence numbers, and both sides of
// the catch-up protocol.
type Manager struct {
	cfg    Config
	m, n   int
	maxDCs int
	clk    *clock.Clock
	ep     Transport
	be     Backend
	epoch  uint64 // incarnation id, immutable

	// viewMu guards the membership view; targets caches the fan-out set
	// (remote member DCs) so the flush path reads it with one atomic load.
	viewMu      sync.Mutex
	view        msg.Membership
	joinAskAt   time.Time     // last JoinRequest broadcast (rate limit)
	joinBackoff time.Duration // current re-solicit interval (doubles per send)
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
	statResumed    atomic.Uint64
	statDeferred   atomic.Uint64
	activeIn       atomic.Int64

	stopped atomic.Bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewManager builds and starts a replication manager: its heartbeat and
// adaptive flush loops are running when it returns.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Clock == nil || cfg.Endpoint == nil || cfg.Backend == nil {
		return nil, errors.New("repl: Clock, Endpoint and Backend are required")
	}
	if cfg.NumDCs < 1 {
		return nil, fmt.Errorf("repl: invalid NumDCs %d", cfg.NumDCs)
	}
	maxDCs := cfg.MaxDCs
	if maxDCs == 0 {
		maxDCs = cfg.NumDCs
	}
	if maxDCs < cfg.NumDCs {
		return nil, fmt.Errorf("repl: MaxDCs %d below NumDCs %d", maxDCs, cfg.NumDCs)
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
		be:        cfg.Backend,
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
	r.reRequest = reRequestPerHeartbeat * cfg.HeartbeatInterval
	if r.reRequest < minReRequestInterval {
		r.reRequest = minReRequestInterval
	}
	if r.reRequest > maxReRequestInterval {
		r.reRequest = maxReRequestInterval
	}
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

	// The join bootstrap starts before the background loops: heartbeatLoop
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
		if cfg.HeartbeatInterval/4 > 0 {
			r.wg.Add(1)
			go r.adaptiveFlushLoop(cfg.HeartbeatInterval)
		}
	}
	return r, nil
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
		Resumed:     r.statResumed.Load(),
		Deferred:    r.statDeferred.Load(),
		ActiveIn:    int(r.activeIn.Load()),
	}
}

// LinkState is the health of one inbound replication link. The values are
// ordered by severity, so the worst state several servers report for a link
// is their max.
type LinkState uint8

const (
	LinkSelf       LinkState = iota // this node's own slot
	LinkActive                      // synced
	LinkIdle                        // never made contact (unknown or unused capacity)
	LinkCatchingUp                  // a recovery round is making progress
	LinkFrozen                      // a pending round has gone quiet: the sender is not answering
	LinkEvicted                     // the DC has departed (graceful or forced)
)

var linkStateNames = [...]string{"self", "active", "idle", "catching-up", "frozen", "evicted"}

func (s LinkState) String() string { return linkStateNames[s] }

// LinkStates reports the health of every inbound replication link, indexed
// by source DC.
func (r *Manager) LinkStates() []LinkState {
	r.viewMu.Lock()
	status := make([]uint8, r.maxDCs)
	copy(status, r.view.Status)
	r.viewMu.Unlock()
	out := make([]LinkState, r.maxDCs)
	for dc := 0; dc < r.maxDCs; dc++ {
		switch {
		case dc == r.m:
			out[dc] = LinkSelf
			continue
		case status[dc] == msg.DCLeft:
			out[dc] = LinkEvicted
			continue
		}
		st := r.in[dc]
		st.mu.Lock()
		out[dc] = st.state
		if st.state == LinkCatchingUp && time.Since(st.reqAt) > 2*r.reRequest {
			out[dc] = LinkFrozen // a property of elapsed time, not a transition
		}
		st.mu.Unlock()
	}
	return out
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

// View returns a copy of the current membership view.
func (r *Manager) View() msg.Membership {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.Clone()
}

// Bootstrapped reports whether this node participates fully in replication:
// true for ordinary members, and for a joiner once every active inbound
// link has been synced (catch-up complete) and the DC announced Active.
func (r *Manager) Bootstrapped() bool { return !r.joining.Load() }

// JoinFailed reports that the bootstrap was abandoned: Config.JoinTimeout
// elapsed before every active link synced. The manager has stopped
// soliciting; the owner should tear the node down.
func (r *Manager) JoinFailed() bool { return r.joinFailed.Load() }

// statusOf returns the membership status of dc.
func (r *Manager) statusOf(dc int) uint8 {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.Get(dc)
}

// finalOf returns the recorded final timestamp of dc (0 = none known).
func (r *Manager) finalOf(dc int) vclock.Timestamp {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.FinalOf(dc)
}

// leftFinal reports whether dc has departed, and its recorded final.
func (r *Manager) leftFinal(dc int) (vclock.Timestamp, bool) {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.FinalOf(dc), r.view.Get(dc) == msg.DCLeft
}

// setFinal records the final timestamp of a departed DC in the membership
// lattice (entries only ever rise), so it travels with every view this node
// relays and survives restarts that seed from a sibling's view.
func (r *Manager) setFinal(dc int, final vclock.Timestamp) {
	if dc < 0 || dc >= r.maxDCs || final == 0 {
		return
	}
	r.viewMu.Lock()
	r.view.SetFinal(dc, final)
	r.viewMu.Unlock()
}

// rebuildTargetsLocked recomputes the fan-out set — every remote Joining or
// Active DC — from the view. A departed node sends nothing and accepts no
// new writes (a write acked after the departure would replicate to nobody).
// Called with viewMu held (or from the constructor before the manager is
// shared).
func (r *Manager) rebuildTargetsLocked() {
	ts := make([]int, 0, len(r.view.Status))
	if r.view.Get(r.m) != msg.DCLeft {
		for dc, st := range r.view.Status {
			if dc != r.m && (st == msg.DCActive || st == msg.DCJoining) {
				ts = append(ts, dc)
			}
		}
	} else {
		r.retired.Store(true)
	}
	r.targets.Store(&ts)
}

// applyView merges v into the local view. On change it rebuilds the fan-out
// targets, retires the links of any DC the merge marked departed, and seals
// any DC that departed *in this merge* — reconciling storage and the
// version vector against its recorded final timestamp.
func (r *Manager) applyView(v msg.Membership) {
	r.viewMu.Lock()
	was := r.view.Status
	prev := make([]uint8, len(was))
	copy(prev, was)
	if !r.view.Merge(v, r.maxDCs) {
		r.viewMu.Unlock()
		return
	}
	r.rebuildTargetsLocked()
	var left, newly []int
	var finals []vclock.Timestamp
	for dc, st := range r.view.Status {
		if st != msg.DCLeft || dc == r.m {
			continue
		}
		left = append(left, dc)
		if dc >= len(prev) || prev[dc] != msg.DCLeft {
			newly = append(newly, dc)
			finals = append(finals, r.view.FinalOf(dc))
		}
	}
	r.viewMu.Unlock()
	for _, dc := range left {
		r.retireLink(dc)
	}
	for i, dc := range newly {
		r.sealDeparted(dc, finals[i])
	}
}

// retireLink tears down the replication state owed to a departed DC: an
// inbound catch-up round pending on the link is cancelled (nobody is left
// to answer it) and an outbound stream serving the DC is stopped.
func (r *Manager) retireLink(dc int) {
	st := r.in[dc]
	st.mu.Lock()
	if st.state == LinkCatchingUp {
		// The round is cancelled; the link's state is not read again (its DC
		// is marked Left, which every handler and LinkStates check first).
		r.setStateLocked(st, LinkIdle)
	}
	batches := st.deferred
	st.deferred, st.deferredBytes = nil, 0
	st.evictCap = 0 // the verdict is in; the Left status caps from here on
	st.mu.Unlock()
	// Fresh batches parked during a round the departure cancelled are still
	// applied — filterDeparted screens the un-agreed suffix now that the DC
	// is marked Left. Applied outside the link lock: filterDeparted takes
	// the view lock.
	for _, b := range batches {
		r.be.ApplyRemote(r.filterDeparted(b.vs), b.slotEpoch)
	}
	r.serveMu.Lock()
	if s := r.serving[dc]; s != nil {
		close(s.cancel)
		delete(r.serving, dc)
	}
	r.serveMu.Unlock()
	r.holdMu.Lock()
	delete(r.holdbacks, dc)
	delete(r.joinSeen, dc)
	r.holdMu.Unlock()
}

// sealDeparted reconciles this node against a DC that just transitioned to
// Left with the recorded final timestamp: versions beyond the final — the
// dead DC's un-agreed suffix, applied optimistically before the eviction
// was decided — are dropped from storage, and if this node's prefix is
// still short of the final, gap-fill catch-up rounds are started on the
// surviving links (every live sibling re-ships departed-origin history it
// holds, see serveCatchUp). With no recorded final (a legacy graceful leave
// whose notice carried it out of band) there is nothing to reconcile
// against, so only the link teardown in applyView applies.
func (r *Manager) sealDeparted(dc int, final vclock.Timestamp) {
	if final == 0 {
		return
	}
	r.be.DropAbove(dc, final)
	if r.be.VVEntry(dc) < final {
		r.fillDepartedGaps()
	}
}

// fillDepartedGaps starts a catch-up round on every quiet surviving link
// while some departed DC's recorded final exceeds this node's entry for it:
// the rounds carry this node's full version vector (Have), so any sibling
// holding the missing departed-origin history re-ships it and bounds the
// claim in its Done chunk. Re-invoked from the heartbeat loop until the gap
// closes — a single shot could race a survivor that has not yet learned of
// the departure and would answer without a claim.
func (r *Manager) fillDepartedGaps() {
	r.viewMu.Lock()
	var gap bool
	for dc, st := range r.view.Status {
		if st == msg.DCLeft && dc != r.m {
			if f := r.view.FinalOf(dc); f > 0 && r.be.VVEntry(dc) < f {
				gap = true
				break
			}
		}
	}
	var live []int
	if gap {
		for dc, st := range r.view.Status {
			if dc != r.m && st == msg.DCActive {
				live = append(live, dc)
			}
		}
	}
	r.viewMu.Unlock()
	for _, dc := range live {
		st := r.in[dc]
		st.mu.Lock()
		if st.state != LinkCatchingUp && time.Since(st.reqAt) > r.reRequest {
			r.startCatchUpLocked(st, dc)
		}
		st.mu.Unlock()
	}
}

// sendJoinRequests asks the sibling partition in every active DC to add
// this (joining) DC to its fan-out. Idempotent; re-sent with exponential
// backoff (jittered, capped) until every link makes first contact, so a
// lost request cannot wedge the join and a wedged join cannot flood the
// deployment with solicitations.
func (r *Manager) sendJoinRequests() {
	r.viewMu.Lock()
	r.joinAskAt = time.Now()
	if r.joinBackoff == 0 {
		r.joinBackoff = r.reRequest
	} else if r.joinBackoff < maxReRequestInterval {
		r.joinBackoff *= 2
		if r.joinBackoff > maxReRequestInterval {
			r.joinBackoff = maxReRequestInterval
		}
	}
	view := r.view.Clone()
	r.viewMu.Unlock()
	for dc, st := range view.Status {
		if dc != r.m && st == msg.DCActive {
			r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n},
				msg.JoinRequest{DC: r.m, View: view})
		}
	}
}

// maybeFinishJoin completes the bootstrap when every active inbound link is
// synced: flip this DC to Active, broadcast the new view, and signal the
// backend. Called after every event that can sync a link. The completeness
// check and the flip run under viewMu so a concurrently-merged view (a DC
// learned mid-check) serializes with the decision: it is either examined
// here or arrives after the flip, when first-contact catch-up covers it
// like for any other active member.
func (r *Manager) maybeFinishJoin() {
	if !r.joining.Load() || r.joinFailed.Load() {
		return // an abandoned bootstrap must not announce itself Active
	}
	r.viewMu.Lock()
	for dc, st := range r.view.Status {
		if dc == r.m || st != msg.DCActive {
			continue
		}
		l := r.in[dc]
		l.mu.Lock()
		ok := l.state == LinkActive
		l.mu.Unlock()
		if !ok {
			r.viewMu.Unlock()
			return
		}
	}
	if !r.joining.CompareAndSwap(true, false) {
		r.viewMu.Unlock()
		return
	}
	// The lattice only moves forward: a concurrent forced removal (self
	// marked Left) must not be overwritten by the Active announcement.
	if r.view.Status[r.m] == msg.DCJoining {
		r.view.Status[r.m] = msg.DCActive
		r.view.Epoch++
	}
	r.rebuildTargetsLocked()
	view := r.view.Clone()
	r.viewMu.Unlock()
	for _, dc := range *r.targets.Load() {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, msg.MembershipUpdate{View: view})
	}
	r.be.Joined()
}

// Leave announces this node's departure: the buffered tail is flushed and a
// LeaveNotice carrying the final timestamp follows it on the same FIFO
// links, so every receiver holds the leaver's complete history when the
// notice arrives. The notice is this node's last word — the fan-out is
// emptied and new writes are refused under the same critical section, so
// nothing (no batch, no heartbeat, no acked-but-unreplicated write) can
// postdate it. It returns the announced final timestamp.
func (r *Manager) Leave() vclock.Timestamp {
	r.viewMu.Lock()
	if r.view.Status[r.m] != msg.DCLeft {
		r.view.Status[r.m] = msg.DCLeft
		r.view.Epoch++
	}
	view := r.view.Clone()
	// Targets are not rebuilt yet: the final flush and the notice itself
	// still ride the existing links.
	r.viewMu.Unlock()
	r.mu.Lock()
	r.flushLocked()
	final := r.lastTS
	for _, dc := range *r.targets.Load() {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n},
			msg.LeaveNotice{DC: r.m, Final: final, View: view})
	}
	// Retire while still holding the outbound lock: the heartbeat loop and
	// Publish both serialize on it, so the first thing either sees after
	// the notice is an empty fan-out and a refused write path.
	empty := make([]int, 0)
	r.targets.Store(&empty)
	r.retired.Store(true)
	r.mu.Unlock()
	return final
}

// HandleJoinRequest merges the joiner into the view — adding it to the
// fan-out, so the live stream starts flowing — and answers with the merged
// view. The joiner's history bootstrap is *not* served here: it rides the
// ordinary catch-up protocol, triggered by the joiner's first contact with
// this node's sequenced stream.
func (r *Manager) HandleJoinRequest(src netemu.NodeID, m msg.JoinRequest) {
	r.applyView(m.View)
	r.mu.Lock()
	through := r.lastTS
	r.mu.Unlock()
	r.ep.Send(src, msg.JoinAccept{View: r.View(), Through: through})
}

// HandleJoinAccept merges the acceptor's view (the joiner may learn of DCs
// that joined or left before it arrived).
func (r *Manager) HandleJoinAccept(src netemu.NodeID, m msg.JoinAccept) {
	r.applyView(m.View)
}

// HandleMembershipUpdate merges a broadcast view change.
func (r *Manager) HandleMembershipUpdate(src netemu.NodeID, m msg.MembershipUpdate) {
	r.applyView(m.View)
}

// HandleLeaveNotice retires a departed DC: the version-vector entry is
// raised to the leaver's final timestamp — complete by FIFO order, since
// the notice follows the leaver's last flush on the same link — the final
// is recorded in the membership lattice (so later joiners and restarted
// survivors inherit the cap), and the view merge drops the DC from the
// fan-out and cancels catch-up state on the link. The raise runs first so
// the departure seal sees a closed gap and skips the gap-fill rounds.
func (r *Manager) HandleLeaveNotice(src netemu.NodeID, m msg.LeaveNotice) {
	if m.DC == src.DC && src.DC >= 0 && src.DC < r.maxDCs {
		r.be.RaiseVV(src.DC, m.Final)
	}
	r.setFinal(m.DC, m.Final)
	r.applyView(m.View)
	r.maybeFinishJoin() // a joiner no longer waits on the departed link
}

// ---------------------------------------------------------------------------
// Forced removal
// ---------------------------------------------------------------------------

// ProposeEvict runs the forced-removal round for a crashed DC: every active
// survivor is asked to attest its version-vector entry for the dead DC (a
// prefix-complete "I hold everything it originated through t" claim), and
// the agreed final is the maximum attestation — every version at or below
// it provably survives at the attesting survivor, and everything above it
// was acknowledged by nobody. On agreement the proposer freezes the view
// (Status Left, final recorded in the lattice), reconciles its own state
// (sealDeparted), and broadcasts msg.EvictNotice so the survivors do the
// same. Proposals are re-sent with backoff until every ack arrives or the
// timeout elapses; evicting an already-departed DC returns its recorded
// final immediately.
//
// Only one round may run per manager at a time. Concurrent proposers (split
// views) are safe: finals merge by maximum in the membership lattice and
// any survivor left short of the winning final gap-fills through catch-up.
func (r *Manager) ProposeEvict(dead int, timeout time.Duration) (vclock.Timestamp, error) {
	if dead < 0 || dead >= r.maxDCs {
		return 0, fmt.Errorf("repl: evict target %d outside DC capacity %d", dead, r.maxDCs)
	}
	if dead == r.m {
		return 0, errors.New("repl: a DC cannot propose its own eviction")
	}
	if r.stopped.Load() {
		return 0, errors.New("repl: manager stopped")
	}
	if final, left := r.leftFinal(dead); left {
		return final, nil
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}

	// Freeze and attest the proposer's own entry first, exactly like an
	// acking survivor: the agreed final must not fall below an entry any
	// participant keeps raising during the round.
	st := r.in[dead]
	st.mu.Lock()
	entry := r.be.VVEntry(dead)
	st.evictCap = entry
	st.evictCapUntil = time.Now().Add(evictFreezeGrace)
	st.mu.Unlock()

	r.viewMu.Lock()
	view := r.view.Clone()
	r.viewMu.Unlock()
	need := make(map[int]bool)
	for dc, s := range view.Status {
		if dc != r.m && dc != dead && s == msg.DCActive {
			need[dc] = true
		}
	}
	round := &evictRound{
		dc: dead, reqID: r.reqSeq.Add(1), need: need,
		final: entry, done: make(chan struct{}),
	}
	r.evictMu.Lock()
	if r.evict != nil {
		r.evictMu.Unlock()
		return 0, errors.New("repl: an eviction round is already in progress")
	}
	r.evict = round
	r.evictMu.Unlock()
	defer func() {
		r.evictMu.Lock()
		if r.evict == round {
			r.evict = nil
		}
		r.evictMu.Unlock()
	}()

	prop := msg.EvictProposal{DC: dead, ReqID: round.reqID, View: view}
	send := func() {
		r.evictMu.Lock()
		targets := make([]int, 0, len(round.need))
		for dc := range round.need {
			targets = append(targets, dc)
		}
		r.evictMu.Unlock()
		for _, dc := range targets {
			r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, prop)
		}
	}
	if len(need) > 0 {
		send()
		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
		backoff := r.reRequest
		resend := time.NewTimer(backoff)
		defer resend.Stop()
	wait:
		for {
			select {
			case <-round.done:
				break wait
			case <-r.stop:
				return 0, errors.New("repl: manager stopped")
			case <-deadline.C:
				return 0, fmt.Errorf("repl: eviction of DC %d timed out awaiting survivor acks", dead)
			case <-resend.C:
				send()
				if backoff < maxReRequestInterval {
					backoff *= 2
					if backoff > maxReRequestInterval {
						backoff = maxReRequestInterval
					}
				}
				resend.Reset(backoff)
			}
		}
	}
	r.evictMu.Lock()
	final := round.final
	r.evictMu.Unlock()

	// Adopt the verdict and tell everyone. The broadcast rides the rebuilt
	// fan-out (survivors and joiners; the dead DC is out of it), and the
	// lattice-merged view travels with it so even a receiver that missed
	// the proposal converges in one hop.
	r.viewMu.Lock()
	if r.view.Get(dead) != msg.DCLeft {
		r.view.Status[dead] = msg.DCLeft
		r.view.Epoch++
	}
	r.view.SetFinal(dead, final)
	r.rebuildTargetsLocked()
	view = r.view.Clone()
	r.viewMu.Unlock()
	r.retireLink(dead)
	r.sealDeparted(dead, final)
	notice := msg.EvictNotice{DC: dead, Final: final, View: view}
	for _, dc := range *r.targets.Load() {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, notice)
	}
	return final, nil
}

// HandleEvictProposal attests this node's version-vector entry for the DC
// under eviction and freezes it there until the verdict (or the freeze
// grace) — between the ack and the notice a gap-free straggler must not
// push the entry past what was attested, or the agreed final could cut
// below an already-claimed prefix.
func (r *Manager) HandleEvictProposal(src netemu.NodeID, m msg.EvictProposal) {
	if !r.validSrc(src.DC) || m.DC < 0 || m.DC >= r.maxDCs {
		return
	}
	r.applyView(m.View)
	if m.DC == r.m {
		return // nobody attests their own eviction; the notice is the verdict
	}
	st := r.in[m.DC]
	st.mu.Lock()
	entry := r.be.VVEntry(m.DC)
	st.evictCap = entry
	st.evictCapUntil = time.Now().Add(evictFreezeGrace)
	st.mu.Unlock()
	r.ep.Send(src, msg.EvictAck{DC: m.DC, ReqID: m.ReqID, Entry: entry})
}

// HandleEvictAck folds one survivor's attestation into the round in
// progress; the last awaited ack completes it.
func (r *Manager) HandleEvictAck(src netemu.NodeID, m msg.EvictAck) {
	if !r.validSrc(src.DC) {
		return
	}
	r.evictMu.Lock()
	round := r.evict
	if round == nil || round.dc != m.DC || round.reqID != m.ReqID || !round.need[src.DC] {
		r.evictMu.Unlock()
		return
	}
	delete(round.need, src.DC)
	if m.Entry > round.final {
		round.final = m.Entry
	}
	if len(round.need) == 0 {
		close(round.done)
	}
	r.evictMu.Unlock()
}

// HandleEvictNotice adopts the eviction verdict: record the agreed final in
// the lattice and merge the view — the Left transition retires the link,
// purges the dead DC's un-agreed suffix from storage, and starts gap-fill
// rounds if this node's prefix is short of the final (sealDeparted, via
// applyView). A notice naming this node's own DC means the deployment
// declared *us* dead while we were merely unreachable: the merge retires
// this node (writes refused, fan-out emptied) — the data is safe on the
// survivors up to the final, and rejoining requires a fresh join.
func (r *Manager) HandleEvictNotice(src netemu.NodeID, m msg.EvictNotice) {
	if m.DC < 0 || m.DC >= r.maxDCs {
		return
	}
	r.setFinal(m.DC, m.Final)
	r.applyView(m.View)
	r.maybeFinishJoin() // a joiner no longer waits on the departed link
}

// Close stops the background loops and any catch-up streams in progress.
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

// ---------------------------------------------------------------------------
// Outbound: publish, flush, heartbeat
// ---------------------------------------------------------------------------

// ErrRetired is returned by Publish after the local DC has left the
// deployment: nothing rides the links anymore, so acking a write then would
// lose it the moment the node shuts down.
var ErrRetired = errors.New("repl: local DC has left the deployment")

// Locked runs fn under the outbound lock, serialized against Publish's
// critical section. The slot-table fence uses it: installing a new table
// inside Locked guarantees that every write committed under the old table
// has already raised the local version-vector entry when the install
// returns, so a reshard's drain marks (captured after the install) cover
// every version the old layout will ever produce. An RO-TX slice raises the
// local entry to a clock reading in here: no PUT's timestamp can straddle it.
func (r *Manager) Locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// Publish runs the local write path: under the outbound lock it lets the
// backend assign v its timestamp and install it, then enqueues v for
// replication, flushing inline when the buffer reaches batchCap. It
// returns ErrRetired when the DC has left the deployment, and surfaces the
// backend's refusal (stopped, or the key's slot moved away) verbatim.
func (r *Manager) Publish(v *item.Version) (vclock.Timestamp, error) {
	r.mu.Lock()
	if r.retired.Load() {
		r.mu.Unlock()
		return 0, ErrRetired
	}
	ut, err := r.be.PrepareLocal(v)
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	if r.fanout {
		r.buf = append(r.buf, v)
		if len(r.buf) >= batchCap {
			r.flushLocked()
		}
	}
	r.mu.Unlock()
	return ut, nil
}

// flushLocked stamps the buffered updates with the next batch sequence and
// sends them to every member DC. Called with mu held so batches (and
// heartbeats) leave each link in timestamp order. The buffer's slice is
// handed to the message (versions are immutable and shared across DCs;
// receivers of an emulated deployment read the very same slice).
// With an empty fan-out (a deployment not yet grown) the sequence still
// advances and the versions rest in the WAL — a later joiner's first
// contact sees the sequence and pulls them through catch-up.
func (r *Manager) flushLocked() {
	if len(r.buf) == 0 {
		return
	}
	r.seq++
	hb := r.buf[len(r.buf)-1].UpdateTime
	if hb > r.lastTS {
		r.lastTS = hb
	}
	// Boxed once: every target DC's link gets the same immutable message.
	var m any = msg.ReplicateBatch{Versions: r.buf, HBTime: hb, Epoch: r.epoch, Seq: r.seq,
		Floor: r.floor, SlotEpoch: r.be.SlotEpoch()}
	// The message owns the old buffer now. The next window starts with the
	// capacity this one reached — one allocation per flush instead of a
	// doubling chain from nil — halved after a window that left most of it
	// unused, so it follows the load down as well as up.
	c := cap(r.buf)
	if len(r.buf) < c/4 {
		c /= 2
	}
	r.buf = make([]*item.Version, 0, c)
	for _, dc := range *r.targets.Load() {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, m)
	}
}

// heartbeatLoop flushes the buffer every Δ — the flush cadence — and
// broadcasts the local clock when the sibling DCs have been told nothing for
// a heartbeat interval (Algorithm 2, lines 19-26). Heartbeats are suppressed
// while updates sit in the buffer, so they never overtake buffered versions
// with smaller timestamps. The rule reads lastTS, what the links last carried,
// not the local version-vector entry: RO-TX slices raise that entry and send
// nothing (core.Server.serveSlice), so a partition serving slices but no PUT
// would look busy forever and its siblings' entry for this DC would freeze.
func (r *Manager) heartbeatLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.mu.Lock()
		r.flushLocked()
		ct := r.clk.Now()
		idle := len(r.buf) == 0 && ct >= r.lastTS+vclock.Timestamp(r.cfg.HeartbeatInterval)
		if idle {
			if ct > r.lastTS {
				r.lastTS = ct
			}
			var hb any = msg.Heartbeat{Time: ct, Epoch: r.epoch, Seq: r.seq, Floor: r.floor}
			for _, dc := range *r.targets.Load() {
				r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, hb)
			}
		}
		r.mu.Unlock()
		if idle {
			r.be.RaiseVV(r.m, ct)
		}
		if r.joining.Load() && !r.joinFailed.Load() {
			if r.cfg.JoinTimeout > 0 && time.Since(r.joinStart) > r.cfg.JoinTimeout {
				// Abandon the bootstrap: stop soliciting and let the owner
				// unwind the half-joined DC via JoinFailed.
				r.joinFailed.Store(true)
			} else {
				// A lost JoinRequest (or a sibling that was down) must not
				// wedge the bootstrap: re-ask until every active link has
				// made first contact — with jittered exponential backoff, so
				// a deployment that cannot answer is not flooded — and
				// re-check completion in case the last sync arrived without
				// a message to piggyback on.
				r.viewMu.Lock()
				wait := r.joinBackoff
				if wait > 0 {
					wait += time.Duration(rand.Int64N(int64(wait/2) + 1))
				}
				resend := time.Since(r.joinAskAt) > wait
				r.viewMu.Unlock()
				if resend {
					r.sendJoinRequests()
				}
				r.maybeFinishJoin()
			}
		}
		// Departed-DC gaps heal through ordinary catch-up on the live links;
		// retry until the recorded finals are reached (a one-shot round can
		// race a survivor that has not yet learned of the departure and
		// answers without a claim).
		r.fillDepartedGaps()
	}
}

// adaptiveFlushLoop is the load-sensitive half of the flush cadence: at a
// quarter of Δ it flushes any buffer that has already filled a quarter of
// batchCap. Under load this shrinks the effective Δ (remote visibility
// improves) without touching the idle cadence — it only ever flushes earlier
// than the heartbeat tick, never later, so the Δ freshness bound is
// preserved. The size trigger keeps the extra wakeups from fragmenting
// batches when traffic is light.
func (r *Manager) adaptiveFlushLoop(interval time.Duration) {
	defer r.wg.Done()
	t := time.NewTicker(interval / 4)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.mu.Lock()
		if len(r.buf) >= batchCap/4 {
			r.flushLocked()
		}
		r.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Inbound: sequenced apply and gap detection
// ---------------------------------------------------------------------------

// HandleBatch installs a replicated batch and advances the sender DC's
// version-vector entry when the link's sequence is intact. Versions are
// always installed — POCC serves the freshest received version regardless —
// only the VV advance (the claim "I hold the complete prefix") is gated.
func (r *Manager) HandleBatch(src netemu.NodeID, m msg.ReplicateBatch) {
	if !r.validSrc(src.DC) {
		return
	}
	adv := m.HBTime
	if n := len(m.Versions); n > 0 {
		if last := m.Versions[n-1].UpdateTime; last > adv {
			adv = last
		}
	}
	// HLC receive rule: fold the remote attestation into the local clock so
	// the next local write is stamped past everything it could depend on.
	r.clk.Observe(adv)
	if r.deferWhilePending(src.DC, m, adv) {
		return
	}
	r.be.ApplyRemote(r.filterDeparted(m.Versions), m.SlotEpoch)
	r.handleSequenced(src.DC, m.Epoch, m.Seq, m.Floor, adv, true)
}

// deferWhilePending parks a fresh sequenced batch while a catch-up round is
// in flight on its link, returning true if the batch was consumed. The
// round's bookkeeping still runs — the chain must record the batch for the
// splice at Done, and a quiet round must be re-requested — but the store
// application is postponed until the round completes (or the link retires),
// so chunk application is never starved of CPU by fresh traffic. A VV raise
// is not owed here: a pending link's entry is frozen by definition, and the
// drain runs before the completion raises.
func (r *Manager) deferWhilePending(dc int, m msg.ReplicateBatch, adv vclock.Timestamp) bool {
	st := r.in[dc]
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state != LinkCatchingUp || st.deferredBytes >= deferMaxBytes {
		return false
	}
	for _, v := range m.Versions {
		if v != nil {
			st.deferredBytes += versionBytes(v)
		}
	}
	st.deferred = append(st.deferred, deferredBatch{vs: m.Versions, slotEpoch: m.SlotEpoch})
	r.statDeferred.Add(1)
	r.noteChainLocked(st, m.Epoch, m.Seq, adv, true)
	if time.Since(st.reqAt) > r.reRequest {
		r.startCatchUpLocked(st, dc)
	}
	return true
}

// HandleHeartbeat advances the sender DC's version-vector entry
// (Algorithm 2, lines 27-28), gated on the link sequence like a batch: a
// heartbeat re-attests the sender's current sequence, which is exactly how
// an idle restarted sender (whose buffered tail died with it) is detected.
func (r *Manager) HandleHeartbeat(src netemu.NodeID, m msg.Heartbeat) {
	if !r.validSrc(src.DC) {
		return
	}
	r.clk.Observe(m.Time)
	r.handleSequenced(src.DC, m.Epoch, m.Seq, m.Floor, m.Time, false)
}

// validSrc reports whether dc is a plausible remote source this node can
// track — inbound state is indexed by DC id, so an id outside the vector
// capacity (a corrupted or hostile frame) must be dropped, not indexed.
func (r *Manager) validSrc(dc int) bool {
	return dc >= 0 && dc < r.maxDCs && dc != r.m
}

// filterDeparted screens an inbound version slice: once a DC has departed
// with an agreed final, versions it originated beyond the final are its
// un-agreed suffix — installing a straggler would resurrect state the
// forced removal already purged. The shared slice is never mutated (one
// flush fans the same message out to every sibling); a filtered copy is
// built only when something must be dropped.
func (r *Manager) filterDeparted(vs []*item.Version) []*item.Version {
	if len(vs) == 0 {
		return vs
	}
	r.viewMu.Lock()
	var status []uint8
	var finals vclock.VC
	for _, st := range r.view.Status {
		if st == msg.DCLeft {
			status = append([]uint8(nil), r.view.Status...)
			finals = r.view.Final.Clone()
			break
		}
	}
	r.viewMu.Unlock()
	if status == nil {
		return vs // nobody has departed: the common case, zero extra work
	}
	drop := func(v *item.Version) bool {
		d := v.SrcReplica
		return d >= 0 && d < len(status) && status[d] == msg.DCLeft &&
			finals.Get(d) > 0 && v.UpdateTime > finals.Get(d)
	}
	for i, v := range vs {
		if drop(v) {
			out := make([]*item.Version, i, len(vs))
			copy(out, vs[:i])
			for _, w := range vs[i+1:] {
				if !drop(w) {
					out = append(out, w)
				}
			}
			return out
		}
	}
	return vs
}

// handleSequenced runs the receiver state machine for one sequenced message
// on the link from dc. A batch consumes the next sequence number; a
// heartbeat re-attests the current one. adv is the VV advance the message
// carries when the sequence is intact; floor is the sender incarnation's
// starting history floor.
func (r *Manager) handleSequenced(dc int, epoch, seq uint64, floor, adv vclock.Timestamp, isBatch bool) {
	if final, left := r.leftFinal(dc); left {
		// A straggler from a departed DC (in flight when the notice overtook
		// it on another link): after a graceful leave nothing it attests can
		// exceed the announced final, and after a forced removal anything
		// beyond the agreed final is the dead DC's un-agreed suffix — never
		// attested, so the advance is capped there. No catch-up round may
		// start toward a DC that no longer answers.
		if final > 0 && adv > final {
			adv = final
		}
		r.be.RaiseVV(dc, adv)
		return
	}
	st := r.in[dc]
	var raise vclock.Timestamp
	st.mu.Lock()
	base := seq
	if isBatch {
		base = seq - 1
	}
	switch {
	case st.state == LinkCatchingUp:
		// Catch-up in flight: track the chain for the splice at Done, and
		// re-issue the request if the round has gone quiet (a request lost
		// to a dropping link must not freeze the link forever).
		r.noteChainLocked(st, epoch, seq, adv, isBatch)
		if time.Since(st.reqAt) > r.reRequest {
			r.startCatchUpLocked(st, dc)
		}
	case st.state == LinkIdle:
		if base == 0 && floor <= r.be.VVEntry(dc) {
			// Nothing precedes this message in the sender's incarnation
			// (batch 1, or an idle heartbeat before any flush) and this
			// node's progress covers the incarnation's starting floor, so
			// the sender's entire past is already here: adopt the stream.
			r.setStateLocked(st, LinkActive)
			st.epoch, st.seq = epoch, seq
			raise = adv
		} else {
			// The link has history this node never saw — it is the one that
			// restarted (or came up late). Resync from the recovered floor.
			r.startCatchUpLocked(st, dc)
			r.noteChainLocked(st, epoch, seq, adv, isBatch)
		}
	case epoch == st.epoch && isBatch && seq == st.seq+1:
		st.seq = seq
		raise = adv
	case epoch == st.epoch && !isBatch && seq == st.seq:
		raise = adv
	case epoch == st.epoch && seq <= st.seq:
		// Duplicate delivery (at-least-once transports); already applied.
	default:
		// A sequence hole, or a new sender incarnation whose pre-crash
		// buffer tail is gone: freeze the VV entry and fetch the missing
		// history out of the sender's log.
		r.startCatchUpLocked(st, dc)
		r.noteChainLocked(st, epoch, seq, adv, isBatch)
	}
	// The raise happens under the link lock so an eviction ack (which reads
	// the entry and freezes it at the attested point, also under the lock)
	// serializes with it — no raise can slip past a just-sent attestation.
	if raise > 0 {
		r.be.RaiseVV(dc, capRaiseLocked(st, raise))
	}
	st.mu.Unlock()
	r.maybeFinishJoin() // a first-contact adoption may have been the last link
}

// haveVV snapshots this node's full version vector — the Have field of a
// catch-up request, which tells the server what departed-origin history the
// requester is missing besides the link's own range.
func (r *Manager) haveVV() vclock.VC {
	have := make(vclock.VC, r.maxDCs)
	for i := range have {
		have[i] = r.be.VVEntry(i)
	}
	return have
}

// setStateLocked moves the link to state s: the only writer of inLink.state
// and the only place activeIn — the count of links catching up — moves.
// Called with st.mu held.
func (r *Manager) setStateLocked(st *inLink, s LinkState) {
	if st.state == s {
		return
	}
	if s == LinkCatchingUp {
		r.activeIn.Add(1)
	} else if st.state == LinkCatchingUp {
		r.activeIn.Add(-1)
	}
	st.state = s
}

// startCatchUpLocked opens a new catch-up round on the link: freeze VV
// advancement, reset the observed chain, and ask the sender for everything
// after this node's completion point. Called with st.mu held.
func (r *Manager) startCatchUpLocked(st *inLink, dc int) {
	r.setStateLocked(st, LinkCatchingUp)
	st.chainSet = false
	st.reqID = r.reqSeq.Add(1)
	st.reqAt = time.Now()
	st.nextChunk = 1
	r.statReq.Add(1)
	have := r.haveVV()
	if len(st.resume) > 0 {
		// A prior round for this link died mid-stream: ask only for history
		// past its persisted progress, not the whole range again.
		if st.resume.Get(dc) > have[dc] {
			r.statResumed.Add(1)
		}
		have.MaxInPlace(st.resume)
	}
	r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n},
		msg.CatchUpRequest{ReqID: st.reqID, From: have[dc], Have: have})
}

// noteChainLocked folds one sequenced message into the chain observed while
// a catch-up round is pending. The chain is the longest contiguous run of
// same-epoch messages ending at the newest one; on Done it either splices
// onto the resume point or proves another round is needed.
func (r *Manager) noteChainLocked(st *inLink, epoch, seq uint64, ts vclock.Timestamp, isBatch bool) {
	base := seq
	if isBatch {
		base = seq - 1
	}
	switch {
	case !st.chainSet:
	case epoch == st.chainEpoch && isBatch && seq == st.chainSeq+1:
		st.chainSeq = seq
		if ts > st.chainTS {
			st.chainTS = ts
		}
		return
	case epoch == st.chainEpoch && !isBatch && seq == st.chainSeq:
		if ts > st.chainTS {
			st.chainTS = ts
		}
		return
	case epoch == st.chainEpoch && seq <= st.chainSeq:
		return // duplicate
	}
	// First message of the round, or a discontinuity: restart the chain here.
	st.chainSet = true
	st.chainEpoch = epoch
	st.chainBase = base
	st.chainSeq = seq
	st.chainTS = ts
}

// HandleCatchUpReply installs a catch-up chunk, acknowledges it (the
// sender's backpressure window), and on the final chunk completes the round:
// raise the VV through the streamed history, splice the chain of batches
// that arrived meanwhile, and either resume normal sequencing or start the
// next round from the new floor.
func (r *Manager) HandleCatchUpReply(src netemu.NodeID, m msg.CatchUpReply) {
	if !r.validSrc(src.DC) {
		return
	}
	if len(m.Versions) > 0 {
		r.be.ApplyRemote(r.filterDeparted(m.Versions), m.SlotEpoch)
	}
	if !m.Done {
		r.ep.Send(src, msg.CatchUpAck{ReqID: m.ReqID, Chunk: m.Chunk})
		st := r.in[src.DC]
		st.mu.Lock()
		if st.state == LinkCatchingUp && st.reqID == m.ReqID {
			// A flowing stream is alive: refresh the re-request clock so a
			// long stream is not superseded mid-flight, and persist the
			// sender's progress claim once every chunk up to this one has
			// been applied — the resume point a follow-up round starts from
			// if this stream dies before Done.
			st.reqAt = time.Now()
			if m.Chunk == st.nextChunk {
				st.nextChunk++
				if len(m.Progress) > 0 {
					st.resume = st.resume.GrowTo(len(m.Progress))
					st.resume.MaxInPlace(m.Progress)
				}
			}
		}
		st.mu.Unlock()
		return
	}
	r.clk.Observe(m.Through)
	st := r.in[src.DC]
	st.mu.Lock()
	for {
		if st.state != LinkCatchingUp || st.reqID != m.ReqID {
			st.mu.Unlock()
			return // a stale stream; the live round will complete on its own
		}
		if len(st.deferred) == 0 {
			break
		}
		// Drain the fresh traffic parked during the round before its
		// completion raises the VV: the chain splice below may attest the
		// chain tip, which covers these batches. Application happens
		// outside the link lock (ApplyRemote and filterDeparted take their
		// own locks); re-check the round afterwards — a concurrent
		// supersede or retirement ends this completion.
		batches := st.deferred
		st.deferred, st.deferredBytes = nil, 0
		st.mu.Unlock()
		for _, b := range batches {
			r.be.ApplyRemote(r.filterDeparted(b.vs), b.slotEpoch)
		}
		st.mu.Lock()
	}
	st.resume, st.nextChunk = nil, 0
	r.statDone.Add(1)
	if m.FullResync {
		r.statFullResync.Add(1)
	}
	var chainRaise vclock.Timestamp
	again := false
	switch {
	case !st.chainSet:
		r.setStateLocked(st, LinkActive)
		st.epoch, st.seq = m.ResumeEpoch, m.ResumeSeq
	case st.chainEpoch == m.ResumeEpoch && st.chainBase <= m.ResumeSeq:
		// The observed chain connects to the resume point: everything
		// between Through and the chain's tip has been applied in order.
		r.setStateLocked(st, LinkActive)
		st.epoch = st.chainEpoch
		st.seq = st.chainSeq
		if m.ResumeSeq > st.seq {
			st.seq = m.ResumeSeq
		}
		if st.chainSeq > m.ResumeSeq {
			chainRaise = st.chainTS
		}
	default:
		// Still a hole between the resume point and what arrived during the
		// round — go again: the link stays catching-up. The next round
		// starts from Through (raised below), strictly past this one's
		// floor, so rounds make progress.
		again = true
	}
	// The sender guarantees every version it originated with a timestamp ≤
	// Through is now present (previously received, or streamed in this
	// round). An Unsupported reply makes the same advance on the optimistic
	// fallback semantics instead. Raised under the link lock (capped by a
	// pending eviction attestation) like every sequenced advance.
	r.be.RaiseVV(src.DC, capRaiseLocked(st, m.Through))
	if chainRaise > 0 {
		r.be.RaiseVV(src.DC, capRaiseLocked(st, chainRaise))
	}
	st.mu.Unlock()
	// Departed-origin claims: the sender streamed every version in
	// (Have[d], Through] it holds of each departed DC d, and its Through is
	// bounded by both the agreed final and its own prefix-complete entry —
	// so the advance asserts nothing this node does not now hold. Clamped
	// at the locally-known final for safety against view skew.
	for _, c := range m.Departed {
		if c.DC < 0 || c.DC >= r.maxDCs || c.DC == r.m || c.Through == 0 {
			continue
		}
		t := c.Through
		if f := r.finalOf(c.DC); f > 0 && t > f {
			t = f
		}
		r.be.RaiseVV(c.DC, t)
	}
	if again {
		st.mu.Lock()
		// Unless a quiet-round re-request already replaced the round this
		// Done closed, or the link retired, while the lock was released.
		if st.state == LinkCatchingUp && st.reqID == m.ReqID {
			r.startCatchUpLocked(st, src.DC)
		}
		st.mu.Unlock()
	}
	r.maybeFinishJoin() // a completed round may have been the last link
}

// ---------------------------------------------------------------------------
// Outbound catch-up serving
// ---------------------------------------------------------------------------

// HandleCatchUpRequest serves a lagging sibling: it snapshots the resume
// point and streams the requested history from the durable log on a
// dedicated goroutine. A newer request from the same DC supersedes the
// stream in progress.
func (r *Manager) HandleCatchUpRequest(src netemu.NodeID, m msg.CatchUpRequest) {
	if !r.validSrc(src.DC) || r.statusOf(src.DC) == msg.DCLeft {
		return // nothing is owed to a departed DC
	}
	r.noteHoldback(src.DC, m)
	s := &catchUpServe{
		dc:     src.DC,
		reqID:  m.ReqID,
		acks:   make(chan uint64, 256),
		cancel: make(chan struct{}),
	}
	r.serveMu.Lock()
	if r.stopped.Load() {
		r.serveMu.Unlock()
		return
	}
	if old := r.serving[src.DC]; old != nil {
		close(old.cancel)
	}
	r.serving[src.DC] = s
	r.wg.Add(1)
	r.serveMu.Unlock()
	go func() {
		defer r.wg.Done()
		r.serveCatchUp(src, s, m)
		r.serveMu.Lock()
		if r.serving[src.DC] == s {
			delete(r.serving, src.DC)
		}
		r.serveMu.Unlock()
	}()
}

// noteHoldback records (or refreshes) the GC floor owed to a lagging
// requester: its full version vector is exactly what it has — the local GC
// contribution must not pass it while the laggard drains (ClampGC). Floors
// only rise; the entry expires once the laggard goes quiet or ages past
// the holdback cap.
func (r *Manager) noteHoldback(dc int, m msg.CatchUpRequest) {
	now := time.Now()
	floors := m.Have.Clone().GrowTo(r.maxDCs)
	if m.From > floors[r.m] {
		floors[r.m] = m.From
	}
	r.holdMu.Lock()
	if hb := r.holdbacks[dc]; hb != nil {
		hb.floors = hb.floors.GrowTo(len(floors))
		hb.floors.MaxInPlace(floors)
		hb.lastReq = now
	} else {
		r.holdbacks[dc] = &holdback{floors: floors, since: now, lastReq: now}
	}
	r.holdMu.Unlock()
}

// HandleCatchUpAck credits one chunk back to the in-flight window of the
// stream it belongs to.
func (r *Manager) HandleCatchUpAck(src netemu.NodeID, m msg.CatchUpAck) {
	if !r.validSrc(src.DC) {
		return
	}
	r.serveMu.Lock()
	s := r.serving[src.DC]
	r.serveMu.Unlock()
	if s == nil || s.reqID != m.ReqID {
		return
	}
	select {
	case s.acks <- m.Chunk:
	default: // window is tiny relative to the channel; a full channel means
		// the stream is already unblocked by earlier acks
	}
}

// versionBytes approximates a version's wire footprint for the in-flight
// window accounting.
func versionBytes(v *item.Version) int {
	return len(v.Key) + len(v.Value) + 10*len(v.Deps) + 24
}

// serveCatchUp streams every version this node originated in (from,
// through] out of the durable log, in acknowledged chunks no larger than
// the in-flight window, then sends the resume point. The through/resumeSeq
// pair is captured under the outbound lock after a flush, which establishes
// the invariant the receiver relies on: every version ≤ through has been
// handed to the transport in a batch with sequence ≤ resumeSeq (and is in
// the log), and every later version rides a higher sequence.
//
// Besides its own history, the stream re-ships departed-origin versions the
// requester lacks: for every DC the view records as Left, the range
// (Have[d], min(final, own entry)] rides along, bounded by a claim in the
// Done chunk so the receiver can advance its vector for the departed DC —
// this is how survivors close their eviction gaps and how joiners bootstrap
// the history of DCs that left before they arrived.
//
// If a requested range starts below the WAL's checkpoint-compacted boundary
// it cannot be served incrementally (superseded versions in it are gone):
// the stream restarts from zero and the Done chunk says so (FullResync) —
// never a silently incomplete range.
func (r *Manager) serveCatchUp(src netemu.NodeID, s *catchUpServe, req msg.CatchUpRequest) {
	r.mu.Lock()
	r.flushLocked()
	through := r.lastTS
	resumeSeq := r.seq
	r.mu.Unlock()

	from := req.From
	r.viewMu.Lock()
	var claims []msg.DepartedClaim
	for dc, st := range r.view.Status {
		if st != msg.DCLeft || dc == r.m || dc == src.DC {
			continue
		}
		to := r.be.VVEntry(dc)
		if f := r.view.FinalOf(dc); f > 0 && f < to {
			to = f
		}
		if to > req.Have.Get(dc) {
			claims = append(claims, msg.DepartedClaim{DC: dc, Through: to})
		}
	}
	r.viewMu.Unlock()

	done := msg.CatchUpReply{
		ReqID: s.reqID, Done: true,
		ResumeEpoch: r.epoch, ResumeSeq: resumeSeq, Through: through,
		Departed: claims, SlotEpoch: r.be.SlotEpoch(),
	}
	if r.cfg.Source == nil {
		done.Unsupported = true
		r.ep.Send(src, done)
		return
	}

	// Per-origin stream bounds: own origin in (from, through], each claimed
	// departed origin in (Have[d], claim]. A floor below the checkpoint-
	// compacted boundary drops to zero and flags the full resync.
	compacted := r.cfg.Source.CompactedFloor()
	if from < compacted.Get(r.m) {
		from = 0
		done.FullResync = true
	}
	shipFloor := make(vclock.VC, r.maxDCs)
	shipCeil := make(vclock.VC, r.maxDCs)
	shipFloor[r.m], shipCeil[r.m] = from, through
	for _, c := range claims {
		f := req.Have.Get(c.DC)
		if f < compacted.Get(c.DC) {
			f = 0
			done.FullResync = true
		}
		shipFloor[c.DC], shipCeil[c.DC] = f, c.Through
	}

	// Resumable rounds: mid-stream progress claims for this node's own
	// origin. A claim stamped on chunk k asserts that every own-origin
	// version at or below it that the requester asked for rides in chunks
	// 1..k — so a round that dies mid-stream can resume past the claim
	// instead of restarting from the request floor. The claim only advances
	// on own-origin tail versions: those arrive in ascending
	// timestamp order after all own-origin snapshot history, making the
	// assertion sound the moment the version is shipped. It freezes if the
	// ascending order is ever violated (defensive — local commits append in
	// timestamp order) and never advances through an unordered snapshot,
	// where no mid-stream completeness claim can be proven.
	var (
		ownClaim   vclock.Timestamp
		ownLast    vclock.Timestamp
		ownOrdered = true
	)
	var (
		chunkID    uint64
		chunk      []*item.Version
		chunkBytes int
		inFlight   int
		window     []struct {
			id    uint64
			bytes int
		}
	)
	sendChunk := func() error {
		if len(chunk) == 0 {
			return nil
		}
		// Backpressure: wait for acks while the window is full. The first
		// chunk always goes out, so a window smaller than one chunk still
		// streams (one chunk at a time).
		for inFlight > 0 && inFlight+chunkBytes > catchUpWindow {
			select {
			case <-s.cancel:
				return errCanceled
			case <-r.stop:
				return errCanceled
			case ack := <-s.acks:
				for len(window) > 0 && window[0].id <= ack {
					inFlight -= window[0].bytes
					window = window[1:]
				}
			}
		}
		chunkID++
		cm := msg.CatchUpReply{ReqID: s.reqID, Chunk: chunkID, Versions: chunk,
			SlotEpoch: r.be.SlotEpoch()}
		if ownClaim > 0 {
			p := make(vclock.VC, r.maxDCs)
			p[r.m] = ownClaim
			cm.Progress = p
		}
		r.ep.Send(src, cm)
		window = append(window, struct {
			id    uint64
			bytes int
		}{chunkID, chunkBytes})
		inFlight += chunkBytes
		chunk, chunkBytes = nil, 0
		return nil
	}

	walk := func(v *item.Version, tail bool) error {
		select {
		case <-s.cancel:
			return errCanceled
		case <-r.stop:
			return errCanceled
		default:
		}
		d := v.SrcReplica
		if tail && d == r.m && ownOrdered {
			if v.UpdateTime <= ownLast {
				ownOrdered = false
			} else {
				ownLast = v.UpdateTime
				// Below the floor the requester already holds it; above the
				// ceiling it is outside the round — either way every needed
				// own version at or below t is shipped once this one is.
				t := v.UpdateTime
				if c := shipCeil[d]; t > c {
					t = c
				}
				if t > ownClaim {
					ownClaim = t
				}
			}
		}
		if d < 0 || d >= r.maxDCs || v.UpdateTime <= shipFloor[d] || v.UpdateTime > shipCeil[d] {
			return nil
		}
		chunk = append(chunk, v)
		chunkBytes += versionBytes(v)
		if chunkBytes >= catchUpChunkBytes {
			return sendChunk()
		}
		return nil
	}
	// Seek plus provenance: segments outside the requested windows are
	// skipped, so a small gap is served in O(gap), and tail versions carry
	// the ordering guarantee the progress claims need.
	err := r.cfg.Source.ForEachDurable(shipFloor, shipCeil, walk)
	if err == nil {
		err = sendChunk()
	}
	if err != nil {
		if errors.Is(err, errCanceled) {
			return // superseded or shutting down; no resume point
		}
		// The log could not prove completeness (read error). Answer
		// Unsupported so the receiver falls back to optimistic semantics
		// instead of freezing forever — the same degradation as a sticky
		// persistence error.
		done.Unsupported = true
		r.ep.Send(src, done)
		return
	}
	r.ep.Send(src, done)
	r.statServed.Add(1)
}

// ---------------------------------------------------------------------------
// Catch-up-aware garbage collection
// ---------------------------------------------------------------------------

// servingTo reports whether an outbound catch-up stream to dc is live.
func (r *Manager) servingTo(dc int) bool {
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	return r.serving[dc] != nil
}

// ClampGC caps the server's local GC contribution so the global prune point
// never passes history a laggard still needs: each recently-served catch-up
// requester pins the vector at its recorded floors (what it actually holds),
// and a Joining DC mid-bootstrap pins it at zero (it needs everything).
// Entries are clamped in place and gv is returned for convenience.
//
// A holdback older than maxAge is released — GC advances and the laggard's
// next incremental request is answered with a full resync instead (the
// GCMaxHoldback escape hatch, so one wedged replica cannot pin the
// deployment's garbage forever). A negative maxAge never releases. Expired
// holdbacks (no request within the re-request grace and no stream in
// flight) are dropped: the laggard either caught up or died, and a dead
// laggard that returns re-bootstraps through the same full-resync path.
func (r *Manager) ClampGC(gv vclock.VC, maxAge time.Duration) vclock.VC {
	now := time.Now()
	r.viewMu.Lock()
	var joining []int
	for dc, st := range r.view.Status {
		if dc != r.m && st == msg.DCJoining {
			joining = append(joining, dc)
		}
	}
	r.viewMu.Unlock()

	grace := 4 * r.reRequest
	r.holdMu.Lock()
	for _, dc := range joining {
		if _, ok := r.joinSeen[dc]; !ok {
			r.joinSeen[dc] = now
		}
	}
	for dc := range r.joinSeen {
		still := false
		for _, j := range joining {
			if j == dc {
				still = true
				break
			}
		}
		if !still {
			delete(r.joinSeen, dc)
		}
	}
	zero := false
	for _, t := range r.joinSeen {
		if maxAge < 0 || now.Sub(t) <= maxAge {
			zero = true
		}
	}
	var floors vclock.VC
	constrained := false
	for dc, hb := range r.holdbacks {
		if now.Sub(hb.lastReq) > grace && !r.servingTo(dc) {
			delete(r.holdbacks, dc)
			continue
		}
		if maxAge >= 0 && now.Sub(hb.since) > maxAge {
			continue // released: the laggard re-bootstraps via full resync
		}
		if !constrained {
			floors = hb.floors.Clone()
			constrained = true
			continue
		}
		// Two laggards: the effective floor is the entry-wise minimum.
		floors = floors.GrowTo(len(hb.floors))
		for i := range floors {
			if f := hb.floors.Get(i); f < floors[i] {
				floors[i] = f
			}
		}
	}
	r.holdMu.Unlock()
	if zero {
		for i := range gv {
			gv[i] = 0
		}
		return gv
	}
	if constrained {
		for i := range gv {
			if f := floors.Get(i); gv[i] > f {
				gv[i] = f
			}
		}
	}
	return gv
}

// HoldbackAge reports how long the oldest live GC holdback (a lagging
// catch-up requester, or a joiner mid-bootstrap) has pinned the prune
// point; zero when nothing is held. Observability for the stats surface.
func (r *Manager) HoldbackAge() time.Duration {
	now := time.Now()
	r.holdMu.Lock()
	defer r.holdMu.Unlock()
	var oldest time.Time
	for _, hb := range r.holdbacks {
		if oldest.IsZero() || hb.since.Before(oldest) {
			oldest = hb.since
		}
	}
	for _, t := range r.joinSeen {
		if oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}
