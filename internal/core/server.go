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

// Config parameterizes a Server. The embedded repl.Config holds the options
// the server shares with its replication plane — its coordinate, layout,
// clock and endpoint, Δ, the DC capacity and membership, the join and GC
// holdback bounds — and is handed to repl.NewManager whole.
type Config struct {
	repl.Config
	// NumPartitions (N) is the number of partitions per data center.
	NumPartitions int
	// DefaultMode is the visibility protocol of the deployment: Optimistic
	// for POCC and HA-POCC, Pessimistic for Cure*. Individual requests carry
	// their session's mode, enabling HA-POCC's mixed operation.
	DefaultMode Mode
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
	// MaxPartitions caps the partition ids this server can ever track
	// within its DC — the headroom for splitting partitions at runtime,
	// mirroring MaxDCs: the same-DC peer state (stabilization and GC
	// inputs, RO-TX fan-in) is reserved up front. 0 means NumPartitions —
	// a fixed partition count, the pre-reshard behavior and footprint.
	MaxPartitions int
	// SlotMap is the initial slot table routing keys to partition servers
	// within the DC; nil selects the epoch-0 table over NumPartitions
	// (keyspace.DefaultMap). Operations on keys whose slot this server does
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
	if _, err := c.DCCapacity(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.MaxPartitions != 0 && c.MaxPartitions < c.NumPartitions {
		return fmt.Errorf("core: MaxPartitions %d below NumPartitions %d", c.MaxPartitions, c.NumPartitions)
	}
	if n := c.maxPartitions(); n > keyspace.NumSlots {
		return fmt.Errorf("core: %d partitions exceed the slot universe (at most %d per DC)", n, keyspace.NumSlots)
	}
	return nil
}

// maxPartitions resolves the same-DC peer-state capacity.
func (c *Config) maxPartitions() int {
	if c.MaxPartitions != 0 {
		return c.MaxPartitions
	}
	return c.NumPartitions
}

// Server is one partition replica p_n^m.
type Server struct {
	cfg      Config
	m        int // data center id
	n        int // partition id
	maxDCs   int // version-vector capacity (DC ids this server can track)
	maxParts int // same-DC peer-state capacity (partition ids trackable)
	clk      *clock.Clock
	ep       netemu.Transport
	store    storage.Engine
	durable  *storage.Durable // store, when DataDir opened it from a log; nil in memory
	mx       *Metrics

	// slots is the current slot table (immutable; swapped whole under
	// slotMu, read lock-free on the per-operation ownership check).
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

// NewServer builds and starts a partition server: its network handler is
// installed and its heartbeat/stabilization/GC loops are running when
// NewServer returns.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SlotMap == nil {
		cfg.SlotMap = keyspace.DefaultMap(cfg.NumPartitions)
	} else if err := cfg.SlotMap.Validate(); err != nil {
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
	maxDCs, _ := cfg.DCCapacity() // validated above
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
	s.slots.Store(cfg.SlotMap.Clone())
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
	mgr, err := repl.NewManager(cfg.Config, (*replBackend)(s), src)
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

// Repl returns the server's replication plane: its membership view and link
// states, its catch-up counters, and the join, leave and eviction protocols.
func (s *Server) Repl() *repl.Manager { return s.repl }

// GSS returns a copy of the current globally stable snapshot.
func (s *Server) GSS() vclock.VC { return s.gss.snapshot() }

// handle is the server's network handler. It serves the same-DC exchanges,
// the slot-table gossip and the RO-TX slices itself; everything else belongs
// to the replication plane, which has one door.
func (s *Server) handle(src netemu.NodeID, m any) {
	if s.stopped.Load() {
		// A stopped (crashed, or departed) server receives nothing: racing
		// senders that have not yet processed the shutdown must not reach a
		// half-closed engine.
		return
	}
	switch mm := m.(type) {
	case msg.VVExchange:
		s.applyVVExchange(mm)
	case msg.GCExchange:
		s.applyGCExchange(mm)
	case msg.SlotMapUpdate:
		s.InstallSlotMap(mm.Map)
	case msg.SlotHandoff:
		// Idempotent store inserts only: the forwarder cannot vouch for the
		// origins' gap-free prefixes, so the VV must not move here. A list
		// holding a nil version (a wire nil marker) is dropped unread.
		if !slices.Contains(mm.Versions, nil) {
			s.store.InsertBatch(mm.Versions)
		}
	case *msg.SliceReq:
		s.serveSlice(src, mm) // never blocks the link: reads now, or parks
	case *msg.SliceResp:
		s.applySliceResp(src.Partition, mm)
	default:
		s.repl.Handle(src, m) // the replication plane's, or nobody's
	}
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
	if slotEpoch >= sm.Epoch {
		return
	}
	var byOwner map[int][]*item.Version
	for _, v := range vs {
		if o := sm.OwnerOf(v.Key); o != s.n {
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
// lines 5-15): wait until the server's state covers the client's
// dependencies (line 6, as in the paper's evaluation), wait until the local clock exceeds every dependency, assign
// the update timestamp, store the version, and replicate it asynchronously
// in timestamp order (buffered by repl.Manager.Publish, shipped on its flush
// cadence: internal/repl/outbound.go).
//
// The server takes ownership of value — it becomes the new version's payload,
// shared with every replica of an emulated deployment — so callers must not
// mutate it after the call. The copy that protects a caller's buffer is made
// once, where one is needed: the in-process session's Put (client.Session); a
// front-door PUT's key and value left their frame together, in one private
// copy (wire's Detach). dv is only borrowed: it is copied into the version
// (item.New: one allocation for both), so a session passes reusable scratch.
func (s *Server) Put(key string, value []byte, dv vclock.VC, mode Mode) (vclock.Timestamp, error) {
	if !s.ownsKey(key) {
		return 0, ErrWrongSlotEpoch
	}
	blocked, err := s.waitVV(dv, s.m)
	s.mx.PutBlocking.Record(blocked)
	if err != nil {
		return 0, err
	}

	// Ensure the new version's timestamp exceeds all its dependencies (the
	// clock-wait of Algorithm 2, line 7). A raw physical clock sleeps out
	// the skew; a hybrid clock waits on the physical component only and
	// satisfies the ordering with a logical bump, so skewed writers pay
	// nothing here.
	s.clk.SleepUntilAfter(dv.MaxEntry())

	if value == nil {
		value = []byte{} // a nil payload reads back as "no such key"
	}
	n := len(dv)
	if dv == nil {
		n = s.maxDCs
	}
	d := item.New(n)
	d.Key, d.Value, d.SrcReplica, d.Optimistic = key, value, s.m, mode == Optimistic
	copy(d.Deps, dv)

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
