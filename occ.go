package occ

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/netemu"
	"repro/internal/storage"
)

// Engine selects the consistency protocol of a Store. It is the deployment
// layer's own type under its public name: one set of values, one String.
type Engine = cluster.Engine

// Engines.
const (
	// POCC is Optimistic Causal Consistency: maximum freshness, blocking
	// lazy dependency resolution.
	POCC = cluster.POCC
	// CureStar is the pessimistic baseline (a Cure re-implementation with
	// GET/PUT support): stable-visibility reads via a stabilization protocol.
	CureStar = cluster.Cure
	// HAPOCC is highly available POCC: optimistic with pessimistic fallback
	// during network partitions.
	HAPOCC = cluster.HAPOCC
)

// ParseEngine maps an engine's name — what Engine.String prints, in any
// case, or the unpunctuated spellings pocc, cure, curestar, hapocc — to its
// value.
func ParseEngine(s string) (Engine, error) { return cluster.ParseEngine(s) }

// ErrSessionClosed is returned by HA-POCC sessions without auto-fallback
// when the server suspects a network partition.
var ErrSessionClosed = core.ErrSessionClosed

// ErrStopped is returned by operations that raced a stopped server — most
// commonly a RestartServer in progress. It is transient: retry once the
// restarted server is back.
var ErrStopped = core.ErrStopped

// ErrWrongSlotEpoch is returned by operations whose key's hash slot moved
// to another partition mid-operation and the server-side retry budget
// expired. It is retryable: refresh routing (automatic inside sessions) and
// retry. The network front door re-maps this across the wire so remote
// clients can drive the same retry policy with errors.Is.
var ErrWrongSlotEpoch = core.ErrWrongSlotEpoch

// LatencyProfile gives the one-way network delay between two data centers;
// src == dst is the intra-DC delay.
type LatencyProfile func(srcDC, dstDC int) time.Duration

// AWSProfile emulates the paper's testbed (Oregon, Virginia, Ireland RTTs of
// roughly 70/140/80 ms), scaled by the given factor. Scale 1.0 is the real
// thing; small scales (e.g. 0.02) keep experiments fast.
func AWSProfile(scale float64) LatencyProfile {
	inner := cluster.AWSLatency(scale)
	return func(src, dst int) time.Duration {
		return inner(netemu.NodeID{DC: src}, netemu.NodeID{DC: dst})
	}
}

// UniformProfile applies fixed intra- and inter-DC delays.
func UniformProfile(intra, inter time.Duration) LatencyProfile {
	return func(src, dst int) time.Duration {
		if src == dst {
			return intra
		}
		return inter
	}
}

// Config parameterizes a Store.
type Config struct {
	// DataCenters (M) and Partitions (N) shape the deployment. A full copy
	// of the data lives in every data center, sharded over N partitions.
	DataCenters int
	Partitions  int
	// Engine selects the consistency protocol. Required.
	Engine Engine
	// Latency is the emulated network profile. Nil means near-zero latency.
	Latency LatencyProfile
	// JitterFrac adds uniform jitter in [0, JitterFrac·delay) per message.
	JitterFrac float64
	// HeartbeatInterval is Δ of the protocol; defaults to 1 ms. Open rejects
	// a negative HeartbeatInterval, StabilizationInterval or BlockTimeout.
	HeartbeatInterval time.Duration
	// StabilizationInterval is the GSS exchange period; defaults to 5 ms for
	// CureStar and 500 ms for HAPOCC.
	StabilizationInterval time.Duration
	// GCInterval enables transaction-aware garbage collection (0 disables).
	GCInterval time.Duration
	// BlockTimeout is HA-POCC's partition-suspicion threshold; defaults to
	// 250 ms for HAPOCC.
	BlockTimeout time.Duration
	// Seed makes the emulation reproducible.
	Seed uint64
	// TCP carries inter-node traffic over real loopback TCP connections
	// instead of the emulated network. Latency, jitter and partition
	// injection are unavailable in this mode (PartitionNetwork and
	// PartitionReplication become no-ops).
	TCP bool
	// DataDir enables durable storage: every partition server persists its
	// versions to a write-ahead log under DataDir/dc<m>-p<n> and recovers
	// them when reopened — both on RestartServer and when a whole Store is
	// re-Opened over the same directory. A durable deployment also serves
	// replication catch-up: a replica that loses part of the update stream —
	// a crashed sender's unflushed tail, or a receiver cut off from the
	// network — detects the gap through per-link sequence numbers (every
	// deployment checks them) and recovers the missing versions from its
	// sibling's write-ahead log, with bounded data in flight. Empty (the
	// default) keeps the in-memory engines: fastest, but a killed server
	// loses its partition and a gap is resumed on the sender's word.
	DataDir string
	// CheckpointBytes is the WAL growth that arms a snapshot checkpoint on
	// the next garbage-collection pass (0 = 1 MiB, negative disables
	// checkpointing). Ignored without DataDir.
	CheckpointBytes int64
	// SegmentBytes is the WAL segment roll size (0 = 4 MiB). Ignored
	// without DataDir.
	SegmentBytes int64
	// NoSync skips the per-commit fsync — the bottom rung of the durability
	// ladder (see storage.AckMode for the ladder in full): much faster on
	// slow filesystems, but a machine crash may lose the latest commits (a
	// process crash usually does not). Ignored without DataDir.
	NoSync bool
	// AckMode picks where on the durability ladder local PUTs are
	// acknowledged: AckSync (default) returns only after the write's commit
	// group is fsynced; AckGrouped returns after the in-memory insert and
	// WAL staging, letting the background committer fsync the group — far
	// lower PUT latency, with durability trailing by at most one in-flight
	// commit group. Replication and catch-up completeness always wait on the
	// sync boundary regardless. Ignored without DataDir.
	AckMode AckMode
	// GroupCommitWindow is how long the WAL committer lingers to coalesce
	// concurrent commits into one fsync (0 = no added delay; pipelining
	// alone already batches whatever accumulates during the previous
	// fsync). Ignored without DataDir.
	GroupCommitWindow time.Duration
	// MaxDataCenters reserves capacity for data centers joining at runtime
	// (AddDataCenter): every server's causal metadata vectors are sized to
	// it up front. 0 means DataCenters — fixed membership, no joins. A
	// departed DC's slot is never reused, so this bounds the total joins
	// over the store's lifetime.
	MaxDataCenters int
	// MaxPartitions reserves capacity for partition servers added at runtime
	// (SplitPartition), the partition-axis analogue of MaxDataCenters. 0
	// means Partitions — a fixed partition count. At most keyspace.NumSlots.
	MaxPartitions int
}

// AckMode selects where on the durability ladder local PUTs are
// acknowledged (Config.AckMode). It is the storage engine's own type under
// its public name.
type AckMode = storage.AckMode

// Ack modes.
const (
	// AckSync acknowledges a PUT only after its commit group is durable.
	AckSync = storage.AckSync
	// AckGrouped acknowledges a PUT once it is staged on the WAL commit
	// pipeline; the fsync it rides happens in the background.
	AckGrouped = storage.AckGrouped
)

// Store is a running geo-replicated deployment.
type Store struct {
	inner  *cluster.Cluster
	engine Engine
}

// Open builds and starts a Store.
func Open(cfg Config) (*Store, error) {
	var lat netemu.LatencyFunc
	if cfg.Latency != nil {
		profile := cfg.Latency
		lat = func(src, dst netemu.NodeID) time.Duration {
			return profile(src.DC, dst.DC)
		}
	}
	inner, err := cluster.New(cluster.Config{
		NumDCs:                cfg.DataCenters,
		NumPartitions:         cfg.Partitions,
		Engine:                cfg.Engine,
		HeartbeatInterval:     cfg.HeartbeatInterval,
		StabilizationInterval: cfg.StabilizationInterval,
		GCInterval:            cfg.GCInterval,
		BlockTimeout:          cfg.BlockTimeout,
		Latency:               lat,
		JitterFrac:            cfg.JitterFrac,
		Seed:                  cfg.Seed,
		TCP:                   cfg.TCP,
		DataDir:               cfg.DataDir,
		Durable: storage.DurableOptions{
			CheckpointBytes: cfg.CheckpointBytes,
			SegmentBytes:    cfg.SegmentBytes,
			NoSync:          cfg.NoSync,
			AckMode:         cfg.AckMode,
			GroupWindow:     cfg.GroupCommitWindow,
		},
		MaxDCs:        cfg.MaxDataCenters,
		MaxPartitions: cfg.MaxPartitions,
	})
	if err != nil {
		return nil, fmt.Errorf("occ: %w", err)
	}
	return &Store{inner: inner, engine: cfg.Engine}, nil
}

// Close shuts the deployment down.
func (s *Store) Close() { s.inner.Close() }

// Engine returns the store's protocol.
func (s *Store) Engine() Engine { return s.engine }

// DataCenters returns the number of data-center slots created so far,
// including departed ones (slots are never reused, so this is one past the
// highest DC id a session may target).
func (s *Store) DataCenters() int { return s.inner.NumDCs() }

// MaxDataCenters returns the store's DC-slot capacity.
func (s *Store) MaxDataCenters() int { return s.inner.MaxDCs() }

// AddDataCenter grows the deployment by one data center and returns its id.
// The new DC's servers bootstrap themselves from their siblings through
// WAL-shipped catch-up — the live update stream starts flowing to them
// immediately, history arrives in the background — and announce themselves
// active once every replication link is synced; use WaitForJoin to block
// until then. Requires Config.DataDir (the bootstrap streams from the
// siblings' write-ahead logs) and MaxDataCenters headroom.
func (s *Store) AddDataCenter() (int, error) {
	dc, err := s.inner.AddDC()
	if err != nil {
		return 0, fmt.Errorf("occ: %w", err)
	}
	return dc, nil
}

// WaitForJoin blocks until data center dc — previously started by
// AddDataCenter — has fully bootstrapped: every partition's history caught
// up and the DC announced active. Sessions opened against it before that
// are served optimistically from whatever has arrived.
func (s *Store) WaitForJoin(dc int, timeout time.Duration) error {
	if err := s.inner.WaitForJoin(dc, timeout); err != nil {
		return fmt.Errorf("occ: %w", err)
	}
	return nil
}

// RemoveDataCenter removes a data center: its servers flush their
// replication buffers, announce the departure on every link (so the
// surviving DCs hold its complete history and freeze its vector entries at
// the final timestamp), and shut down. Sessions pinned to the removed DC
// fail their next operation; the DC id is retired for good.
func (s *Store) RemoveDataCenter(dc int) error {
	if err := s.inner.RemoveDC(dc); err != nil {
		return fmt.Errorf("occ: %w", err)
	}
	return nil
}

// ForceRemoveDataCenter forcibly removes a crashed data center — one that
// can no longer announce its own departure. The surviving DCs agree, per
// replication link, on the highest update timestamp any of them received
// from the dead DC, freeze its membership entry at that final, discard any
// version above it, and resume stabilization; a subsequent joiner bootstraps
// the departed history from the survivors. If the DC's servers are somehow
// still running they are killed first: an evicted DC can never come back
// (its un-acknowledged suffix is gone for good). timeout bounds each
// partition's agreement round (0 selects a default).
func (s *Store) ForceRemoveDataCenter(dc int, timeout time.Duration) error {
	if err := s.inner.ForceRemoveDC(dc, timeout); err != nil {
		return fmt.Errorf("occ: %w", err)
	}
	return nil
}

// KillDataCenter crashes every server of a data center at once, without
// removing it from the membership: the survivors' stabilization freezes at
// the dead DC's last replicated timestamps until ForceRemoveDataCenter
// evicts it. Requires Config.DataDir.
func (s *Store) KillDataCenter(dc int) error {
	if err := s.inner.KillDC(dc); err != nil {
		return fmt.Errorf("occ: %w", err)
	}
	return nil
}

// Partitions returns the number of live partition servers per data center
// (grows when SplitPartition runs).
func (s *Store) Partitions() int { return s.inner.NumPartitions() }

// MaxPartitions returns the store's partition capacity.
func (s *Store) MaxPartitions() int { return s.inner.MaxPartitions() }

// PartitionOf returns the partition the slot table currently assigns key to.
func (s *Store) PartitionOf(key string) int {
	return s.inner.PartitionOf(key)
}

// SplitPartition grows every data center by one partition server: half of
// the donor partition's hash slots are reassigned to the new server under
// the next slot-table epoch, the new owners are bootstrapped from their
// local donors' history, and routing flips — all while sessions keep
// operating (they retry through the epoch change transparently). Returns
// the new partition's index. Requires MaxPartitions headroom.
func (s *Store) SplitPartition(donor int) (int, error) {
	p, err := s.inner.SplitPartition(donor)
	if err != nil {
		return 0, fmt.Errorf("occ: %w", err)
	}
	return p, nil
}

// MoveSlots reassigns the given hash slots (each in [0, keyspace.NumSlots))
// to an existing partition, migrating their history before routing flips.
func (s *Store) MoveSlots(slots []int, to int) error {
	if err := s.inner.MoveSlots(slots, to); err != nil {
		return fmt.Errorf("occ: %w", err)
	}
	return nil
}

// SlotTable returns a copy of the store's slot routing table (never nil:
// the epoch-0 table, keyspace.DefaultMap, until the first reshard).
func (s *Store) SlotTable() *keyspace.SlotMap { return s.inner.SlotTable() }

// Seed loads an initial value for key into every data center, immediately
// visible and stable (used to populate a store before a workload).
func (s *Store) Seed(key string, value []byte) { s.inner.Seed(key, value) }

// PartitionNetwork cuts (down=true) or heals (down=false) every network link
// between two data centers, emulating an inter-DC network partition.
func (s *Store) PartitionNetwork(dcA, dcB int, down bool) {
	if net := s.inner.Network(); net != nil {
		net.PartitionDCs(dcA, dcB, down)
	}
}

// PartitionReplication cuts (or heals) the replication path of a single
// partition between two data centers, in both directions — the asymmetric
// failure that delays one partition's updates while others flow normally.
func (s *Store) PartitionReplication(dcA, dcB, partition int, down bool) {
	net := s.inner.Network()
	if net == nil {
		return
	}
	a := netemu.NodeID{DC: dcA, Partition: partition}
	b := netemu.NodeID{DC: dcB, Partition: partition}
	net.SetLinkDown(a, b, down)
	net.SetLinkDown(b, a, down)
}

// Messages returns the total number of protocol messages sent so far, a
// proxy for communication overhead.
func (s *Store) Messages() uint64 { return s.inner.Messages() }

// RestartServer simulates a partition-server crash and recovery: the server
// is killed and a fresh one reopens the same durable data directory,
// rebuilding its version chains and version-vector floor from the snapshot
// and log tail. The kill is a true crash — the unflushed replication tail
// is discarded and messages arriving while the server is down are dropped —
// and the replicas resynchronize afterwards by WAL-shipped catch-up.
// In-flight operations against the restarting server fail with ErrStopped
// and may be retried; sessions otherwise keep working transparently. It
// requires Config.DataDir (an in-memory server would restart empty).
func (s *Store) RestartServer(dc, partition int) error {
	return s.inner.RestartServer(dc, partition)
}

// Stats summarizes the server-side statistics of the deployment.
type Stats struct {
	// Operations counts server-side operations (GETs, PUTs, slice reads).
	Operations uint64
	// BlockedOperations counts operations that stalled waiting for a missing
	// dependency.
	BlockedOperations uint64
	// BlockingProbability is BlockedOperations / Operations.
	BlockingProbability float64
	// MeanBlockingTime is the average stall duration of blocked operations.
	MeanBlockingTime time.Duration
	// PercentOldReads is the share of reads that returned an item with a
	// fresher version hidden in its chain.
	PercentOldReads float64
	// PercentUnmergedReads is the share of reads whose chain held versions
	// not yet visible under the engine's visibility rule.
	PercentUnmergedReads float64
	// Keys is the number of distinct keys stored across the deployment
	// (each data center holds a full copy, so every replica counts).
	Keys int
	// Versions is the total number of stored versions across all chains.
	// Keys and Versions come from the engines' single-pass Stats, so the
	// pair is snapshot-consistent per shard instead of drifting between
	// two separate scans.
	Versions int
	// StorageError is the first sticky persistence error reported by any
	// durable engine ("" when healthy). A failing engine keeps serving from
	// memory, but acknowledged writes may no longer survive a crash — treat
	// a non-empty value as an operational alarm (see Store.StorageErr).
	StorageError string
	// ReplicationLag is, per data center, the worst replication lag any of
	// its partition servers observes against any remote DC: its own
	// version-vector entry minus the last-applied remote entry, in time
	// units. A link frozen by an in-flight catch-up shows up as growing
	// lag.
	ReplicationLag []time.Duration
	// ReplicationLagPerLink breaks the lag down by replication link:
	// [dst][src] is the worst lag any partition server of DC dst observes
	// on its inbound stream from DC src (zero on the diagonal and for
	// departed DCs). ReplicationLag[dst] is the row maximum; the breakdown
	// tells a slow link apart from a generally lagging DC.
	ReplicationLagPerLink [][]time.Duration
	// CatchUps counts completed inbound catch-up rounds (a replica detected
	// a gap in a replication stream and resynchronized from its sibling's
	// WAL); CatchUpsServed counts the streams shipped to lagging siblings.
	// Both stay zero while every link delivers its stream gap-free.
	CatchUps       uint64
	CatchUpsServed uint64
	// CatchUpsActive is the number of replication links currently frozen
	// awaiting a catch-up stream.
	CatchUpsActive int
	// FullResyncs counts catch-up rounds that had to re-ship the full
	// history because the incremental range was checkpoint-pruned away on
	// the sender.
	FullResyncs uint64
	// LinkStates[dst][src] is the health of DC dst's inbound replication
	// link from DC src, by name (repl.LinkState.String): the worst state
	// across dst's partition servers, self on the diagonal.
	LinkStates [][]string
	// GCHoldbackAge is how long the oldest laggard (a frozen, catching-up or
	// joining link) has been deferring garbage collection, 0 when none is.
	GCHoldbackAge time.Duration
	// Fsyncs counts WAL file and directory syncs across all durable engines;
	// CommitGroups counts commit groups fsynced. Records / CommitGroups is
	// the mean group-commit batch size. All durable-path fields stay zero
	// for in-memory deployments (no Config.DataDir).
	Fsyncs       uint64
	CommitGroups uint64
	// WALRecords counts records committed through the WAL pipeline.
	WALRecords uint64
	// CommitGroupP50 and CommitGroupMax describe the commit-group size
	// distribution: the median bucket (lower bound, records per group) and
	// the largest group observed.
	CommitGroupP50 uint64
	CommitGroupMax uint64
	// AckToDurableMean and AckToDurableMax are the mean and worst lag
	// between staging a record on the commit pipeline and its group
	// becoming durable — the window an AckGrouped PUT's durability trails
	// its acknowledgement.
	AckToDurableMean time.Duration
	AckToDurableMax  time.Duration
	// SeekHits counts walks over the durable history (catch-up streams,
	// reshard donor copies) that the WAL's segment range index let skip at
	// least one cold snapshot/segment part; FullScans counts the walks that
	// skipped none; PartsSkipped totals the parts never read.
	SeekHits     uint64
	FullScans    uint64
	PartsSkipped uint64
	// Partitions is the number of live partition servers per DC; SlotEpoch
	// is the slot-table generation (0 = the epoch-0 table, until the first
	// reshard).
	Partitions int
	SlotEpoch  uint64
}

// MaxReplicationLag returns the worst entry of ReplicationLag.
func (s Stats) MaxReplicationLag() time.Duration {
	var max time.Duration
	for _, l := range s.ReplicationLag {
		if l > max {
			max = l
		}
	}
	return max
}

// Stats aggregates the current server-side statistics.
func (s *Store) Stats() Stats {
	agg := s.inner.Metrics()
	blocking := agg.Blocking()
	stale := agg.GetStale
	stale.Add(agg.TxStale)
	storage := s.inner.StorageStats()
	repl := s.inner.ReplicationStats()
	st := Stats{
		Operations:            blocking.Ops,
		BlockedOperations:     blocking.Blocked,
		BlockingProbability:   blocking.Probability(),
		MeanBlockingTime:      blocking.MeanBlockTime(),
		PercentOldReads:       stale.PercentOld(),
		PercentUnmergedReads:  stale.PercentUnmerged(),
		Keys:                  storage.Keys,
		Versions:              storage.Versions,
		ReplicationLag:        repl.LagPerDC,
		ReplicationLagPerLink: repl.LagPerLink,
		CatchUps:              repl.CatchUpsCompleted,
		CatchUpsServed:        repl.CatchUpsServed,
		CatchUpsActive:        repl.CatchUpsActive,
		FullResyncs:           repl.FullResyncs,
		LinkStates:            make([][]string, len(repl.LinkStates)),
		GCHoldbackAge:         repl.GCHoldbackAge,
	}
	for dst, row := range repl.LinkStates {
		st.LinkStates[dst] = make([]string, len(row))
		for src, state := range row {
			st.LinkStates[dst][src] = state.String()
		}
	}
	durable := s.inner.DurableStats()
	st.Fsyncs = durable.Fsyncs
	st.CommitGroups = durable.Groups
	st.WALRecords = durable.Records
	st.CommitGroupP50 = durable.GroupP50()
	st.CommitGroupMax = durable.GroupMax
	if durable.Groups > 0 {
		st.AckToDurableMean = time.Duration(durable.AckLagSumNS / int64(durable.Groups))
	}
	st.AckToDurableMax = time.Duration(durable.AckLagMaxNS)
	st.SeekHits = durable.SeekHits
	st.FullScans = durable.FullScans
	st.PartsSkipped = durable.PartsSkipped
	st.Partitions = s.inner.NumPartitions()
	st.SlotEpoch = s.inner.SlotTable().Epoch
	if err := s.inner.StorageErr(); err != nil {
		st.StorageError = err.Error()
	}
	return st
}

// StorageErr returns the first sticky persistence error reported by any
// partition server's durable engine, or nil. Only durable deployments
// (Config.DataDir) can report one.
func (s *Store) StorageErr() error { return s.inner.StorageErr() }

// Session is a client session pinned to one data center. Use one session per
// goroutine; its operations form a single thread of execution in the
// causality order.
type Session struct {
	inner *client.Session
	dc    int
}

// Session opens a client session against data center dc.
func (s *Store) Session(dc int) (*Session, error) {
	inner, err := s.inner.NewSession(dc)
	if err != nil {
		return nil, fmt.Errorf("occ: %w", err)
	}
	return &Session{inner: inner, dc: dc}, nil
}

// DC returns the data center the session is attached to.
func (s *Session) DC() int { return s.dc }

// Get returns the value of key, or nil if the key has no visible version.
// Under POCC this is the freshest version the local data center has
// received whose dependencies are compatible with the session's history.
func (s *Session) Get(key string) ([]byte, error) { return s.inner.Get(key) }

// Put assigns value to key, creating a new version that causally depends on
// everything the session has read and written.
func (s *Session) Put(key string, value []byte) error { return s.inner.Put(key, value) }

// PutOwned is Put without the defensive copy of value: the store keeps the
// slice itself, so the caller must never modify it afterwards. The serving
// path uses it for values it has already copied off the wire.
func (s *Session) PutOwned(key string, value []byte) error { return s.inner.PutOwned(key, value) }

// ROTx reads keys atomically from a causally consistent snapshot. Missing
// keys map to nil values.
func (s *Session) ROTx(keys []string) (map[string][]byte, error) { return s.inner.ROTx(keys) }

// Pessimistic reports whether the session currently runs the pessimistic
// fallback protocol (HA-POCC during a suspected partition).
func (s *Session) Pessimistic() bool { return s.inner.Mode() == core.Pessimistic }

// Fallbacks returns how many times the session fell back to the pessimistic
// protocol.
func (s *Session) Fallbacks() uint64 { return s.inner.Fallbacks() }

// Promotions returns how many times the session was promoted back to the
// optimistic protocol.
func (s *Session) Promotions() uint64 { return s.inner.Promotions() }
