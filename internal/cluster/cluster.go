// Package cluster assembles a full geo-replicated deployment: M data centers
// × N partitions of core.Server connected by an emulated network with
// injected inter-DC latencies, per-node skewed clocks, and client sessions
// attached to a DC. It provides the three engine presets the evaluation
// compares: POCC, Cure* and HA-POCC.
package cluster

import (
	"errors"
	"fmt"
	"iter"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/storage"
	"repro/internal/tcpnet"
	"repro/internal/vclock"
)

// Engine selects the protocol preset.
type Engine int

// Engine presets.
const (
	// POCC is the paper's optimistic system: no stabilization, blocking
	// dependency resolution.
	POCC Engine = iota + 1
	// Cure is the pessimistic baseline Cure*: stabilization every
	// StabilizationInterval, stable-visibility reads.
	Cure
	// HAPOCC is highly available POCC: optimistic with infrequent
	// stabilization and block-timeout session fallback.
	HAPOCC
)

func (e Engine) String() string {
	switch e {
	case POCC:
		return "POCC"
	case Cure:
		return "Cure*"
	case HAPOCC:
		return "HA-POCC"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine is String's inverse, case-insensitively, plus the spellings a
// command line takes without quoting: cure and curestar for Cure*, hapocc
// for HA-POCC.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(s) {
	case "pocc":
		return POCC, nil
	case "cure", "cure*", "curestar":
		return Cure, nil
	case "hapocc", "ha-pocc":
		return HAPOCC, nil
	default:
		return 0, fmt.Errorf("unknown engine %q (want pocc, cure or hapocc)", s)
	}
}

// Config parameterizes a deployment.
type Config struct {
	NumDCs        int
	NumPartitions int
	Engine        Engine

	// HeartbeatInterval is Δ (1 ms in the paper).
	HeartbeatInterval time.Duration
	// StabilizationInterval: 5 ms for Cure* and 500 ms for HA-POCC in the
	// paper's spirit; ignored for POCC.
	StabilizationInterval time.Duration
	// GCInterval enables the garbage-collection exchange (0 disables).
	GCInterval time.Duration
	// Deprecated: every PUT waits for its dependencies (Algorithm 2 line 6)
	// and nothing reads this field. It stays only because the benchmark's
	// deployment (bench/deploy.go) still sets it.
	PutDepWait bool
	// BlockTimeout enables HA-POCC partition suspicion (HAPOCC only).
	BlockTimeout time.Duration
	// ClockSkew bounds the per-node clock offset: each node's skew is drawn
	// uniformly from [-ClockSkew, +ClockSkew], emulating loose NTP sync.
	ClockSkew time.Duration
	// RawPhysicalClocks reverts the per-node clocks to raw skewed physical
	// time (the pre-HLC behavior). By default nodes run hybrid
	// logical/physical clocks (clock.NewHLC): every received heartbeat,
	// batch or catch-up claim merges into the local clock, so timestamp
	// assignment — in particular the PUT clock-wait — is insensitive to
	// ClockSkew. The skew ablation sets this to measure the raw variant.
	RawPhysicalClocks bool
	// Latency is the inter-node latency function (see AWSLatency). Nil means
	// zero latency.
	Latency netemu.LatencyFunc
	// JitterFrac adds uniform jitter to every message delay.
	JitterFrac float64
	// Seed drives all emulated randomness.
	Seed uint64
	// TCP runs the inter-node traffic over real loopback TCP connections
	// (internal/tcpnet) instead of the emulated network. Latency, jitter and
	// partition injection are unavailable in this mode.
	TCP bool
	// DataDir enables durable per-server storage: every partition server
	// opens a WAL-backed storage.Durable engine under
	// DataDir/dc<m>-p<n> and can be crash-restarted from it (see
	// RestartServer). Empty keeps the default in-memory engines.
	DataDir string
	// Durable tunes the WAL-backed engines opened for DataDir: checkpoint
	// trigger, segment size and fsync policy (storage.DurableOptions).
	// Ignored without DataDir.
	Durable storage.DurableOptions
	// MaxDCs reserves capacity for data centers joining at runtime (AddDC):
	// every server's version vector is sized to it up front, because the
	// lock-free hot path cannot repoint vectors. 0 means NumDCs — fixed
	// membership, the pre-membership footprint. A departed DC's id is never
	// reused, so the capacity bounds the total number of joins over the
	// deployment's lifetime, not the concurrent member count.
	MaxDCs int
	// MaxPartitions reserves capacity for partition servers added at runtime
	// (SplitPartition), the partition-axis analogue of MaxDCs: the server
	// matrix and every server's per-partition state are sized to it up
	// front. 0 means NumPartitions — a fixed partition count. Capped, like
	// NumPartitions, by keyspace.NumSlots (a partition must own at least one
	// slot to be useful, and slot owners are one byte on the wire).
	MaxPartitions int
	// ReshardTimeout bounds the drain phase of SplitPartition/MoveSlots
	// (how long the coordinator waits for every member's donors to deliver
	// their streams everywhere before aborting the reshard). 0 means 30s;
	// fault-injection harnesses set it low so an undrainable reshard aborts
	// inside the soak window instead of stalling it.
	ReshardTimeout time.Duration
	// JoinTimeout bounds how long a joining DC's servers keep soliciting the
	// deployment before giving up (repl.Config.JoinTimeout); WaitForJoin
	// tears a failed join down cleanly. 0 retries forever.
	JoinTimeout time.Duration
	// GCMaxHoldback bounds how long garbage collection is deferred for a
	// frozen, catching-up or joining replication link
	// (repl.Config.GCMaxHoldback). 0 selects the replication plane's
	// default (10 s); negative never releases.
	GCMaxHoldback time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatInterval == 0 {
		out.HeartbeatInterval = time.Millisecond
	}
	if out.StabilizationInterval == 0 {
		switch out.Engine {
		case Cure:
			out.StabilizationInterval = 5 * time.Millisecond
		case HAPOCC:
			out.StabilizationInterval = 500 * time.Millisecond
		}
	}
	if out.Engine == HAPOCC && out.BlockTimeout == 0 {
		out.BlockTimeout = 250 * time.Millisecond
	}
	return out
}

// Cluster is a running deployment.
type Cluster struct {
	cfg      Config
	maxDCs   int
	maxParts int
	net      *netemu.Network // nil in TCP mode

	// Routing state. slots is the slot table sessions route by, installed at
	// epoch 0 (keyspace.DefaultMap) before any server starts and replaced by
	// each reshard's flip. bootSlots is the table a server starting now must
	// hold: the same table, except from a reshard's fence-install until its
	// flip, when it is the staged next-epoch table — so a server
	// crash-restarted inside that window boots already fenced instead of
	// resurrecting the pre-reshard table and accepting moved-slot writes the
	// new owner will never see. parts is the number of live partition
	// servers per DC (grows on SplitPartition); reshardMu serializes reshards
	// so at most one slot migration is in flight.
	slots     atomic.Pointer[keyspace.SlotMap]
	bootSlots atomic.Pointer[keyspace.SlotMap]
	parts     atomic.Int32
	reshardMu sync.Mutex

	// nodes is the [dc][partition] matrix, allocated to MaxDCs × MaxPartitions
	// up front so AddDC and SplitPartition only fill entries in and the
	// lock-free Server lookup never races a reshape.
	nodes [][]node
	rr    atomic.Uint64 // round-robin coordinator placement

	// seedMu guards the loader's state (see Seed).
	seedMu   sync.Mutex
	seedSeq  uint64 // timestamps for pre-loaded data
	seedSlab item.Slab
	seedVals item.Chunk

	// memberMu guards the deployment's membership mirror — the admin-side
	// record of which DC slots exist and their statuses — plus the TCP
	// directory and node list, which AddDC extends at runtime.
	memberMu sync.Mutex
	status   []uint8 // per-DC membership status (msg.DC*), len maxDCs
	epoch    uint64  // membership view epoch handed to new/restarted servers
	// finals records, for each departed DC, the per-partition final
	// timestamp its departure settled on (a leaver's own, or settleFinal's),
	// so restarted servers are seeded with it (and re-apply the purge on
	// recovery).
	finals   map[int][]vclock.Timestamp
	tcpNodes []*tcpnet.Node           // nil in emulated mode
	tcpDir   map[netemu.NodeID]string // TCP address directory (TCP mode)
	dcs      atomic.Int32             // DC slots created so far (monotone)
}

// node is one (dc, partition) coordinate of the matrix: what registerNodes
// sets up once and every server that runs there reuses.
type node struct {
	// srv is the running server, nil before the first start and after the
	// DC's departure. Sessions resolve it lock-free per operation while
	// RestartServer swaps one underneath them (and RemoveDC clears a row).
	srv atomic.Pointer[core.Server]
	// transport is what servers attach to: the network endpoint, behind the
	// relay on a durable deployment. Nil until the node is registered.
	transport netemu.Transport
	relay     *relay // non-nil only on durable (restartable) deployments
	skew      time.Duration
	mx        *core.Metrics // outlives the servers, catch-up counters included
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.NumDCs < 1 || cfg.NumPartitions < 1 {
		return nil, fmt.Errorf("cluster: invalid layout %dx%d", cfg.NumDCs, cfg.NumPartitions)
	}
	if cfg.Engine != POCC && cfg.Engine != Cure && cfg.Engine != HAPOCC {
		return nil, errors.New("cluster: unknown engine")
	}
	// withDefaults fills in only zero; a negative period or timeout would
	// switch its loop (heartbeats, stabilization, suspicion) off unannounced.
	for name, d := range map[string]time.Duration{"HeartbeatInterval": cfg.HeartbeatInterval, "StabilizationInterval": cfg.StabilizationInterval, "BlockTimeout": cfg.BlockTimeout} {
		if d < 0 {
			return nil, fmt.Errorf("cluster: negative %s %v", name, d)
		}
	}
	if cfg.MaxDCs != 0 && cfg.MaxDCs < cfg.NumDCs {
		return nil, fmt.Errorf("cluster: MaxDCs %d below NumDCs %d", cfg.MaxDCs, cfg.NumDCs)
	}
	maxDCs := cfg.MaxDCs
	if maxDCs == 0 {
		maxDCs = cfg.NumDCs
	}
	if cfg.MaxPartitions != 0 && cfg.MaxPartitions < cfg.NumPartitions {
		return nil, fmt.Errorf("cluster: MaxPartitions %d below NumPartitions %d", cfg.MaxPartitions, cfg.NumPartitions)
	}
	maxParts := cfg.MaxPartitions
	if maxParts == 0 {
		maxParts = cfg.NumPartitions
	}
	if maxParts > keyspace.NumSlots {
		return nil, fmt.Errorf("cluster: %d partitions exceed the slot universe (at most %d per DC)", maxParts, keyspace.NumSlots)
	}
	c := &Cluster{cfg: cfg, maxDCs: maxDCs, maxParts: maxParts, status: make([]uint8, maxDCs)}
	c.parts.Store(int32(cfg.NumPartitions))
	c.slots.Store(keyspace.DefaultMap(cfg.NumPartitions))
	c.bootSlots.Store(c.slots.Load())
	if cfg.TCP {
		c.tcpDir = make(map[netemu.NodeID]string)
	} else {
		c.net = netemu.New(netemu.Config{
			Latency:    cfg.Latency,
			JitterFrac: cfg.JitterFrac,
			Seed:       cfg.Seed,
		})
	}
	c.nodes = make([][]node, maxDCs)
	for dc := range c.nodes {
		c.nodes[dc] = make([]node, maxParts)
	}

	// First pass: register every initial node before any server starts. A
	// started server heartbeats its siblings immediately, so every endpoint
	// must exist before the first server comes up.
	var ids []netemu.NodeID
	for dc := 0; dc < cfg.NumDCs; dc++ {
		c.status[dc] = msg.DCActive
		for p := 0; p < cfg.NumPartitions; p++ {
			ids = append(ids, netemu.NodeID{DC: dc, Partition: p})
		}
	}
	if err := c.registerNodes(ids, rand.New(rand.NewPCG(cfg.Seed, 0xc105))); err != nil {
		c.Close()
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.dcs.Store(int32(cfg.NumDCs))
	// Second pass: start the servers.
	for dc := 0; dc < cfg.NumDCs; dc++ {
		for p := 0; p < cfg.NumPartitions; p++ {
			srv, err := core.NewServer(c.serverConfig(dc, p))
			if err != nil {
				c.Close()
				return nil, err
			}
			c.nodes[dc][p].srv.Store(srv)
		}
	}
	return c, nil
}

// registerNodes brings up everything of the given nodes but their servers: the
// clock skew (drawn from rng in the order given, so a seed yields the skews
// it always has), the endpoint (TCP listener and directory entry, or emulated
// registration), the relay a durable deployment interposes so RestartServer
// can pause delivery, and the metrics. A node an earlier, failed attempt
// registered is kept. Every TCP node, old and new, then gets the extended
// directory. Called with memberMu held, or from New.
func (c *Cluster) registerNodes(ids []netemu.NodeID, rng *rand.Rand) error {
	for _, id := range ids {
		n := &c.nodes[id.DC][id.Partition]
		if n.transport != nil {
			continue
		}
		if c.cfg.ClockSkew > 0 {
			n.skew = time.Duration(rng.Int64N(int64(2*c.cfg.ClockSkew))) - c.cfg.ClockSkew
		}
		if c.cfg.TCP {
			tn, err := tcpnet.Listen(id, "127.0.0.1:0")
			if err != nil {
				return err
			}
			c.tcpNodes = append(c.tcpNodes, tn)
			c.tcpDir[id] = tn.Addr()
			n.transport = tn
		} else {
			n.transport = c.net.Register(id, nil)
		}
		if c.cfg.DataDir != "" {
			n.relay = newRelay(n.transport)
			n.transport = n.relay
		}
		n.mx = &core.Metrics{}
	}
	for _, tn := range c.tcpNodes {
		tn.Connect(c.tcpDir)
	}
	return nil
}

// serverConfig assembles the core.Config of partition server (dc, p),
// reusing the node's transport, clock skew and metrics — the pieces that
// survive a RestartServer.
func (c *Cluster) serverConfig(dc, p int) core.Config {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	// A server restarted while its DC is still bootstrapping resumes the
	// join: it must re-request, re-sync every link and re-announce — a
	// restart must not let a half-bootstrapped replica skip the
	// stabilization gate.
	return c.serverConfigLocked(dc, p, c.status[dc] == msg.DCJoining)
}

// newClock builds the node's clock: hybrid logical/physical by default,
// raw skewed physical time when Config.RawPhysicalClocks asks for the
// pre-HLC ablation variant. The drawn skew applies to both.
func (c *Cluster) newClock(dc, p int) *clock.Clock {
	if c.cfg.RawPhysicalClocks {
		return clock.New(c.nodes[dc][p].skew)
	}
	return clock.NewHLC(c.nodes[dc][p].skew)
}

// serverConfigLocked is serverConfig with memberMu held: the membership
// mirror (DC count, statuses, epoch, finals) feeds the server's initial view,
// so a server started or restarted after the deployment grew or shrank
// begins from reality instead of the seed layout.
func (c *Cluster) serverConfigLocked(dc, p int, joining bool) core.Config {
	mode := core.Optimistic
	stab := c.cfg.StabilizationInterval
	blockTimeout := time.Duration(0)
	switch c.cfg.Engine {
	case Cure:
		mode = core.Pessimistic
	case HAPOCC:
		blockTimeout = c.cfg.BlockTimeout
	case POCC:
		stab = 0
	}
	var dataDir string
	if c.cfg.DataDir != "" {
		dataDir = filepath.Join(c.cfg.DataDir, fmt.Sprintf("dc%d-p%d", dc, p))
	}
	numDCs := int(c.dcs.Load())
	if numDCs < c.cfg.NumDCs {
		numDCs = c.cfg.NumDCs
	}
	// A server started or restarted begins from the current partition count
	// and from bootSlots: a donor restarted between a reshard's fence install
	// and its flip must come back fenced, or it would accept moved-slot
	// writes that are stranded once routing flips.
	numParts := int(c.parts.Load())
	view := msg.Membership{
		Epoch:  c.epoch,
		Status: append([]uint8(nil), c.status[:numDCs]...),
	}
	for left, fs := range c.finals {
		if left < numDCs && p < len(fs) {
			view.SetFinal(left, fs[p])
		}
	}
	return core.Config{
		Config: repl.Config{
			ID:                netemu.NodeID{DC: dc, Partition: p},
			NumDCs:            numDCs,
			MaxDCs:            c.maxDCs,
			Clock:             c.newClock(dc, p),
			Endpoint:          c.nodes[dc][p].transport,
			HeartbeatInterval: c.cfg.HeartbeatInterval,
			Joining:           joining,
			JoinTimeout:       c.cfg.JoinTimeout,
			GCMaxHoldback:     c.cfg.GCMaxHoldback,
			Membership:        view,
		},
		NumPartitions:         numParts,
		MaxPartitions:         c.maxParts,
		SlotMap:               c.bootSlots.Load(),
		DefaultMode:           mode,
		StabilizationInterval: stab,
		GCInterval:            c.cfg.GCInterval,
		BlockTimeout:          blockTimeout,
		DataDir:               dataDir,
		DurableOptions:        c.cfg.Durable,
		Metrics:               c.nodes[dc][p].mx,
	}
}

// Close stops every server and the network. Close must not race an
// in-flight RestartServer (tests restart, then clean up).
func (c *Cluster) Close() {
	for _, srv := range c.live() {
		srv.Close()
	}
	if c.net != nil {
		c.net.Close()
	}
	c.memberMu.Lock()
	nodes := c.tcpNodes
	c.memberMu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
}

// Network exposes the emulated network (partition injection, message
// counts). It returns nil in TCP mode.
func (c *Cluster) Network() *netemu.Network { return c.net }

// NumDCs returns the number of data-center slots created so far, including
// departed ones (slots are never reused, so this is also one past the
// highest DC id). Use Membership for per-DC statuses.
func (c *Cluster) NumDCs() int { return int(c.dcs.Load()) }

// MaxDCs returns the deployment's DC-slot capacity.
func (c *Cluster) MaxDCs() int { return c.maxDCs }

// Server returns the partition server p of data center dc (the current one,
// if the node has been restarted), or nil for a DC that departed or never
// joined. The lookup is a lock-free atomic load, so the per-operation
// routing of sessions costs nothing extra.
func (c *Cluster) Server(dc, p int) *core.Server {
	if dc < 0 || dc >= c.maxDCs || p < 0 || p >= c.maxParts {
		return nil
	}
	return c.nodes[dc][p].srv.Load()
}

// live iterates over the running servers, data center by data center.
func (c *Cluster) live() iter.Seq2[netemu.NodeID, *core.Server] {
	return func(yield func(netemu.NodeID, *core.Server) bool) {
		for dc := range c.nodes {
			for p := range c.nodes[dc] {
				if srv := c.nodes[dc][p].srv.Load(); srv != nil && !yield(netemu.NodeID{DC: dc, Partition: p}, srv) {
					return
				}
			}
		}
	}
}

// nodeAt resolves the node of a live partition server slot, or reports that
// none exists at (dc, p): the coordinate is outside the deployment, or
// nothing was ever brought up there.
func (c *Cluster) nodeAt(dc, p int) (*node, error) {
	if dc < 0 || dc >= c.maxDCs || p < 0 || p >= c.numParts() || c.nodes[dc][p].transport == nil {
		return nil, fmt.Errorf("cluster: no server dc%d-p%d", dc, p)
	}
	return &c.nodes[dc][p], nil
}

// numParts returns the number of partition servers currently live in every
// member DC (grows on SplitPartition).
func (c *Cluster) numParts() int { return int(c.parts.Load()) }

// NumPartitions returns the number of live partition servers per DC.
func (c *Cluster) NumPartitions() int { return c.numParts() }

// MaxPartitions returns the deployment's partition capacity.
func (c *Cluster) MaxPartitions() int { return c.maxParts }

// SlotTable returns a copy of the cluster's current routing table (never
// nil: the epoch-0 table until the first reshard).
func (c *Cluster) SlotTable() *keyspace.SlotMap { return c.slots.Load().Clone() }

// PartitionOf returns the partition the slot table assigns key to, loaded
// atomically so sessions pick up an epoch flip between operations.
func (c *Cluster) PartitionOf(key string) int { return c.slots.Load().OwnerOf(key) }

// dcRouter routes a session's requests within one data center, resolving
// servers per operation so sessions transparently follow a RestartServer.
type dcRouter struct {
	c     *Cluster
	dc    int
	coord int
}

func (r *dcRouter) ServerFor(key string) *core.Server {
	return r.c.Server(r.dc, r.c.PartitionOf(key))
}
func (r *dcRouter) Coordinator() *core.Server { return r.c.Server(r.dc, r.coord) }
func (r *dcRouter) PartitionOf(key string) int {
	return r.c.PartitionOf(key)
}

// NewSession opens a client session against data center dc. The session's
// coordinator is chosen round-robin, emulating clients collocated with
// servers.
func (c *Cluster) NewSession(dc int) (*client.Session, error) {
	return c.newSession(dc, c.cfg.Engine == HAPOCC)
}

// NewRawSession is NewSession without HA-POCC auto-fallback: a suspected
// partition surfaces as core.ErrSessionClosed instead of being recovered
// inside the session. Fault-injection harnesses use it so session
// re-initialization is explicit — an external causality checker must drop
// its recorded history exactly when the client drops its dependency state,
// which auto-fallback would do invisibly mid-operation.
func (c *Cluster) NewRawSession(dc int) (*client.Session, error) {
	return c.newSession(dc, false)
}

func (c *Cluster) newSession(dc int, autoFallback bool) (*client.Session, error) {
	if dc < 0 || dc >= c.NumDCs() || c.Server(dc, 0) == nil {
		return nil, fmt.Errorf("cluster: no data center %d", dc)
	}
	coord := int(c.rr.Add(1) % uint64(c.numParts()))
	mode := core.Optimistic
	if c.cfg.Engine == Cure {
		mode = core.Pessimistic
	}
	return client.NewSession(client.Config{
		Router: &dcRouter{c: c, dc: dc, coord: coord},
		// Dependency vectors are sized to the deployment's capacity, not its
		// current width, so a session opened before a DC joins tracks the
		// joiner's writes without resizing mid-flight.
		NumDCs:       c.maxDCs,
		Mode:         mode,
		AutoFallback: autoFallback,
		// A session parked on a fenced slot must outlast the slowest healthy
		// reshard, whose drain phase is bounded by the cluster's configured
		// timeout — otherwise it surfaces ErrWrongSlotEpoch for a migration
		// that completes moments later.
		SlotRetryBudget: 2 * c.reshardTimeout(),
	})
}

// Seed pre-loads a key with an initial value into every data center, the way
// the paper's loader populates each partition before an experiment. Seeded
// versions carry tiny timestamps and empty dependency vectors, so they are
// immediately visible and stable everywhere. A key costs one version and one
// copy of value, whatever the number of DCs: versions are immutable, so every
// DC's chain holds the same one (a durable engine still logs its own record).
// Both are carved (item.Slab, item.Chunk), at the price the batch decoder and
// the client pool pay: a live seeded version keeps its slab array's
// seedCarve-1 neighbours and its value chunk reachable. A spent array or chunk
// is dropped. Seed is safe for concurrent use.
func (c *Cluster) Seed(key string, value []byte) {
	c.seedMu.Lock()
	c.seedSeq++
	v := c.seedSlab.Take(c.maxDCs, seedCarve)
	if c.seedSeq%seedCarve == 0 { // every Take is of c.maxDCs' class
		c.seedSlab = item.Slab{}
	}
	v.Key, v.UpdateTime = key, vclock.Timestamp(c.seedSeq)
	if len(value) > 0 {
		v.Value = c.seedVals.Copy(value)
	}
	c.seedMu.Unlock()
	p := c.PartitionOf(key)
	for dc := 0; dc < c.NumDCs(); dc++ {
		if srv := c.Server(dc, p); srv != nil { // nil: departed DC
			srv.Store().Insert(v)
		}
	}
}

const seedCarve = 64 // versions per slab array

// SeedTable pre-loads every key of a keyspace table with an 8-byte value.
func (c *Cluster) SeedTable(table *keyspace.Table) {
	for p := 0; p < table.Partitions(); p++ {
		for _, k := range table.AllKeys(p) {
			c.Seed(k, []byte("00000000"))
		}
	}
}

// ReadAt performs a raw GET against a specific DC with an empty dependency
// vector (monitoring helper for tests and examples).
func (c *Cluster) ReadAt(dc int, key string) (msg.ItemReply, error) {
	srv := c.Server(dc, c.PartitionOf(key))
	if srv == nil {
		return msg.ItemReply{}, fmt.Errorf("cluster: no data center %d", dc)
	}
	return srv.Get(key, vclock.New(c.maxDCs), core.Optimistic)
}
