// Package cluster assembles a full geo-replicated deployment: M data centers
// × N partitions of core.Server connected by an emulated network with
// injected inter-DC latencies, per-node skewed clocks, and client sessions
// attached to a DC. It provides the three engine presets the evaluation
// compares: POCC, Cure* and HA-POCC.
package cluster

import (
	"errors"
	"fmt"
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
	"repro/internal/metrics"
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
	// PutDepWait enables Algorithm 2 line 6 (the evaluation enables it).
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
	// LeanStabilization switches the GSS exchange to the Okapi-style scalar
	// HLC watermark on most ticks (core.Config.LeanStabilization).
	LeanStabilization bool
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
	// front. 0 means NumPartitions — a fixed keyspace layout. Capped by
	// keyspace.NumSlots (a partition must own at least one slot to be
	// useful, and slot owners are one byte on the wire).
	MaxPartitions int
	// ReshardTimeout bounds the drain phase of SplitPartition/MoveSlots
	// (how long the coordinator waits for every member's donors to deliver
	// their streams everywhere before aborting the reshard). 0 means 30s;
	// fault-injection harnesses set it low so an undrainable reshard aborts
	// inside the soak window instead of stalling it.
	ReshardTimeout time.Duration
	// JoinTimeout bounds how long a joining DC's servers keep soliciting the
	// deployment before giving up (core.Config.JoinTimeout); WaitForJoin
	// tears a failed join down cleanly. 0 retries forever.
	JoinTimeout time.Duration
	// GCMaxHoldback bounds how long garbage collection is deferred for a
	// frozen, catching-up or joining replication link
	// (core.Config.GCMaxHoldback). 0 selects the core default (10 s);
	// negative never releases.
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

	// Routing state for the slot table (tentpole of the resharding arc).
	// slots is nil until the first reshard: routing then falls back to the
	// static keyspace.PartitionOf layout, so pre-reshard deployments pay
	// nothing. pendingSlots stages an in-flight reshard's next-epoch table
	// from fence-install until the flip, so a server crash-restarted inside
	// that window boots already fenced instead of resurrecting the
	// pre-reshard table and accepting moved-slot writes the new owner will
	// never see. parts is the number of live partition servers per DC (grows
	// on SplitPartition); reshardMu serializes reshards so at most one slot
	// migration is in flight.
	slots        atomic.Pointer[keyspace.SlotMap]
	pendingSlots atomic.Pointer[keyspace.SlotMap]
	parts        atomic.Int32
	reshardMu    sync.Mutex

	// servers is the [dc][partition] matrix, pre-allocated to MaxDCs rows so
	// AddDC never reshapes it; entries are atomic pointers so sessions
	// resolve the current server lock-free per operation while RestartServer
	// swaps one underneath them (and RemoveDC clears a whole row).
	servers    [][]atomic.Pointer[core.Server]
	transports [][]core.Transport
	relays     [][]*relay // non-nil only for durable (restartable) clusters
	skews      [][]time.Duration
	mx         [][]*core.Metrics // [dc][partition]
	seedSeq    atomic.Uint64     // timestamps for pre-loaded data
	rr         atomic.Uint64     // round-robin coordinator placement

	// memberMu guards the deployment's membership mirror — the admin-side
	// record of which DC slots exist and their statuses — plus the TCP
	// directory and node list, which AddDC extends at runtime.
	memberMu sync.Mutex
	status   []uint8 // per-DC membership status (msg.DC*), len maxDCs
	epoch    uint64  // membership view epoch handed to new/restarted servers
	// finals records, for each forcibly removed DC, the per-partition final
	// timestamp the survivors agreed on, so restarted servers are seeded with
	// the freeze (and re-apply the purge on recovery).
	finals   map[int][]vclock.Timestamp
	tcpNodes []*tcpnet.Node           // nil in emulated mode
	tcpDir   map[netemu.NodeID]string // TCP address directory (TCP mode)
	dcs      atomic.Int32             // DC slots created so far (monotone)
}

// relay sits between the network endpoint and a restartable server. The
// endpoint's handler is installed exactly once and forwards to the current
// server's handler; RestartServer holds the gate exclusively while swapping
// servers, so deliveries pause (preserving per-link FIFO order through the
// restart) instead of reaching a half-closed server.
//
// When dropRepl is set, replication-plane messages (batches, heartbeats,
// catch-up traffic) are discarded instead of paused — a dead machine
// receives nothing. RestartServer sets it for the crash window, and tests
// set it directly (DropInboundReplication) to sever a link mid-workload.
// Request/response traffic (slice reads, exchanges) still pauses: in a real
// deployment it rides an RPC layer with its own retries, and dropping it
// would wedge remote RO-TX coordinators.
type relay struct {
	inner    core.Transport
	gate     sync.RWMutex
	dropRepl atomic.Bool
	h        atomic.Pointer[netemu.Handler]
}

// isReplPlane reports whether m belongs to the replication plane — the
// messages a crashed or cut-off receiver genuinely loses. Membership
// traffic rides the same plane: a dead machine hears of no joins or leaves
// either (views re-converge afterwards through the lattice merge and the
// joiner's re-sent requests).
func isReplPlane(m any) bool {
	switch m.(type) {
	case msg.ReplicateBatch, msg.Heartbeat,
		msg.CatchUpRequest, msg.CatchUpReply, msg.CatchUpAck,
		msg.JoinRequest, msg.JoinAccept, msg.MembershipUpdate, msg.LeaveNotice,
		msg.EvictProposal, msg.EvictAck, msg.EvictNotice,
		msg.SlotMapUpdate, msg.SlotHandoff:
		return true
	}
	return false
}

func newRelay(inner core.Transport) *relay {
	r := &relay{inner: inner}
	inner.SetHandler(func(src netemu.NodeID, m any) {
		if r.dropRepl.Load() && isReplPlane(m) {
			return
		}
		r.gate.RLock()
		defer r.gate.RUnlock()
		if h := r.h.Load(); h != nil {
			(*h)(src, m)
		}
	})
	return r
}

func (r *relay) ID() netemu.NodeID             { return r.inner.ID() }
func (r *relay) Send(dst netemu.NodeID, m any) { r.inner.Send(dst, m) }
func (r *relay) SetHandler(h netemu.Handler)   { r.h.Store(&h) }

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.NumDCs < 1 || cfg.NumPartitions < 1 {
		return nil, fmt.Errorf("cluster: invalid layout %dx%d", cfg.NumDCs, cfg.NumPartitions)
	}
	if cfg.Engine != POCC && cfg.Engine != Cure && cfg.Engine != HAPOCC {
		return nil, errors.New("cluster: unknown engine")
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
	if cfg.MaxPartitions > keyspace.NumSlots {
		return nil, fmt.Errorf("cluster: MaxPartitions %d exceeds the slot universe (%d)", cfg.MaxPartitions, keyspace.NumSlots)
	}
	maxParts := cfg.MaxPartitions
	if maxParts == 0 {
		maxParts = cfg.NumPartitions
	}
	if maxParts > cfg.NumPartitions && !keyspace.SlotAligned(cfg.NumPartitions) {
		// Reshard headroom is reserved, but the first reshard could never
		// run: the static hash%N layout the deployment starts on is only
		// expressible as a slot table when N divides the slot universe.
		return nil, fmt.Errorf("cluster: MaxPartitions headroom requires NumPartitions dividing %d (got %d); the static layout cannot otherwise be adopted as a slot table",
			keyspace.NumSlots, cfg.NumPartitions)
	}
	c := &Cluster{cfg: cfg, maxDCs: maxDCs, maxParts: maxParts, status: make([]uint8, maxDCs)}
	c.parts.Store(int32(cfg.NumPartitions))
	var transports map[netemu.NodeID]core.Transport
	if cfg.TCP {
		var err error
		transports, err = c.buildTCPTransports()
		if err != nil {
			return nil, err
		}
	} else {
		c.net = netemu.New(netemu.Config{
			Latency:    cfg.Latency,
			JitterFrac: cfg.JitterFrac,
			Seed:       cfg.Seed,
		})
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xc105))
	// The matrices hold a row for every DC slot that may ever exist, so
	// AddDC only fills entries in and the lock-free Server lookup never
	// races a reshape.
	c.servers = make([][]atomic.Pointer[core.Server], maxDCs)
	c.transports = make([][]core.Transport, maxDCs)
	c.skews = make([][]time.Duration, maxDCs)
	c.mx = make([][]*core.Metrics, maxDCs)
	if cfg.DataDir != "" {
		c.relays = make([][]*relay, maxDCs)
	}
	for dc := 0; dc < maxDCs; dc++ {
		// Columns are sized to MaxPartitions so SplitPartition only fills
		// entries in, mirroring the MaxDCs row reservation.
		c.servers[dc] = make([]atomic.Pointer[core.Server], maxParts)
		c.transports[dc] = make([]core.Transport, maxParts)
		c.skews[dc] = make([]time.Duration, maxParts)
		c.mx[dc] = make([]*core.Metrics, maxParts)
		if c.relays != nil {
			c.relays[dc] = make([]*relay, maxParts)
		}
	}

	// First pass: register every initial node's transport (and relay) before
	// any server starts. A started server heartbeats its siblings
	// immediately, so every endpoint must exist before the first server
	// comes up.
	for dc := 0; dc < cfg.NumDCs; dc++ {
		c.status[dc] = msg.DCActive
		for p := 0; p < cfg.NumPartitions; p++ {
			id := netemu.NodeID{DC: dc, Partition: p}
			if cfg.ClockSkew > 0 {
				c.skews[dc][p] = time.Duration(rng.Int64N(int64(2*cfg.ClockSkew))) - cfg.ClockSkew
			}
			var transport core.Transport
			if cfg.TCP {
				transport = transports[id]
			} else {
				transport = c.net.Register(id, nil)
			}
			if c.relays != nil {
				// Durable deployments interpose a relay so RestartServer can
				// pause delivery while it swaps the server behind it.
				rl := newRelay(transport)
				c.relays[dc][p] = rl
				transport = rl
			}
			c.transports[dc][p] = transport
			c.mx[dc][p] = &core.Metrics{}
		}
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
			c.servers[dc][p].Store(srv)
		}
	}
	return c, nil
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
		return clock.New(c.skews[dc][p])
	}
	return clock.NewHLC(c.skews[dc][p])
}

// serverConfigLocked is serverConfig with memberMu held: the membership
// mirror (DC count, statuses, epoch) feeds the server's initial view, so a
// server started or restarted after the deployment grew or shrank begins
// from reality instead of the seed layout.
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
	// A server started or restarted after a reshard begins from the current
	// slot table and partition count; pre-reshard (slots nil) it gets no
	// table and routes by the static layout, exactly like the seed. An
	// in-flight reshard's staged table takes precedence: a donor restarted
	// between the fence install and the flip must come back fenced, or it
	// would accept moved-slot writes that are stranded once routing flips.
	numParts := int(c.parts.Load())
	var slots *keyspace.SlotMap
	if m := c.pendingSlots.Load(); m != nil {
		slots = m.Clone()
	} else if m := c.slots.Load(); m != nil {
		slots = m.Clone()
	}
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
		ID:                    netemu.NodeID{DC: dc, Partition: p},
		NumDCs:                numDCs,
		NumPartitions:         numParts,
		MaxPartitions:         c.maxParts,
		SlotMap:               slots,
		Clock:                 c.newClock(dc, p),
		Endpoint:              c.transports[dc][p],
		DefaultMode:           mode,
		HeartbeatInterval:     c.cfg.HeartbeatInterval,
		StabilizationInterval: stab,
		LeanStabilization:     c.cfg.LeanStabilization,
		GCInterval:            c.cfg.GCInterval,
		PutDepWait:            c.cfg.PutDepWait,
		BlockTimeout:          blockTimeout,
		DataDir:               dataDir,
		DurableOptions:        c.cfg.Durable,
		MaxDCs:                c.maxDCs,
		Joining:               joining,
		JoinTimeout:           c.cfg.JoinTimeout,
		GCMaxHoldback:         c.cfg.GCMaxHoldback,
		Membership:            view,
		Metrics:               c.mx[dc][p],
	}
}

// RestartServer simulates a partition-server crash and recovery: the server
// is killed, a fresh one reopens the same durable data directory — its
// version chains and VV floor rebuilt from the snapshot and log tail — and
// takes over the node's network endpoint. Client operations racing the
// restart fail with core.ErrStopped and may be retried.
//
// It requires Config.DataDir: an in-memory server would restart empty, which
// is a data loss, not a recovery.
//
// The kill is a real crash: the outgoing replication buffer is discarded,
// not flushed — sibling DCs lose the tail of the update stream — and
// replication-plane messages arriving during the down window are dropped,
// as a dead machine would drop them. The restarted server and its siblings
// then detect the discontinuities through the link sequence numbers and
// resynchronize by WAL-shipped catch-up (internal/repl). The torn-log
// recovery paths are covered separately by tests that truncate segment
// files on disk between a close and a reopen.
func (c *Cluster) RestartServer(dc, p int) error {
	if c.relays == nil {
		return errors.New("cluster: RestartServer requires Config.DataDir (durable engines)")
	}
	if dc < 0 || dc >= len(c.relays) || p < 0 || p >= c.numParts() || c.relays[dc][p] == nil {
		return fmt.Errorf("cluster: no server dc%d-p%d (DC never joined)", dc, p)
	}
	old := c.Server(dc, p)
	if old == nil {
		return fmt.Errorf("cluster: no running server dc%d-p%d (DC departed)", dc, p)
	}
	rl := c.relays[dc][p]
	// A dead machine receives nothing: drop replication traffic for the
	// whole down window (in-flight deliveries included, before the gate
	// settles). Catch-up repairs the loss after the restart — so the drop
	// must end when this function does, even on a failed reopen.
	rl.dropRepl.Store(true)
	defer rl.dropRepl.Store(false)
	rl.gate.Lock() // drain in-flight request deliveries, pause new ones
	defer rl.gate.Unlock()
	old.Crash()
	srv, err := core.NewServer(c.serverConfig(dc, p))
	if err != nil {
		return fmt.Errorf("cluster: restart dc%d-p%d: %w", dc, p, err)
	}
	c.servers[dc][p].Store(srv)
	// Re-read the routing state after publishing the server: a reshard that
	// flipped (or aborted) between the config snapshot above and now has
	// already walked the server matrix, so its install may have hit the dead
	// predecessor. The lattice merge makes the re-install idempotent.
	if m := c.pendingSlots.Load(); m != nil {
		srv.InstallSlotMap(m)
	} else if m := c.slots.Load(); m != nil {
		srv.InstallSlotMap(m)
	}
	return nil
}

// DropInboundReplication severs (drop=true) or restores the
// replication-plane delivery to one node: while severed, batches,
// heartbeats and catch-up traffic addressed to the node are discarded — not
// buffered — emulating a receiver cut off from the update stream. On
// restore the node sees a sequence gap on each inbound link and
// resynchronizes from its siblings' logs. Requires
// Config.DataDir (the relay interposer exists only on durable
// deployments).
func (c *Cluster) DropInboundReplication(dc, p int, drop bool) error {
	if c.relays == nil {
		return errors.New("cluster: DropInboundReplication requires Config.DataDir")
	}
	c.relays[dc][p].dropRepl.Store(drop)
	return nil
}

// AddDC grows the deployment by one data center: it registers the new DC's
// endpoints, starts its partition servers in joining mode, and returns the
// new DC id. The joiners bootstrap themselves — each sends a JoinRequest to
// its sibling partition in every active DC, pulls that sibling's history
// through WAL-shipped catch-up, and announces itself Active once every
// inbound link is synced (see internal/repl). AddDC returns as soon as the
// servers are up; use WaitForJoin to block until the bootstrap finished.
//
// It requires Config.DataDir: the join bootstrap is the catch-up protocol,
// which streams history out of the siblings' write-ahead logs — an
// in-memory deployment has nothing to bootstrap a joiner from. The
// deployment must have MaxDCs headroom; a departed DC's slot is never
// reused.
func (c *Cluster) AddDC() (int, error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.cfg.DataDir == "" {
		return 0, errors.New("cluster: AddDC requires Config.DataDir (joiners bootstrap from the siblings' WALs)")
	}
	dc := int(c.dcs.Load())
	if dc >= c.maxDCs {
		return 0, fmt.Errorf("cluster: no MaxDCs headroom left (capacity %d used up)", c.maxDCs)
	}
	// Register the new DC's endpoints (and relays) before any server — ours
	// or a sibling answering a JoinRequest — can address them.
	rng := rand.New(rand.NewPCG(c.cfg.Seed, 0xadd<<16|uint64(dc)))
	for p := 0; p < c.numParts(); p++ {
		id := netemu.NodeID{DC: dc, Partition: p}
		if c.cfg.ClockSkew > 0 {
			c.skews[dc][p] = time.Duration(rng.Int64N(int64(2*c.cfg.ClockSkew))) - c.cfg.ClockSkew
		}
		var transport core.Transport
		if c.cfg.TCP {
			node, err := tcpnet.Listen(id, "127.0.0.1:0")
			if err != nil {
				return 0, fmt.Errorf("cluster: join dc%d: %w", dc, err)
			}
			c.tcpNodes = append(c.tcpNodes, node)
			c.tcpDir[id] = node.Addr()
			transport = node
		} else {
			transport = c.net.Register(id, nil)
		}
		rl := newRelay(transport) // DataDir is required, so relays exist
		c.relays[dc][p] = rl
		c.transports[dc][p] = rl
		c.mx[dc][p] = &core.Metrics{}
	}
	if c.cfg.TCP {
		// Every node — old and new — needs the extended directory before the
		// first send to or from the new DC.
		for _, n := range c.tcpNodes {
			n.Connect(c.tcpDir)
		}
	}
	c.epoch++
	c.status[dc] = msg.DCJoining
	c.dcs.Store(int32(dc + 1))
	for p := 0; p < c.numParts(); p++ {
		srv, err := core.NewServer(c.serverConfigLocked(dc, p, true))
		if err != nil {
			// Unwind the half-started DC: the servers already running
			// announce their departure (so siblings that merged the join
			// drop the dead links) and close; the id stays burned.
			for q := 0; q < p; q++ {
				if started := c.servers[dc][q].Swap(nil); started != nil {
					started.AnnounceLeave()
					started.Close()
				}
			}
			c.status[dc] = msg.DCLeft
			c.epoch++
			return 0, fmt.Errorf("cluster: join dc%d-p%d: %w", dc, p, err)
		}
		c.servers[dc][p].Store(srv)
	}
	return dc, nil
}

// WaitForJoin blocks until every partition server of dc has finished its
// bootstrap — every inbound link synced via catch-up and the DC announced
// Active — or the timeout expires. On success the admin-side membership
// mirror is promoted too, so servers restarted later start from the settled
// view. If a server gave up soliciting (Config.JoinTimeout elapsed before
// the bootstrap completed), the half-joined DC is torn down cleanly — its
// servers announce their departure and close, the slot's id stays burned —
// and WaitForJoin reports the failure.
func (c *Cluster) WaitForJoin(dc int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for p := 0; p < c.numParts(); p++ {
			srv := c.Server(dc, p)
			if srv != nil && srv.JoinFailed() {
				c.unwindJoin(dc)
				return fmt.Errorf("cluster: dc%d gave up joining (JoinTimeout %v); torn down", dc, c.cfg.JoinTimeout)
			}
			if srv == nil || !srv.Bootstrapped() {
				done = false
				break
			}
		}
		if done {
			c.memberMu.Lock()
			if c.status[dc] == msg.DCJoining {
				c.status[dc] = msg.DCActive
				c.epoch++
			}
			c.memberMu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: dc%d did not finish joining within %v (catch-up stats %+v)",
				dc, timeout, c.ReplicationStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// unwindJoin tears a half-joined DC down: every still-running server
// announces its departure (so siblings that merged the join drop the dead
// links) and closes, and the mirror marks the slot Left for good.
func (c *Cluster) unwindJoin(dc int) {
	for p := 0; p < c.numParts(); p++ {
		if srv := c.servers[dc][p].Swap(nil); srv != nil {
			srv.AnnounceLeave()
			srv.Close()
		}
	}
	c.memberMu.Lock()
	if c.status[dc] != msg.DCLeft {
		c.status[dc] = msg.DCLeft
		c.epoch++
	}
	c.memberMu.Unlock()
}

// RemoveDC removes a data center from the deployment. Each of its partition
// servers announces the departure — flushing its replication buffer and
// following it with a LeaveNotice on the same FIFO links, so the surviving
// DCs hold the departed history in full and freeze its version-vector
// entries at the announced final timestamps — and is then closed. The slot
// is retired for good: its id is never reused (its timestamps live on in
// the survivors' stores), sessions pinned to it fail their next operation,
// and stabilization on the survivors keeps advancing because nothing can
// depend on the departed DC beyond its final timestamp.
func (c *Cluster) RemoveDC(dc int) error {
	c.memberMu.Lock()
	if dc < 0 || dc >= int(c.dcs.Load()) {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no data center %d", dc)
	}
	if c.status[dc] == msg.DCLeft {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: dc%d already left", dc)
	}
	live := 0
	for _, st := range c.status {
		if st == msg.DCActive || st == msg.DCJoining {
			live++
		}
	}
	if live <= 1 {
		c.memberMu.Unlock()
		return errors.New("cluster: cannot remove the last data center")
	}
	c.status[dc] = msg.DCLeft
	c.epoch++
	c.memberMu.Unlock()
	for p := 0; p < c.numParts(); p++ {
		srv := c.servers[dc][p].Swap(nil)
		if srv == nil {
			continue // half-started join slot; nothing ever ran here
		}
		srv.AnnounceLeave()
		srv.Close()
	}
	return nil
}

// KillDC crashes every partition server of a data center at once — a whole
// machine-room failure. The dead DC's outgoing replication tails are
// discarded and its endpoints drop all inbound replication traffic from then
// on; the membership mirror still counts it as a member, so the survivors'
// GSS freezes at the dead DC's last replicated timestamps until
// ForceRemoveDC evicts it. The slot cannot be restarted afterwards (the
// forced-removal semantics discard its un-agreed suffix for good). Requires
// Config.DataDir (the relay interposer).
func (c *Cluster) KillDC(dc int) error {
	if c.relays == nil {
		return errors.New("cluster: KillDC requires Config.DataDir")
	}
	c.memberMu.Lock()
	if dc < 0 || dc >= int(c.dcs.Load()) {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no data center %d", dc)
	}
	if c.status[dc] == msg.DCLeft {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: dc%d already left", dc)
	}
	c.memberMu.Unlock()
	for p := 0; p < c.numParts(); p++ {
		if rl := c.relays[dc][p]; rl != nil {
			rl.dropRepl.Store(true) // a dead machine receives nothing
		}
		if srv := c.servers[dc][p].Swap(nil); srv != nil {
			srv.Crash()
		}
	}
	return nil
}

// ForceRemoveDC forcibly removes a crashed data center: the surviving DCs
// run the eviction protocol (core.Server.ForceRemove) for every partition,
// agreeing per link on the highest update timestamp any of them replicated
// from the dead DC; each survivor freezes its membership entry at that final
// and discards any version above it. If the DC's servers are still running
// they are killed first — forced removal is for dead DCs, and an evicted
// slot can never come back (its un-agreed suffix is gone). timeout bounds
// each partition's proposal round (0 selects a default). On an error the
// eviction may be partially applied; calling ForceRemoveDC again resumes it
// (the proposal round is idempotent).
func (c *Cluster) ForceRemoveDC(dead int, timeout time.Duration) error {
	c.memberMu.Lock()
	if dead < 0 || dead >= int(c.dcs.Load()) {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no data center %d", dead)
	}
	if c.status[dead] == msg.DCLeft {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: dc%d already left", dead)
	}
	status := append([]uint8(nil), c.status...)
	c.memberMu.Unlock()
	live := 0
	for dc, st := range status {
		if dc != dead && st == msg.DCActive {
			live++
		}
	}
	if live == 0 {
		return errors.New("cluster: no active survivor to coordinate the eviction")
	}
	if err := c.KillDC(dead); err != nil {
		return err
	}
	// One eviction round per partition: each link (dead,p)→(·,p) has its own
	// agreed final, proposed by the lowest live DC holding that partition.
	finals := make([]vclock.Timestamp, c.numParts())
	for p := range finals {
		var prop *core.Server
		for dc := 0; dc < int(c.dcs.Load()); dc++ {
			if dc == dead || status[dc] != msg.DCActive {
				continue
			}
			if srv := c.Server(dc, p); srv != nil {
				prop = srv
				break
			}
		}
		if prop == nil {
			return fmt.Errorf("cluster: no running survivor holds partition %d", p)
		}
		f, err := prop.ForceRemove(dead, timeout)
		if err != nil {
			return fmt.Errorf("cluster: evict dc%d (partition %d): %w", dead, p, err)
		}
		finals[p] = f
	}
	c.memberMu.Lock()
	if c.finals == nil {
		c.finals = make(map[int][]vclock.Timestamp)
	}
	c.finals[dead] = finals
	if c.status[dead] != msg.DCLeft {
		c.status[dead] = msg.DCLeft
		c.epoch++
	}
	c.memberMu.Unlock()
	return nil
}

// NumDCs returns the number of data-center slots created so far, including
// departed ones (slots are never reused, so this is also one past the
// highest DC id). Use Membership for per-DC statuses.
func (c *Cluster) NumDCs() int { return int(c.dcs.Load()) }

// MaxDCs returns the deployment's DC-slot capacity.
func (c *Cluster) MaxDCs() int { return c.maxDCs }

// Membership returns the admin-side membership mirror. The authoritative
// views live on the servers (core.Server.Membership) and converge through
// the join/leave protocol; the mirror is what new and restarted servers are
// seeded with.
func (c *Cluster) Membership() msg.Membership {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	return msg.Membership{Epoch: c.epoch, Status: append([]uint8(nil), c.status...)}
}

// StorageErr returns the first sticky persistence error reported by any
// server's engine, or nil. Durable deployments should poll it: a failed
// engine keeps serving from memory but no longer survives a crash.
func (c *Cluster) StorageErr() error {
	for dc := 0; dc < c.NumDCs(); dc++ {
		for p := 0; p < c.numParts(); p++ {
			srv := c.Server(dc, p)
			if srv == nil {
				continue // departed DC
			}
			if err := srv.StorageErr(); err != nil {
				return fmt.Errorf("cluster: dc%d-p%d storage: %w", dc, p, err)
			}
		}
	}
	return nil
}

// StorageStats aggregates every server's storage statistics, sampled with
// the engines' single-pass Stats so each server's keys/versions pair is
// consistent per shard.
func (c *Cluster) StorageStats() storage.StoreStats {
	var st storage.StoreStats
	for dc := 0; dc < c.NumDCs(); dc++ {
		for p := 0; p < c.numParts(); p++ {
			srv := c.Server(dc, p)
			if srv == nil {
				continue // departed DC
			}
			es := srv.Store().Stats()
			st.Keys += es.Keys
			st.Versions += es.Versions
		}
	}
	return st
}

// DurableStats aggregates every durable engine's commit-pipeline and
// catch-up seek counters. All-zero for in-memory deployments.
func (c *Cluster) DurableStats() storage.DurableStats {
	var st storage.DurableStats
	for dc := 0; dc < c.NumDCs(); dc++ {
		for p := 0; p < c.numParts(); p++ {
			srv := c.Server(dc, p)
			if srv == nil {
				continue // departed DC
			}
			st.Merge(srv.DurableStats())
		}
	}
	return st
}

// ReplicationStats summarizes the state of the replication plane across
// the deployment.
type ReplicationStats struct {
	// LagPerDC is, per data center, the worst replication lag any of its
	// partition servers observes against any remote DC: the server's own
	// version-vector entry minus the remote one, in time units. A link
	// frozen by an in-flight catch-up shows up here as growing lag.
	LagPerDC []time.Duration
	// LagPerLink breaks the lag down by link: LagPerLink[dst][src] is the
	// worst lag any partition server of DC dst observes on its inbound
	// stream from DC src (zero on the diagonal, for departed DCs, and for
	// slots that never joined). LagPerDC[dst] is the row maximum.
	LagPerLink [][]time.Duration
	// CatchUpsRequested / CatchUpsCompleted count inbound catch-up rounds
	// started and finished across all servers; CatchUpsServed counts the
	// WAL-shipped streams served to lagging siblings.
	CatchUpsRequested uint64
	CatchUpsCompleted uint64
	CatchUpsServed    uint64
	// CatchUpsActive is the number of links currently frozen mid-round.
	CatchUpsActive int
	// FullResyncs counts catch-up rounds answered with a full-history resync
	// (the requested range was checkpoint-pruned on the sender).
	FullResyncs uint64
	// LinkStates[dst][src] is the health of DC dst's inbound link from DC
	// src — the worst state any of dst's partition servers reports
	// (repl.LinkState is ordered by severity), LinkSelf on the diagonal. The
	// row of a departed DC is empty.
	LinkStates [][]repl.LinkState
	// GCHoldbackAge is the age of the oldest live GC holdback anywhere in
	// the deployment — how long the worst laggard has been deferring GC.
	GCHoldbackAge time.Duration
}

// MaxLag returns the worst per-DC lag.
func (r ReplicationStats) MaxLag() time.Duration {
	var max time.Duration
	for _, l := range r.LagPerDC {
		if l > max {
			max = l
		}
	}
	return max
}

// ReplicationStats samples every server's replication lag and catch-up
// counters.
func (c *Cluster) ReplicationStats() ReplicationStats {
	dcs := c.NumDCs()
	st := ReplicationStats{
		LagPerDC:   make([]time.Duration, dcs),
		LagPerLink: make([][]time.Duration, dcs),
	}
	st.LinkStates = make([][]repl.LinkState, dcs)
	for dc := 0; dc < dcs; dc++ {
		st.LagPerLink[dc] = make([]time.Duration, dcs)
		for p := 0; p < c.numParts(); p++ {
			srv := c.Server(dc, p)
			if srv == nil {
				continue // departed DC
			}
			for src, lag := range srv.ReplicationLag() {
				if src < dcs && lag > st.LagPerLink[dc][src] {
					st.LagPerLink[dc][src] = lag
				}
				if lag > st.LagPerDC[dc] {
					st.LagPerDC[dc] = lag
				}
			}
			if st.LinkStates[dc] == nil {
				st.LinkStates[dc] = make([]repl.LinkState, dcs)
			}
			for src, state := range srv.LinkStates() {
				if src < dcs {
					st.LinkStates[dc][src] = max(st.LinkStates[dc][src], state)
				}
			}
			if age := srv.GCHoldbackAge(); age > st.GCHoldbackAge {
				st.GCHoldbackAge = age
			}
			cs := srv.CatchUpStats()
			st.CatchUpsRequested += cs.Requested
			st.CatchUpsCompleted += cs.Completed
			st.CatchUpsServed += cs.Served
			st.CatchUpsActive += cs.ActiveIn
			st.FullResyncs += cs.FullResyncs
		}
	}
	return st
}

// buildTCPTransports binds a loopback TCP node for every server and
// distributes the address directory.
func (c *Cluster) buildTCPTransports() (map[netemu.NodeID]core.Transport, error) {
	c.tcpDir = make(map[netemu.NodeID]string)
	out := make(map[netemu.NodeID]core.Transport)
	for dc := 0; dc < c.cfg.NumDCs; dc++ {
		for p := 0; p < c.numParts(); p++ {
			id := netemu.NodeID{DC: dc, Partition: p}
			node, err := tcpnet.Listen(id, "127.0.0.1:0")
			if err != nil {
				for _, n := range c.tcpNodes {
					n.Close()
				}
				return nil, fmt.Errorf("cluster: %w", err)
			}
			c.tcpNodes = append(c.tcpNodes, node)
			c.tcpDir[id] = node.Addr()
			out[id] = node
		}
	}
	for _, n := range c.tcpNodes {
		n.Connect(c.tcpDir)
	}
	return out, nil
}

// Close stops every server and the network. Close must not race an
// in-flight RestartServer (tests restart, then clean up).
func (c *Cluster) Close() {
	for dc := range c.servers {
		for p := range c.servers[dc] {
			if s := c.servers[dc][p].Load(); s != nil {
				s.Close()
			}
		}
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

// Messages returns the total number of protocol messages sent, in either
// transport mode.
func (c *Cluster) Messages() uint64 {
	if c.net != nil {
		return c.net.MessageCount()
	}
	c.memberMu.Lock()
	nodes := c.tcpNodes
	c.memberMu.Unlock()
	var total uint64
	for _, n := range nodes {
		total += n.Sent()
	}
	return total
}

// Server returns the partition server p of data center dc (the current one,
// if the node has been restarted), or nil for a DC that departed or never
// joined. The lookup is a lock-free atomic load, so the per-operation
// routing of sessions costs nothing extra.
func (c *Cluster) Server(dc, p int) *core.Server {
	if dc < 0 || dc >= len(c.servers) || p < 0 || p >= len(c.servers[dc]) {
		return nil
	}
	return c.servers[dc][p].Load()
}

// numParts returns the number of partition servers currently live in every
// member DC (grows on SplitPartition).
func (c *Cluster) numParts() int { return int(c.parts.Load()) }

// NumPartitions returns the number of live partition servers per DC.
func (c *Cluster) NumPartitions() int { return c.numParts() }

// MaxPartitions returns the deployment's partition capacity.
func (c *Cluster) MaxPartitions() int { return c.maxParts }

// SlotTable returns a copy of the cluster's current routing table, or nil if
// the deployment still routes by the static layout (no reshard has run).
func (c *Cluster) SlotTable() *keyspace.SlotMap {
	if m := c.slots.Load(); m != nil {
		return m.Clone()
	}
	return nil
}

// routingMap returns the effective slot table: the installed one, or the
// default layout materialized (reshards start from it).
func (c *Cluster) routingMap() *keyspace.SlotMap {
	if m := c.slots.Load(); m != nil {
		return m
	}
	return keyspace.DefaultMap(c.numParts())
}

// PartitionOf returns the partition responsible for key. Until the first
// reshard this is the static hash layout; afterwards the slot table decides,
// loaded atomically so sessions pick up an epoch flip between operations.
func (c *Cluster) PartitionOf(key string) int {
	if m := c.slots.Load(); m != nil {
		return m.OwnerOf(key)
	}
	return keyspace.PartitionOf(key, c.cfg.NumPartitions)
}

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
// immediately visible and stable everywhere.
func (c *Cluster) Seed(key string, value []byte) {
	ut := vclock.Timestamp(c.seedSeq.Add(1))
	p := c.PartitionOf(key)
	for dc := 0; dc < c.NumDCs(); dc++ {
		srv := c.Server(dc, p)
		if srv == nil {
			continue // departed DC
		}
		v := &item.Version{
			Key:        key,
			Value:      append([]byte(nil), value...),
			SrcReplica: 0,
			UpdateTime: ut,
			Deps:       vclock.New(c.maxDCs),
		}
		srv.Store().Insert(v)
	}
}

// SeedTable pre-loads every key of a keyspace table with an 8-byte value.
func (c *Cluster) SeedTable(table *keyspace.Table) {
	for p := 0; p < table.Partitions(); p++ {
		for _, k := range table.AllKeys(p) {
			c.Seed(k, []byte("00000000"))
		}
	}
}

// Aggregate is the cluster-wide union of per-server metrics.
type Aggregate struct {
	GetBlocking metrics.BlockingSnapshot
	PutBlocking metrics.BlockingSnapshot
	TxBlocking  metrics.BlockingSnapshot
	GetStale    metrics.StalenessSnapshot
	TxStale     metrics.StalenessSnapshot
	// Parked slices by the entry they waited on (core.Metrics).
	TxParkLocal  uint64
	TxParkRemote uint64
}

// Blocking merges GET, PUT and slice-read blocking, the aggregate Fig. 2a /
// 3c report.
func (a Aggregate) Blocking() metrics.BlockingSnapshot {
	out := a.GetBlocking
	out.Add(a.PutBlocking)
	out.Add(a.TxBlocking)
	return out
}

// Metrics aggregates every server's statistics.
func (c *Cluster) Metrics() Aggregate {
	var agg Aggregate
	for dc := range c.mx {
		for _, m := range c.mx[dc] {
			if m == nil {
				continue // DC slot never joined
			}
			agg.GetBlocking.Add(m.GetBlocking.Snapshot())
			agg.PutBlocking.Add(m.PutBlocking.Snapshot())
			agg.TxBlocking.Add(m.TxBlocking.Snapshot())
			agg.GetStale.Add(m.GetStale.Snapshot())
			agg.TxStale.Add(m.TxStale.Snapshot())
			agg.TxParkLocal += m.TxParkLocal.Load()
			agg.TxParkRemote += m.TxParkRemote.Load()
		}
	}
	return agg
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
