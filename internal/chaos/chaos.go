// Package chaos is the repository's continuous fault-injection harness: it
// drives a live HA-POCC deployment through an interleaved schedule of server
// crash/restarts, whole-DC membership churn (joins, graceful leaves, kills
// followed by forced removal), inter-DC link flaps and live latency
// reprofiles, while concurrent checker sessions assert causal consistency
// (internal/causaltest) and a watchdog asserts that global stabilization
// keeps making progress whenever no fault legitimately freezes it.
//
// The fault schedule is computed up front as a pure function of a seed
// (Schedule), so a failing soak is replayed exactly by re-running with the
// seed it reports. Execution-time skips (an event drawn against a DC that
// already departed, say) are decided by cluster state and recorded in the
// trace, but the schedule itself — times, kinds, targets — never depends on
// runtime state.
//
// A run ends with a heal-and-quiesce epilogue: every link is restored, the
// latency profile reset, in-flight joins settled, and the harness then
// requires (1) a marker written after the heal to become visible at every
// surviving DC, (2) every surviving DC to converge to identical heads for
// the whole chaos keyspace, and (3) the GSS of every survivor to advance
// past the marker — the "no permanent wedge" guarantee that forced removal
// and catch-up exist to provide. Violations of any of these, or any
// causality violation observed mid-run, fail the run; Report.Dump renders
// the seed plus the executed fault trace for reproduction.
package chaos

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causaltest"
	"repro/internal/cluster"
	"repro/internal/netemu"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Kind enumerates the fault types the scheduler draws from.
type Kind int

// Fault kinds.
const (
	// CrashRestart crash-restarts one partition server (kill -9 plus
	// WAL recovery plus catch-up resync).
	CrashRestart Kind = iota
	// LinkFlap partitions two DCs for Event.Dur, then heals.
	LinkFlap
	// LatencyScale multiplies every link's base latency by Event.Scale.
	LatencyScale
	// AddDC grows the deployment by a joining DC (bootstrapped by catch-up).
	AddDC
	// RemoveDC gracefully removes a DC (announced finals, flushed history).
	RemoveDC
	// KillAndEvict crashes a whole DC and forcibly removes it: the survivors
	// agree on its final replicated timestamps and discard the rest.
	KillAndEvict
	// SlotMove reshards part of one partition's slot range onto another
	// existing partition (drain-then-flip under the next slot-table epoch).
	SlotMove
	// PartitionSplit grows the keyspace by one partition server per DC and
	// moves half of a donor's slots onto it, bootstrapped from the donors'
	// history while the checked workload keeps writing.
	PartitionSplit
)

func (k Kind) String() string {
	switch k {
	case CrashRestart:
		return "crash-restart"
	case LinkFlap:
		return "link-flap"
	case LatencyScale:
		return "latency-scale"
	case AddDC:
		return "add-dc"
	case RemoveDC:
		return "remove-dc"
	case KillAndEvict:
		return "kill+evict"
	case SlotMove:
		return "slot-move"
	case PartitionSplit:
		return "partition-split"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the offset from the start of the run.
	At   time.Duration
	Kind Kind
	// DC (and P for CrashRestart, the donor partition for SlotMove and
	// PartitionSplit) is the primary target; DC2 is the peer of a LinkFlap.
	DC, DC2, P int
	// P2 is the receiving partition of a SlotMove.
	P2 int
	// Dur is the down window of a LinkFlap.
	Dur time.Duration
	// Scale is the LatencyScale multiplier.
	Scale float64
}

func (e Event) String() string {
	switch e.Kind {
	case CrashRestart:
		return fmt.Sprintf("%v %v dc%d-p%d", e.At, e.Kind, e.DC, e.P)
	case LinkFlap:
		return fmt.Sprintf("%v %v dc%d<->dc%d for %v", e.At, e.Kind, e.DC, e.DC2, e.Dur)
	case LatencyScale:
		return fmt.Sprintf("%v %v x%g", e.At, e.Kind, e.Scale)
	case SlotMove:
		return fmt.Sprintf("%v %v p%d->p%d", e.At, e.Kind, e.P, e.P2)
	case PartitionSplit:
		return fmt.Sprintf("%v %v p%d", e.At, e.Kind, e.P)
	default:
		return fmt.Sprintf("%v %v dc%d", e.At, e.Kind, e.DC)
	}
}

// The deployment every run starts from and the load it carries: a 3 × 2
// layout with headroom for three DC joins (a departed DC's id is never
// reused) and two partition splits, four checker sessions, 24 shared keys.
const (
	numDCs        = 3
	numPartitions = 2
	maxDCs        = numDCs + 3
	maxPartitions = numPartitions + 2
	numWorkers    = 4
	numKeys       = 24
)

// Schedule computes the fault schedule for a run: a pure function of the
// seed and the run's length. Replaying a seed therefore reproduces the
// identical schedule; whether an individual event applies or is skipped is
// decided against live cluster state at execution time (and recorded in the
// trace), never fed back into the schedule.
func Schedule(seed uint64, d time.Duration) []Event {
	rng := rand.New(rand.NewPCG(seed, 0xc4a05))
	var evs []Event
	at := 150*time.Millisecond + time.Duration(rng.Int64N(int64(250*time.Millisecond)))
	for at < d {
		e := Event{At: at}
		switch r := rng.IntN(100); {
		case r < 30:
			e.Kind = CrashRestart
			e.DC = rng.IntN(maxDCs)
			e.P = rng.IntN(numPartitions)
		case r < 52:
			e.Kind = LinkFlap
			e.DC = rng.IntN(maxDCs)
			e.DC2 = rng.IntN(maxDCs - 1)
			if e.DC2 >= e.DC {
				e.DC2++
			}
			e.Dur = 100*time.Millisecond + time.Duration(rng.Int64N(int64(600*time.Millisecond)))
		case r < 62:
			e.Kind = LatencyScale
			e.Scale = []float64{0.25, 0.5, 2, 4, 1}[rng.IntN(5)]
		case r < 70:
			e.Kind = AddDC
		case r < 78:
			e.Kind = RemoveDC
			// DC 0 is never removed: the harness needs one anchor DC to write
			// the convergence marker from and to keep at least one seed member.
			e.DC = 1 + rng.IntN(maxDCs-1)
		case r < 86:
			e.Kind = KillAndEvict
			e.DC = 1 + rng.IntN(maxDCs-1)
		case r < 93:
			// Donor and receiver are drawn from the initial layout (always
			// live); the slots actually moved are picked at execution time
			// from the live table and recorded in the trace.
			e.Kind = SlotMove
			e.P = rng.IntN(numPartitions)
			e.P2 = rng.IntN(numPartitions)
		default:
			e.Kind = PartitionSplit
			e.P = rng.IntN(numPartitions)
		}
		evs = append(evs, e)
		at += 120*time.Millisecond + time.Duration(rng.Int64N(int64(500*time.Millisecond)))
	}
	return evs
}

// Options parameterizes a chaos run.
type Options struct {
	// Seed drives the fault schedule, the emulated network and the workers.
	Seed uint64
	// Duration is the fault-injection window (the epilogue adds to the wall
	// time). Zero means 3 s.
	Duration time.Duration
	// DataDir roots the per-server WALs. Required: crash-restarts, kills and
	// join bootstraps all need durable engines.
	DataDir string
	// Logf, when set, receives the live fault trace (e.g. testing.T.Logf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Duration == 0 {
		o.Duration = 3 * time.Second
	}
	return o
}

// Report is the outcome of a run.
type Report struct {
	Seed uint64
	// Trace is the executed fault trace: every event with its outcome
	// (applied, skipped and why, or failed), plus the epilogue milestones.
	Trace []string
	// Violations holds every consistency, convergence, stabilization or
	// harness failure. Empty means the run passed.
	Violations []string
	// Ops counts checker operations that completed without error; Reopens
	// counts checker sessions opened (first sessions included); OpErrors
	// counts operations that failed and forced a session reopen.
	Ops, Reopens, OpErrors uint64
	// Stats is the deployment's replication-plane summary sampled at the end.
	Stats cluster.ReplicationStats
}

// Failed reports whether the run recorded any violation.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Dump renders the seed, violations and executed fault trace — everything
// needed to reproduce and diagnose a failed soak (CI uploads it as an
// artifact).
func (r *Report) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed %d (replay: CHAOS_SEED=%d)\n", r.Seed, r.Seed)
	fmt.Fprintf(&b, "ops=%d reopens=%d op_errors=%d\n", r.Ops, r.Reopens, r.OpErrors)
	fmt.Fprintf(&b, "violations (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	b.WriteString("fault trace:\n")
	for _, t := range r.Trace {
		fmt.Fprintf(&b, "  %s\n", t)
	}
	return b.String()
}

// harness is the mutable state of one run.
type harness struct {
	opts  Options
	c     *cluster.Cluster
	reg   *causaltest.Registry
	start time.Time

	mu         sync.Mutex
	active     map[int]bool // DCs workers and faults may target
	joining    bool         // an AddDC bootstrap is in flight (at most one)
	resharding bool         // a SlotMove/PartitionSplit is in flight (at most one)
	down       map[[2]int]bool
	trace      []string
	viols      []string

	evicting atomic.Int32 // kill+evict rounds in flight (watchdog license)
	flapping atomic.Int32 // link flaps in flight (watchdog license)

	ops, reopens, opErrs atomic.Uint64

	stop      chan struct{} // closes when workers should exit
	workerWG  sync.WaitGroup
	healWG    sync.WaitGroup
	joinWG    sync.WaitGroup
	reshardWG sync.WaitGroup
	wdWG      sync.WaitGroup
}

// Run executes a full chaos run: build the deployment, inject the schedule,
// heal, quiesce, and verify. The returned error reports harness-level
// failures only (e.g. the cluster could not be built); fault-induced
// failures are Report.Violations.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, fmt.Errorf("chaos: Options.DataDir is required (crash faults need durable engines)")
	}
	c, err := cluster.New(cluster.Config{
		NumDCs:        numDCs,
		NumPartitions: numPartitions,
		Engine:        cluster.HAPOCC,
		// Fast control loops so a few seconds of soak cover many heartbeat,
		// stabilization and GC rounds.
		HeartbeatInterval:     time.Millisecond,
		StabilizationInterval: 20 * time.Millisecond,
		GCInterval:            25 * time.Millisecond,
		// A short suspicion timeout makes wedged sessions fail fast; the
		// checker reopens them rather than falling back (see NewRawSession).
		BlockTimeout: 150 * time.Millisecond,
		ClockSkew:    2 * time.Millisecond,
		Latency: func(src, dst netemu.NodeID) time.Duration {
			if src.DC == dst.DC {
				return 200 * time.Microsecond
			}
			return 2 * time.Millisecond
		},
		JitterFrac: 0.2,
		Seed:       opts.Seed,
		DataDir:    opts.DataDir,
		// Soak the pipelined commit path in its loosest acknowledged mode:
		// grouped acks are exactly what the kill/restart faults must not be
		// able to turn into causal violations.
		Durable:       storage.DurableOptions{AckMode: storage.AckGrouped},
		MaxDCs:        maxDCs,
		MaxPartitions: maxPartitions,
		// An undrainable reshard (a member killed mid-drain) must abort and
		// roll forward inside the soak window, not stall it for the default
		// 30s.
		ReshardTimeout: 4 * time.Second,
		// Joins must either finish or unwind inside the epilogue budget.
		JoinTimeout: 10 * time.Second,
		// Short enough that holdbacks for permanently dead links release
		// during the soak, long enough that live catch-ups keep their floor.
		GCMaxHoldback: 2 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: build cluster: %w", err)
	}
	defer c.Close()

	h := &harness{
		opts:   opts,
		c:      c,
		reg:    causaltest.NewRegistry(),
		active: make(map[int]bool, numDCs),
		down:   make(map[[2]int]bool),
		stop:   make(chan struct{}),
	}
	for dc := 0; dc < numDCs; dc++ {
		h.active[dc] = true
	}
	for i := 0; i < numKeys; i++ {
		c.Seed(h.key(i), []byte("seed"))
	}

	h.start = time.Now()
	for i := 0; i < numWorkers; i++ {
		h.workerWG.Add(1)
		go h.worker(i)
	}
	wdStop := make(chan struct{})
	h.wdWG.Add(1)
	go h.watchdog(wdStop)

	for _, e := range Schedule(opts.Seed, opts.Duration) {
		if d := time.Until(h.start.Add(e.At)); d > 0 {
			time.Sleep(d)
		}
		h.apply(e)
	}

	h.epilogue()
	close(wdStop)
	h.wdWG.Wait()

	h.mu.Lock()
	defer h.mu.Unlock()
	rep := &Report{
		Seed:       opts.Seed,
		Trace:      h.trace,
		Violations: append(h.viols, h.reg.Violations()...),
		Ops:        h.ops.Load(),
		Reopens:    h.reopens.Load(),
		OpErrors:   h.opErrs.Load(),
		Stats:      c.ReplicationStats(),
	}
	return rep, nil
}

func (h *harness) key(i int) string { return fmt.Sprintf("chaos-%03d", i) }

// tracef appends a line to the executed fault trace.
func (h *harness) tracef(format string, args ...any) {
	line := fmt.Sprintf("%8.3fs %s", time.Since(h.start).Seconds(), fmt.Sprintf(format, args...))
	h.mu.Lock()
	h.trace = append(h.trace, line)
	h.mu.Unlock()
	if h.opts.Logf != nil {
		h.opts.Logf("chaos: %s", line)
	}
}

// violatef records a failure (and traces it).
func (h *harness) violatef(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	h.mu.Lock()
	h.viols = append(h.viols, s)
	h.mu.Unlock()
	h.tracef("VIOLATION: %s", s)
}

// activeDCs snapshots the DCs that faults and workers may target.
func (h *harness) activeDCs() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.active))
	for dc, ok := range h.active {
		if ok {
			out = append(out, dc)
		}
	}
	sort.Ints(out)
	return out
}

// apply executes one scheduled event against live cluster state, skipping
// (with a trace entry) events whose target is gone or whose preconditions
// no longer hold.
func (h *harness) apply(e Event) {
	switch e.Kind {
	case CrashRestart:
		h.mu.Lock()
		ok := h.active[e.DC]
		h.mu.Unlock()
		if !ok {
			h.tracef("skip %v: dc%d not active", e, e.DC)
			return
		}
		if err := h.c.RestartServer(e.DC, e.P); err != nil {
			// Losing a restart race with a concurrent removal is a skip, not
			// a failure.
			h.tracef("skip %v: %v", e, err)
			return
		}
		h.tracef("%v", e)

	case LinkFlap:
		h.mu.Lock()
		ok := h.active[e.DC] && h.active[e.DC2]
		if ok {
			h.down[[2]int{e.DC, e.DC2}] = true
		}
		h.mu.Unlock()
		if !ok {
			h.tracef("skip %v: endpoint not active", e)
			return
		}
		h.flapping.Add(1)
		h.c.Network().PartitionDCs(e.DC, e.DC2, true)
		h.tracef("%v (down)", e)
		h.healWG.Add(1)
		a, b := e.DC, e.DC2
		time.AfterFunc(e.Dur, func() {
			defer h.healWG.Done()
			h.c.Network().PartitionDCs(a, b, false)
			h.mu.Lock()
			delete(h.down, [2]int{a, b})
			h.mu.Unlock()
			h.flapping.Add(-1)
			h.tracef("heal dc%d<->dc%d", a, b)
		})

	case LatencyScale:
		h.c.Network().SetLatencyScale(e.Scale)
		h.tracef("%v", e)

	case AddDC:
		h.mu.Lock()
		busy := h.joining
		if !busy {
			h.joining = true
		}
		h.mu.Unlock()
		if busy {
			h.tracef("skip %v: a join is already in flight", e)
			return
		}
		dc, err := h.c.AddDC()
		if err != nil {
			h.mu.Lock()
			h.joining = false
			h.mu.Unlock()
			h.tracef("skip %v: %v", e, err)
			return
		}
		h.tracef("%v: dc%d joining", e, dc)
		h.joinWG.Add(1)
		go func() {
			defer h.joinWG.Done()
			err := h.c.WaitForJoin(dc, 20*time.Second)
			h.mu.Lock()
			h.joining = false
			if err == nil {
				h.active[dc] = true
			}
			h.mu.Unlock()
			if err == nil {
				h.tracef("dc%d joined", dc)
			} else {
				// A join defeated by overlapping faults unwinds cleanly; that
				// is the mechanism under test, not a violation.
				h.tracef("dc%d join did not complete: %v", dc, err)
			}
		}()

	case SlotMove, PartitionSplit:
		h.mu.Lock()
		busy := h.resharding
		if !busy {
			h.resharding = true
		}
		h.mu.Unlock()
		if busy {
			h.tracef("skip %v: a reshard is already in flight", e)
			return
		}
		// Reshards run off the schedule loop: a drain defeated by an
		// overlapping kill takes the full drain bound before it aborts, and
		// that wait must not starve the rest of the schedule.
		h.reshardWG.Add(1)
		go func() {
			defer h.reshardWG.Done()
			h.runReshard(e)
			h.mu.Lock()
			h.resharding = false
			h.mu.Unlock()
		}()

	case RemoveDC:
		if !h.claimRemoval(e) {
			return
		}
		if err := h.c.RemoveDC(e.DC); err != nil {
			h.violatef("graceful removal of dc%d failed: %v", e.DC, err)
			return
		}
		h.tracef("%v (graceful)", e)

	case KillAndEvict:
		if !h.claimRemoval(e) {
			return
		}
		h.evicting.Add(1)
		defer h.evicting.Add(-1)
		if err := h.c.KillDC(e.DC); err != nil {
			h.violatef("kill dc%d failed: %v", e.DC, err)
			return
		}
		h.tracef("%v: dc%d crashed, survivors' GSS frozen", e, e.DC)
		// Let the survivors run against the dead member for a moment — the
		// window in which their GSS is legitimately frozen — then evict.
		time.Sleep(250 * time.Millisecond)
		if err := h.c.ForceRemoveDC(e.DC, 5*time.Second); err != nil {
			h.violatef("forced removal of dc%d failed: %v", e.DC, err)
			return
		}
		h.tracef("%v: dc%d evicted at agreed finals", e, e.DC)
	}
}

// runReshard executes a SlotMove or PartitionSplit against live cluster
// state. Reshards that cannot proceed (capacity used up, donor owns
// nothing, drain defeated by an overlapping fault) are skips, not
// violations: the abort path rolls the slot table forward onto the old
// owners and is itself part of the machinery under test. The checked
// workload keeps writing throughout — sessions pinned to the old owner
// retry through core.ErrWrongSlotEpoch until routing flips.
func (h *harness) runReshard(e Event) {
	switch e.Kind {
	case PartitionSplit:
		if h.c.NumPartitions() >= h.c.MaxPartitions() {
			h.tracef("skip %v: partition capacity %d used up", e, h.c.MaxPartitions())
			return
		}
		np, err := h.c.SplitPartition(e.P)
		if err != nil {
			h.tracef("skip %v: %v", e, err)
			return
		}
		h.tracef("%v: p%d live at slot epoch %d", e, np, h.c.SlotTable().Epoch)

	case SlotMove:
		parts := h.c.NumPartitions()
		donor, target := e.P%parts, e.P2%parts
		if target == donor {
			target = (target + 1) % parts
		}
		if target == donor {
			h.tracef("skip %v: single partition", e)
			return
		}
		owned := h.c.SlotTable().SlotsOwnedBy(donor)
		if len(owned) == 0 {
			h.tracef("skip %v: p%d owns no slots", e, donor)
			return
		}
		// Move a modest prefix so repeated draws keep both sides populated.
		n := len(owned) / 4
		if n == 0 {
			n = 1
		}
		if n > 8 {
			n = 8
		}
		if err := h.c.MoveSlots(owned[:n], target); err != nil {
			h.tracef("skip %v: %v", e, err)
			return
		}
		h.tracef("%v: %d slot(s) p%d->p%d at slot epoch %d", e, n, donor, target, h.c.SlotTable().Epoch)
	}
}

// claimRemoval atomically checks a removal's preconditions (target active,
// not DC 0, at least two actives surviving, no join racing it) and marks
// the DC inactive so workers and later faults stop targeting it.
func (h *harness) claimRemoval(e Event) bool {
	h.mu.Lock()
	n := 0
	for _, ok := range h.active {
		if ok {
			n++
		}
	}
	reason := ""
	switch {
	case e.DC == 0 || !h.active[e.DC]:
		reason = fmt.Sprintf("dc%d not removable", e.DC)
	case n <= 2:
		reason = fmt.Sprintf("only %d active DCs", n)
	default:
		h.active[e.DC] = false
	}
	h.mu.Unlock()
	if reason != "" {
		h.tracef("skip %v: %s", e, reason)
		return false
	}
	return true
}

// worker is one checker session loop: it runs a random mix of checked GETs,
// PUTs and RO-TXs against a live DC, and on any error discards the whole
// session and opens a fresh one — mirroring exactly the client-visible
// semantics of a fault (a failed-over client starts a new session with no
// carried-over causal context). Sessions are opened without auto-fallback so
// errors surface here instead of being absorbed mid-operation.
func (h *harness) worker(id int) {
	defer h.workerWG.Done()
	rng := rand.New(rand.NewPCG(h.opts.Seed, 0x3077+uint64(id)))
	var cs *causaltest.Session
	gen := 0
	for {
		select {
		case <-h.stop:
			return
		default:
		}
		if cs == nil {
			dcs := h.activeDCs()
			if len(dcs) == 0 {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			dc := dcs[rng.IntN(len(dcs))]
			s, err := h.c.NewRawSession(dc)
			if err != nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			gen++
			cs = causaltest.NewSession(h.reg, s, fmt.Sprintf("w%d.%d@dc%d", id, gen, dc))
			h.reopens.Add(1)
		}
		var err error
		switch r := rng.IntN(10); {
		case r < 5:
			_, err = cs.Get(h.key(rng.IntN(numKeys)))
		case r < 8:
			err = cs.Put(h.key(rng.IntN(numKeys)),
				[]byte(fmt.Sprintf("w%d-%d", id, h.ops.Load())))
		default:
			keys := make([]string, 3)
			for i := range keys {
				keys[i] = h.key(rng.IntN(numKeys))
			}
			_, err = cs.ROTx(keys)
		}
		if err != nil {
			h.opErrs.Add(1)
			cs = nil // fresh session, fresh causal context
			continue
		}
		h.ops.Add(1)
	}
}

// watchdog asserts GSS liveness: DC 0's stabilization cursor for its own
// updates must keep advancing whenever no fault (kill awaiting eviction,
// link down) can legitimately freeze the deployment. A stall without an
// active fault is exactly the permanent wedge the eviction and catch-up
// machinery exists to rule out.
func (h *harness) watchdog(stop <-chan struct{}) {
	defer h.wdWG.Done()
	const window = 10 * time.Second
	var last vclock.Timestamp
	lastProgress := time.Now()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		h.mu.Lock()
		faultActive := len(h.down) > 0
		h.mu.Unlock()
		if faultActive || h.evicting.Load() > 0 || h.flapping.Load() > 0 {
			lastProgress = time.Now() // legitimate freeze window
			continue
		}
		cur := vclock.Timestamp(0)
		ok := true
		// Live partition count: splits grow it mid-run, and a freshly
		// flipped partition's cursor folds in once its servers stabilize.
		for p := 0; p < h.c.NumPartitions(); p++ {
			srv := h.c.Server(0, p)
			if srv == nil {
				ok = false // mid-restart; try next tick
				break
			}
			g := srv.GSS().Get(0)
			if p == 0 || g < cur {
				cur = g
			}
		}
		if !ok {
			continue
		}
		if cur > last {
			last = cur
			lastProgress = time.Now()
			continue
		}
		if time.Since(lastProgress) > window {
			h.violatef("GSS stalled: dc0's own stabilization cursor stuck at %d for %v with no active fault",
				last, time.Since(lastProgress).Round(time.Millisecond))
			lastProgress = time.Now() // don't spam
		}
	}
}

// epilogue heals every injected fault, settles in-flight joins, stops the
// workers, and verifies the deployment converged: marker visibility, head
// agreement on the whole keyspace across every surviving DC, and GSS
// advancement past the marker.
func (h *harness) epilogue() {
	// Restore the network profile and every downed link (AfterFunc heals are
	// idempotent with this).
	h.c.Network().SetLatencyScale(1)
	h.mu.Lock()
	pairs := make([][2]int, 0, len(h.down))
	for p := range h.down {
		pairs = append(pairs, p)
	}
	h.mu.Unlock()
	for _, p := range pairs {
		h.c.Network().PartitionDCs(p[0], p[1], false)
	}
	h.healWG.Wait()
	h.joinWG.Wait()
	h.reshardWG.Wait()
	h.tracef("healed; joins and reshards settled; quiescing")

	close(h.stop)
	h.workerWG.Wait()

	if err := h.c.StorageErr(); err != nil {
		h.violatef("sticky storage error: %v", err)
	}

	// Write the convergence marker from DC 0 (never removed). Retries cover
	// a marker write racing the tail of a crash-restart.
	markerKey := "chaos-marker"
	var markerUT vclock.Timestamp
	var markerDC int
	wrote := false
	for attempt := 0; attempt < 50 && !wrote; attempt++ {
		s, err := h.c.NewRawSession(0)
		if err == nil {
			if ut, dc, perr := s.PutMeta(markerKey, []byte("converge")); perr == nil {
				markerUT, markerDC = ut, dc
				wrote = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !wrote {
		h.violatef("could not write the convergence marker at dc0 after healing")
		return
	}

	dcs := h.activeDCs()
	deadline := time.Now().Add(30 * time.Second)
	for {
		lag := h.convergenceLag(dcs, markerKey, markerUT, markerDC)
		if lag == "" {
			h.tracef("converged across dc%v", dcs)
			return
		}
		if time.Now().After(deadline) {
			h.violatef("no convergence within 30s after healing: %s (repl stats %+v)",
				lag, h.c.ReplicationStats())
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// convergenceLag returns "" when every surviving DC agrees: the marker is
// visible and stable everywhere and every chaos key resolves to the same
// head version at every DC. Otherwise it describes the first divergence.
func (h *harness) convergenceLag(dcs []int, markerKey string, markerUT vclock.Timestamp, markerDC int) string {
	type head struct {
		ut     vclock.Timestamp
		src    int
		exists bool
	}
	for i := 0; i < numKeys+1; i++ {
		key := markerKey
		if i < numKeys {
			key = h.key(i)
		}
		var first head
		for n, dc := range dcs {
			r, err := h.c.ReadAt(dc, key)
			if err != nil {
				return fmt.Sprintf("dc%d read %s: %v", dc, key, err)
			}
			cur := head{r.UpdateTime, r.SrcReplica, r.Exists}
			if key == markerKey && (!cur.exists || cur.ut < markerUT) {
				return fmt.Sprintf("dc%d has not seen the marker (%d@dc%d)", dc, markerUT, markerDC)
			}
			if n == 0 {
				first = cur
			} else if cur != first {
				return fmt.Sprintf("heads diverge on %s: dc%d=%+v dc%d=%+v", key, dcs[0], first, dc, cur)
			}
		}
	}
	// GSS must cover the marker at every surviving server: stabilization
	// resumed after the last eviction/heal.
	for _, dc := range dcs {
		for p := 0; p < h.c.NumPartitions(); p++ {
			srv := h.c.Server(dc, p)
			if srv == nil {
				return fmt.Sprintf("dc%d-p%d not running", dc, p)
			}
			if g := srv.GSS().Get(markerDC); g < markerUT {
				return fmt.Sprintf("dc%d-p%d GSS[%d]=%d below marker %d (stabilization wedged)",
					dc, p, markerDC, g, markerUT)
			}
		}
	}
	return ""
}
