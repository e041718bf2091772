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
	"repro/internal/storage"
)

// Options parameterizes a chaos run.
type Options struct {
	// Seed drives the fault schedule, the emulated network and the workers.
	Seed uint64
	// Duration is the fault-injection window (the epilogue adds to the wall
	// time).
	Duration time.Duration
	// DataDir roots the per-server WALs. Required: crash-restarts, kills and
	// join bootstraps all need durable engines.
	DataDir string
	// Logf, when set, receives the live fault trace (e.g. testing.T.Logf).
	Logf func(format string, args ...any)
}

// Report is the outcome of a run.
type Report struct {
	// Seed and Duration are the run's Options.Seed and Options.Duration: the
	// schedule draws events only while At < Duration, so a replay needs both.
	Seed     uint64
	Duration time.Duration
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

// Dump renders the command that replays the run, the operation and catch-up
// counts, the violations and the executed fault trace — everything needed to
// reproduce and diagnose a failed soak (CI uploads it as an artifact).
func (r *Report) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed %d, %v of faults; replay with\n  go test -race -count=1 -v -run TestChaosSoak ./internal/chaos/ -chaos.seed=%d -chaos.duration=%v\n",
		r.Seed, r.Duration, r.Seed, r.Duration)
	fmt.Fprintf(&b, "ops=%d reopens=%d op_errors=%d catchups_requested=%d catchups_completed=%d catchups_served=%d full_resyncs=%d\n",
		r.Ops, r.Reopens, r.OpErrors, r.Stats.CatchUpsRequested, r.Stats.CatchUpsCompleted, r.Stats.CatchUpsServed, r.Stats.FullResyncs)
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
		Latency:      cluster.UniformLatency(200*time.Microsecond, 2*time.Millisecond),
		JitterFrac:   0.2,
		Seed:         opts.Seed,
		DataDir:      opts.DataDir,
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
	return &Report{
		Seed:       opts.Seed,
		Duration:   opts.Duration,
		Trace:      h.trace,
		Violations: append(h.viols, h.reg.Violations()...),
		Ops:        h.ops.Load(),
		Reopens:    h.reopens.Load(),
		OpErrors:   h.opErrs.Load(),
		Stats:      c.ReplicationStats(),
	}, nil
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
		h.c.Network().PartitionDCs(e.DC, e.DC2, true)
		h.tracef("%v (down)", e)
		h.healWG.Add(1)
		time.AfterFunc(e.Dur, func() {
			defer h.healWG.Done()
			h.c.Network().PartitionDCs(e.DC, e.DC2, false)
			h.mu.Lock()
			delete(h.down, [2]int{e.DC, e.DC2})
			h.mu.Unlock()
			h.tracef("heal dc%d<->dc%d", e.DC, e.DC2)
		})

	case LatencyScale:
		h.c.Network().SetLatencyScale(e.Scale)
		h.tracef("%v", e)

	case AddDC:
		if !h.claim(&h.joining, e, "a join") {
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
		if !h.claim(&h.resharding, e, "a reshard") {
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
		n := min(max(len(owned)/4, 1), 8)
		if err := h.c.MoveSlots(owned[:n], target); err != nil {
			h.tracef("skip %v: %v", e, err)
			return
		}
		h.tracef("%v: %d slot(s) p%d->p%d at slot epoch %d", e, n, donor, target, h.c.SlotTable().Epoch)
	}
}

// claim sets an at-most-one-in-flight flag (joining, resharding), or traces e
// as skipped because what is already in flight; true means the caller owns it.
func (h *harness) claim(flag *bool, e Event, what string) bool {
	h.mu.Lock()
	busy := *flag
	*flag = true
	h.mu.Unlock()
	if busy {
		h.tracef("skip %v: %s is already in flight", e, what)
	}
	return !busy
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
			dcs := h.activeDCs() // never empty: claimRemoval keeps dc0
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
