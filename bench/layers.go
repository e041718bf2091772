package main

import (
	"fmt"
	"sync"

	"repro/internal/causaltest"
	"repro/internal/cluster"
	"repro/internal/keyspace"
	"repro/internal/workload"
)

// layerInputs is what the traced run hands to the per-layer measurement:
// the untraced and traced halves of the window and the set-up rounds.
type layerInputs struct {
	spec      *workloadSpec
	opts      runOpts
	w, traced *window
	setups    []setupTimes
	closes    []float64 // ms
	diskBytes int64
	peakRSS   float64 // MB, after both halves of the window
}

// measure fills every per-layer metric: window deltas of the deployment's
// own counters, the ladder, the standalone probes, and the two budgets. It
// prints the budgets; the caller prints the metrics.
func (l *layerInputs) measure(rep *runReport) error {
	m := rep.Metrics
	for _, def := range layerMetrics() {
		m[def.name] = 0 // a layer that is not on this workload's path did no work
	}
	l.windowMetrics(m)
	probeSmall(m)
	probeGenerator(m, l.spec, l.opts.seed)
	if err := probeStorage(m, l.spec); err != nil {
		return err
	}
	if err := probeWire(m, l.spec); err != nil {
		return err
	}
	if err := probeWAL(m, l.spec); err != nil {
		return err
	}
	if err := probeTCPNet(m); err != nil {
		return err
	}
	probeNetemu(m)

	lad, err := runLadder(l.spec, l.opts.seed, m["loadgen.timer_ns"])
	if err != nil {
		return err
	}
	l.ladderMetrics(m, lad)
	l.printOpBudget(lad)
	if l.spec.frontDoor {
		l.visibleBudget(m)
	} else if err := causalCheck(l.spec, l.opts.seed); err != nil {
		return err
	}
	if l.spec.name == "getput_inproc" {
		own := (m["loadgen.gen_ns_per_op"] + m["loadgen.timer_ns"]/float64(l.spec.timeGetEvery)) / 1e3
		if cpu := m["loadgen.cpu_us_per_op"]; own > 0.10*cpu {
			fmt.Printf("  WARNING the load generator's own share, %.3f us per op, exceeds 10 %% of cpu_us_per_op (%.3f us)\n", own, cpu)
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowMetrics derives the layer metrics that are deltas of the
// deployment's counters over the untraced half, or tails of its samples.
func (l *layerInputs) windowMetrics(m values) {
	w := l.w
	b, a := w.before, w.after
	puts := float64(w.put.n)

	all := a.all.Sub(b.all)
	m["core.block_prob"] = all.Probability()
	m["core.block_mean_us"] = float64(all.MeanBlockTime()) / 1e3
	if l.spec.frontDoor {
		m["core.pct_old_reads"] = a.pctOld
	} else {
		m["core.get_block_prob"] = a.get.Sub(b.get).Probability()
		m["core.tx_block_prob"] = a.tx.Sub(b.tx).Probability()
		m["core.pct_old_reads"] = a.stale.Sub(b.stale).PercentOld()
	}
	m["storage.versions_per_key"] = ratio(float64(a.versions), float64(a.keys))

	if l.spec.frontDoor {
		groups := float64(a.groups - b.groups)
		m["wal.groups_per_put"] = ratio(groups, puts)
		m["wal.records_per_group"] = ratio(float64(a.records-b.records), groups)
		m["wal.group_p50"] = float64(a.groupP50)
		m["wal.ack_to_durable_mean_us"] = ratio(float64(a.ackLagSum-b.ackLagSum)/1e3, groups)
		m["wal.ack_to_durable_max_ms"] = float64(a.ackLagMax) / 1e6
		// Three replicas store every PUT; checkpoints truncate the logs
		// every MiB, so the directory's size has levelled off by now.
		allPuts := float64(l.w.put.n + l.traced.put.n)
		m["wal.disk_bytes_per_put"] = ratio(float64(l.diskBytes), allPuts*numDCs)
	}
	m["repl.msgs_per_put"] = ratio(float64(a.msgs-b.msgs), puts)
	m["repl.lag_max_ms"] = float64(w.lagMax) / 1e6
	m["repl.catchups"] = float64(a.catchups - b.catchups)

	// The ungated end-to-end figures, wherever the mix has the class.
	fig := windowFigures(w)
	fig["peak_rss_mb"] = l.peakRSS
	for _, def := range endToEnd {
		if v, ok := fig[def.name]; ok && !def.gated {
			m[informational(def.name)] = v
		}
	}
	m["repl.visible_p99_us"] = w.vis.us(0.99)
	m["loadgen.get_p999_us"] = w.get.us(0.999)
	m["loadgen.put_p999_us"] = w.put.us(0.999)
	m["loadgen.trace_overhead_frac"] = 1 - ratio(windowFigures(l.traced)["ops_per_s"], fig["ops_per_s"])
	m["runtime.gc_cycles"] = float64(w.gcCycles)
	m["runtime.gc_pause_total_ms"] = float64(w.gcPause) / 1e6
	m["runtime.heap_inuse_mb"] = float64(w.heapInuse) / (1 << 20)

	var open, seed, closeMS []float64
	for _, s := range l.setups {
		open = append(open, float64(s.open)/1e6)
		seed = append(seed, float64(s.seed)/1e3/(numPartitions*keysPerPartition))
	}
	closeMS = append(closeMS, l.closes...)
	m["cluster.open_ms"] = median(open)
	m["cluster.seed_us_per_key"] = median(seed)
	m["cluster.close_ms"] = median(closeMS)
}

// headline is the operation class the workload is about: its queueing
// figure is the one reported as loadgen.queueing_us.
func headline(spec *workloadSpec) workload.OpKind {
	if spec.rotx {
		return workload.OpROTx
	}
	return workload.OpGet
}

func loadedP50NS(w *window, kind workload.OpKind) float64 {
	switch kind {
	case workload.OpGet:
		return w.get.quantile(0.5)
	case workload.OpPut:
		return w.put.quantile(0.5)
	}
	return w.tx.quantile(0.5)
}

func (l *layerInputs) ladderMetrics(m values, lad *ladder) {
	r := lad.rungs
	m["core.get_ns"] = r[1].get
	m["core.put_ns"] = r[1].put
	m["core.rotx_us"] = r[1].rotx / 1e3
	m["client.session_get_self_ns"] = r[2].get - r[1].get
	m["client.session_put_self_ns"] = r[2].put - r[1].put
	if lad.top == 3 {
		m["client.pool_get_rtt_us"] = r[3].get / 1e3
		m["client.pool_put_rtt_us"] = r[3].put / 1e3
		m["client.pool_rotx_rtt_us"] = r[3].rotx / 1e3
		m["kvserver.frontdoor_get_self_us"] = (r[3].get - r[2].get) / 1e3
		m["kvserver.frontdoor_put_self_us"] = (r[3].put - r[2].put) / 1e3
	}
	kind := headline(l.spec)
	m["loadgen.queueing_us"] = (loadedP50NS(l.w, kind) - r[lad.top].of(kind)) / 1e3
}

var rungLayers = [numRungs]string{"storage", "core", "client.Session", "client.Pool + front door"}

// printOpBudget prints, per operation class of the mix, the self time of every rung
// and the queueing that takes the top rung to the loaded p50. The rows
// telescope: they sum to the loaded p50 by construction.
func (l *layerInputs) printOpBudget(lad *ladder) {
	fmt.Printf("  op budget (%s, us; rows sum to the loaded p50):\n", l.spec.name)
	kinds, first := []workload.OpKind{workload.OpGet, workload.OpPut}, "get"
	if l.spec.rotx {
		kinds[0], first = workload.OpROTx, "rotx"
	}
	fmt.Printf("    %-28s %12s %12s\n", "layer", first, "put")
	row := func(name string, f func(workload.OpKind) float64) {
		fmt.Printf("    %-28s", name)
		for _, k := range kinds {
			fmt.Printf(" %12.3f", f(k)/1e3)
		}
		fmt.Println()
	}
	for i := 0; i <= lad.top; i++ {
		row(rungLayers[i], func(k workload.OpKind) float64 {
			if i == 0 {
				return lad.rungs[0].of(k)
			}
			return lad.rungs[i].of(k) - lad.rungs[i-1].of(k)
		})
	}
	row("loadgen.queueing", func(k workload.OpKind) float64 {
		return loadedP50NS(l.w, k) - lad.rungs[lad.top].of(k)
	})
	row("= loaded p50", func(k workload.OpKind) float64 { return loadedP50NS(l.w, k) })
}

// visibleBudget splits the loaded ack->visible p50 of a front-door workload
// into the parts that can be measured or computed from outside, and prints
// what is left over.
func (l *layerInputs) visibleBudget(m values) {
	const batch = 8 // versions in the probed envelope, about one flush interval's worth
	p50 := l.w.vis.us(0.5)
	type row struct {
		name string
		us   float64
	}
	rows := []row{
		{"repl flush wait (half of the 1 ms flush interval)", float64(heartbeat) / 2e3},
		{"wire batch encode (8 versions)", batch * m["wire.batch_encode_ns_per_version"] / 1e3},
		{"tcpnet batch one way", m["tcpnet.batch_oneway_us"]},
		{"wire batch decode (8 versions)", batch * m["wire.batch_decode_ns_per_version"] / 1e3},
		{"storage durable batch insert (8 versions)", batch * m["storage.durable_insert_batch_ns_per_version"] / 1e3},
		{"probe poll granularity (half a poll period)", float64(l.w.pollPeriod) / 2e3},
	}
	rest := p50
	for _, r := range rows {
		rest -= r.us
	}
	// The remainder keeps the two waits: the p50 minus the four rows of work.
	m["repl.visible_remainder_us"] = rest + rows[0].us + rows[len(rows)-1].us
	m["repl.visible_unattributed_us"] = rest
	fmt.Printf("  ack->visible budget (%s, us):\n", l.spec.name)
	for _, r := range rows {
		fmt.Printf("    %-52s %10.1f\n", r.name, r.us)
	}
	flag := ""
	if rest > 0.2*p50 || rest < -0.2*p50 {
		flag = "  <-- more than 20 % of visible_p50_us"
	}
	fmt.Printf("    %-52s %10.1f%s\n", "unattributed", rest, flag)
	fmt.Printf("    %-52s %10.1f\n", "= loaded visible p50", p50)
}

// causalCheck runs a short burst of the workload's streams through
// causaltest sessions on a fresh in-process deployment: every read is
// checked against the real dependencies of everything the client has seen.
// The checker keeps whole dependency maps per write, so the burst is small.
func causalCheck(spec *workloadSpec, seed uint64) error {
	const opsPerClient = 400
	cl, err := cluster.New(clusterConfig(seed, ""))
	if err != nil {
		return err
	}
	defer cl.Close()
	table := keyspace.Build(numPartitions, keysPerPartition)
	zipf := workload.NewZipf(keysPerPartition, zipfExponent)
	seedAll(spec, table, cl.Seed)
	reg := causaltest.NewRegistry()
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		inner, err := cl.NewSession(clientDC(spec, i))
		if err != nil {
			return err
		}
		sess := causaltest.NewSession(reg, inner, fmt.Sprintf("client%d", i))
		st := newStream(spec, table, zipf, seed, i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := sessionTarget{sess}
			for n := 0; n < opsPerClient && errs[i] == nil; n++ {
				switch o := st.next(); o.Kind {
				case workload.OpGet:
					errs[i] = t.get(o.Keys[0])
				case workload.OpPut:
					errs[i] = t.put(o.Keys[0], o.Value)
				case workload.OpROTx:
					errs[i] = t.rotx(o.Keys)
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("causal check: %w", err)
		}
	}
	if v := reg.Violations(); len(v) > 0 {
		return fmt.Errorf("causal check: %d violations, first: %s", len(v), v[0])
	}
	fmt.Printf("  causal check: %d operations under causaltest sessions, no violation\n", numClients*opsPerClient)
	return nil
}
