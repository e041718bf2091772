package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runOpts is what one workload run is told.
type runOpts struct {
	seed    uint64
	measure time.Duration
	traced  bool
}

// Everything a run writes goes under outDir, relative to the working
// directory, which `go run -C bench .` makes this directory: results, traces
// and, under dataDir, the front-door workloads' data directories.
const (
	outDir  = "out"
	dataDir = outDir + "/data"
)

// runReport is one workload run: what the last stdout line carries, plus
// everything the suite keeps in result.json.
type runReport struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Samples   map[string]uint64 `json:"samples"`
	Metrics   values            `json:"metrics"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runWorkload sets the deployment up setupRounds times (the last one is
// measured), runs the window, applies the correctness gates and tears
// everything down.
func runWorkload(spec *workloadSpec, o runOpts) (*runReport, error) {
	rep := &runReport{Workload: spec.name, Samples: map[string]uint64{}, Metrics: values{}}
	fail := func(err error) {
		rep.Errors = append(rep.Errors, err.Error())
	}

	var dataRoot string
	if spec.frontDoor {
		var err error
		if dataRoot, err = newDataDir(dataDir, spec.name); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dataRoot)
	}

	var d *deployment
	var setups []setupTimes
	var closes []float64
	for round := 0; round < setupRounds; round++ {
		dir := ""
		if spec.frontDoor {
			dir = fmt.Sprintf("%s/round%d", dataRoot, round)
		}
		// Every round starts from a collected heap, as a fresh process would:
		// the garbage of the round before otherwise decides when this one is
		// interrupted (in process, medians of 0.028-0.057 s against
		// 0.037-0.040 s).
		runtime.GC()
		var err error
		if d, err = deploy(spec, o.seed, dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.times)
		if round < setupRounds-1 {
			closes = append(closes, float64(d.close())/1e6)
			if dir != "" {
				if err := os.RemoveAll(dir); err != nil {
					return nil, err
				}
			}
		}
	}

	r := &runner{d: d, seed: o.seed}
	var w, traced *window
	var err error
	if o.traced {
		// Half the time untraced, half traced, on one deployment: the layer
		// counters come from the undisturbed half, the difference in
		// throughput is the tracing overhead.
		if w, err = r.measure(warmup, o.measure/2); err == nil {
			r.traced = true
			traced, err = r.measure(time.Second, o.measure/2)
		}
	} else {
		w, err = r.measure(warmup, o.measure)
	}
	if err != nil {
		return nil, err
	}
	// Read before the gates, the ladder and the probes add to it.
	peakRSS := peakRSSMB()

	if err := d.checkConverged(r.probeKeys, convergeTimeout); err != nil {
		fail(err)
	}
	diskBytes := int64(0)
	if spec.frontDoor {
		diskBytes = dirBytes(d.dataDir)
	}
	closes = append(closes, float64(d.close())/1e6)
	if spec.name == "fd_write" {
		last := make([][]byte, numClients)
		for i, st := range r.streams {
			last[i] = st.ownLast
		}
		if err := checkReopen(spec, o.seed, d.dataDir, last); err != nil {
			fail(err)
		}
	}

	for _, win := range []*window{w, traced} {
		if win == nil {
			continue
		}
		rep.Attempted += win.attempted
		rep.Failed += win.failed
		if win.firstErr != nil {
			fail(win.firstErr)
		}
		if win.ownBad > 0 {
			fail(fmt.Errorf("%d of %d own-key reads were stale", win.ownBad, win.ownReads))
		}
	}
	if rep.Attempted == 0 {
		fail(errors.New("no operation completed inside the window"))
	}

	if o.traced {
		if err := writeSpans(fmt.Sprintf("%s/trace-%s.jsonl", outDir, spec.name), traced.spans); err != nil {
			return nil, err
		}
		lm := &layerInputs{spec: spec, opts: o, w: w, traced: traced, setups: setups, closes: closes, diskBytes: diskBytes, peakRSS: peakRSS}
		if err := lm.measure(rep); err != nil {
			fail(err)
		}
	} else {
		endToEndMetrics(rep, spec, w, setups, peakRSS)
	}
	rep.Samples["get"] = w.get.n
	rep.Samples["put"] = w.put.n
	rep.Samples["rotx"] = w.tx.n
	rep.Samples["visible"] = w.vis.n
	rep.Correct = len(rep.Errors) == 0 && rep.Failed == 0
	return rep, nil
}

// windowFigures returns the end-to-end figures one window gives, by their
// end-to-end names: whole-window quantities, the percentiles over every
// sample taken in it. A latency class the workload's mix lacks is absent.
func windowFigures(w *window) values {
	m := values{
		"ops_per_s":     float64(w.ok) / w.elapsed().Seconds(),
		"cpu_us_per_op": float64((w.end.cpu - w.begin.cpu).Nanoseconds()) / 1e3 / float64(w.ok),
		"allocs_per_op": float64(w.end.mallocs-w.begin.mallocs) / float64(w.ok),
	}
	for _, c := range []struct {
		class string
		h     *hist
		tail  float64
	}{{"get", &w.get, 0.99}, {"put", &w.put, 0.99}, {"rotx", &w.tx, 0.99}, {"visible", &w.vis, 0.90}} {
		if c.h.n > 0 {
			m[c.class+"_p50_us"] = c.h.us(0.50)
			m[fmt.Sprintf("%s_p%.0f_us", c.class, 100*c.tail)] = c.h.us(c.tail)
		}
	}
	return m
}

// endToEndMetrics fills the end-to-end metrics that apply to the workload
// from one untraced window.
func endToEndMetrics(rep *runReport, spec *workloadSpec, w *window, setups []setupTimes, peakRSS float64) {
	m := windowFigures(w)
	var totals []float64
	for _, s := range setups {
		totals = append(totals, s.total.Seconds())
	}
	m["setup_s"] = median(totals)
	m["peak_rss_mb"] = peakRSS
	for _, def := range endToEnd {
		if def.appliesTo(spec) {
			rep.Metrics[def.name] = m[def.name]
		}
	}
}
