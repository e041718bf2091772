package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Verdicts of one workload x metric cell.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// spread is the run-to-run spread of one cell as a share of its median:
// the distance between the quartiles from four runs up, the whole range
// below that, and 0 when a single run leaves it unknown.
func spread(v []float64) float64 {
	med := median(v)
	if len(v) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = quantileOf(s, 0.25), quantileOf(s, 0.75)
	}
	return (hi - lo) / med
}

// quantileOf interpolates the q-quantile of sorted values the way
// statistics.quantiles(method="exclusive") does.
func quantileOf(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(len(sorted)-1) {
		return sorted[len(sorted)-1]
	}
	i := int(pos)
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// cell is the comparison of one end-to-end metric on one workload.
type cell struct {
	oldMed, newMed float64
	worse          float64 // share of the old median by which the new one is worse (negative: better)
	spread         float64 // the larger of the two sides' spreads
	verdict        string
}

// absoluteSlack is what a metric may worsen by whatever its bound says:
// set-up times of a few hundredths of a second differ by a quarter for no
// reason at all.
var absoluteSlack = map[string]float64{"setup_s": 0.25}

// judge compares one cell against the metric's bound.
func judge(def metricDef, oldV, newV []float64) cell {
	c := cell{oldMed: median(oldV), newMed: median(newV)}
	c.spread = max(spread(oldV), spread(newV))
	diff := c.newMed - c.oldMed
	if def.better == higher {
		diff = -diff
	}
	if c.oldMed != 0 {
		c.worse = diff / c.oldMed
	}
	slack := absoluteSlack[def.name]
	switch {
	case c.spread > def.bound && c.spread*c.oldMed > slack:
		c.verdict = verdictUnresolved
	case c.worse > def.bound && diff > slack:
		c.verdict = verdictRegression
	case c.worse < -def.bound:
		c.verdict = verdictImproved
	default:
		c.verdict = verdictOK
	}
	return c
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareFiles(oldPath, newPath string) int {
	a, err := readResult(oldPath)
	if err == nil {
		var b *result
		if b, err = readResult(newPath); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// compareResults prints every workload x end-to-end metric cell and
// returns non-zero when one regressed by more than its bound. A cell whose
// run-to-run spread exceeds the bound is unresolved, not unchanged.
func compareResults(a, b *result) int {
	ha, hb := a.Header, b.Header
	if ha.DataDirFS != hb.DataDirFS {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare: data directories on %s and %s\n", ha.DataDirFS, hb.DataDirFS)
		return 2
	}
	if ha.WindowS != hb.WindowS || ha.Traced || hb.Traced {
		fmt.Fprintf(os.Stderr, "bench: refusing to compare: windows of %v s and %v s, traced %v and %v\n",
			ha.WindowS, hb.WindowS, ha.Traced, hb.Traced)
		return 2
	}
	fmt.Printf("old %s (%s, %d cores)  new %s (%s, %d cores)  window %v s\n",
		ha.Commit, ha.GoVersion, ha.NumCPU, hb.Commit, hb.GoVersion, hb.NumCPU, ha.WindowS)
	regressions, unresolved := 0, 0
	for _, spec := range workloads {
		wa, wb := a.Workloads[spec.name], b.Workloads[spec.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s is missing from a result\n", spec.name)
			return 2
		}
		fmt.Printf("%s  (failed ops: old %d, new %d)\n", spec.name, wa.Failed, wb.Failed)
		fmt.Printf("  %-16s %14s %14s %9s %9s %7s  %s\n", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
		for _, def := range endToEnd {
			if !def.appliesTo(spec) {
				continue
			}
			c := judge(def, wa.Metrics[def.name], wb.Metrics[def.name])
			fmt.Printf("  %-16s %14.4f %14.4f %8.1f%% %8.1f%% %6.0f%%  %s\n",
				def.name, c.oldMed, c.newMed, 100*c.worse, 100*c.spread, 100*def.bound, c.verdict)
			switch c.verdict {
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
		}
		if wb.Failed > wa.Failed {
			fmt.Printf("  more operations failed than before: %d > %d\n", wb.Failed, wa.Failed)
			regressions++
		}
	}
	fmt.Printf("%d regressions, %d unresolved cells\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
