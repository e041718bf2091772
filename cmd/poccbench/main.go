// Command poccbench regenerates the paper's evaluation figures against the
// emulated geo-replicated deployment.
//
// Usage:
//
//	poccbench -experiment all                 # every figure, CI scale
//	poccbench -experiment fig1a -scale paper  # one figure at paper scale
//	poccbench -list
//
// Scales: "ci" (seconds per figure, small cluster) and "paper" (3 DCs × 32
// partitions, 25 ms think time, full AWS latencies; minutes per figure).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
)

type experiment struct {
	id   string
	desc string
	run  func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"fig1a", "throughput vs #partitions (GET:PUT = p:1)",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.Fig1a(ctx, sc, figPartitions(sc))
				return []*harness.Table{t}, err
			}},
		{"fig1b", "response time vs throughput (32:1 GET:PUT)", getPutSweep([]string{"fig1b"})},
		{"fig1c", "throughput vs GET:PUT ratio",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.Fig1c(ctx, sc, nil)
				return []*harness.Table{t}, err
			}},
		{"fig2a", "POCC blocking behaviour (GET/PUT)", getPutSweep([]string{"fig2a"})},
		{"fig2b", "Cure* staleness (GET/PUT)", getPutSweep([]string{"fig2b"})},
		{"getput-sweep", "fig1b + fig2a + fig2b from one sweep", getPutSweep([]string{"fig1b", "fig2a", "fig2b"})},
		{"fig3a", "throughput vs partitions per RO-TX",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.Fig3a(ctx, sc, figPartitions(sc))
				return []*harness.Table{t}, err
			}},
		{"fig3b", "throughput and RO-TX resp. time vs clients", txSweep([]string{"fig3b"})},
		{"fig3c", "POCC blocking behaviour (RO-TX + PUT)", txSweep([]string{"fig3c"})},
		{"fig3d", "transactional staleness POCC vs Cure*", txSweep([]string{"fig3d"})},
		{"tx-sweep", "fig3b + fig3c + fig3d from one sweep", txSweep([]string{"fig3b", "fig3c", "fig3d"})},
		{"partition", "behaviour across a network partition (paper's future work)",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.PartitionExperiment(ctx, sc, sc.Measure/2)
				return []*harness.Table{t}, err
			}},
		{"ablation-stab", "Cure* stabilization interval sweep",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.AblationStabilization(ctx, sc, nil)
				return []*harness.Table{t}, err
			}},
		{"ablation-hb", "POCC heartbeat interval sweep",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.AblationHeartbeat(ctx, sc, nil)
				return []*harness.Table{t}, err
			}},
		{"ablation-skew", "clock skew sweep, raw vs hybrid clocks",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.AblationClockSkew(ctx, sc, nil)
				return []*harness.Table{t}, err
			}},
		{"visibility", "remote visibility and GSS lag by clock/stabilization variant",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.FigureVisibility(ctx, sc)
				return []*harness.Table{t}, err
			}},
		{"ablation-think", "think time sweep",
			func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
				t, err := harness.AblationThinkTime(ctx, sc, nil)
				return []*harness.Table{t}, err
			}},
	}
}

// figPartitions picks the partition sweep for the scale: the paper's
// {2..32} at paper scale, a shrunken set otherwise.
func figPartitions(sc harness.Scale) []int {
	if sc.Partitions >= 32 {
		return []int{2, 4, 8, 16, 24, 32}
	}
	out := []int{}
	for p := 2; p <= sc.Partitions; p *= 2 {
		out = append(out, p)
	}
	return out
}

func clientSweep(sc harness.Scale) []int {
	base := sc.ClientsPerPart
	return []int{base / 4, base / 2, base, base * 2}
}

func getPutSweep(ids []string) func(context.Context, harness.Scale) ([]*harness.Table, error) {
	return func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
		points, err := harness.GetPutSweep(ctx, sc, clientSweep(sc))
		if err != nil {
			return nil, err
		}
		var out []*harness.Table
		for _, id := range ids {
			switch id {
			case "fig1b":
				out = append(out, harness.Fig1b(points))
			case "fig2a":
				out = append(out, harness.Fig2a(points))
			case "fig2b":
				out = append(out, harness.Fig2b(points))
			}
		}
		return out, nil
	}
}

func txSweep(ids []string) func(context.Context, harness.Scale) ([]*harness.Table, error) {
	return func(ctx context.Context, sc harness.Scale) ([]*harness.Table, error) {
		points, err := harness.TxSweep(ctx, sc, clientSweep(sc))
		if err != nil {
			return nil, err
		}
		var out []*harness.Table
		for _, id := range ids {
			switch id {
			case "fig3b":
				out = append(out, harness.Fig3b(points))
			case "fig3c":
				out = append(out, harness.Fig3c(points))
			case "fig3d":
				out = append(out, harness.Fig3d(points))
			}
		}
		return out, nil
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expFlag   = flag.String("experiment", "all", "experiment id, comma list, or 'all'")
		scaleFlag = flag.String("scale", "ci", "'ci', 'medium' or 'paper'")
		listFlag  = flag.Bool("list", false, "list experiments and exit")
		timeout   = flag.Duration("timeout", time.Hour, "overall deadline")
	)
	flag.Parse()

	exps := experiments()
	if *listFlag {
		for _, e := range exps {
			fmt.Printf("%-16s %s\n", e.id, e.desc)
		}
		return 0
	}

	var sc harness.Scale
	switch *scaleFlag {
	case "ci":
		sc = harness.CIScale()
	case "medium":
		sc = harness.MediumScale()
	case "paper":
		sc = harness.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		return 2
	}

	want := map[string]bool{}
	runAll := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}
	if runAll {
		// "all" uses the combined sweeps instead of re-running per figure.
		want = map[string]bool{
			"fig1a": true, "fig1c": true, "getput-sweep": true,
			"fig3a": true, "tx-sweep": true, "partition": true,
			"ablation-stab": true, "ablation-hb": true,
			"ablation-skew": true, "ablation-think": true,
			"visibility": true,
		}
	}

	known := map[string]bool{}
	for _, e := range exps {
		known[e.id] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiments: %s\n", strings.Join(unknown, ", "))
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	for _, e := range exps {
		if !want[e.id] {
			continue
		}
		fmt.Printf("# running %s (%s scale)...\n", e.id, *scaleFlag)
		tables, err := e.run(ctx, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			return 1
		}
		for _, t := range tables {
			t.Fprint(func(format string, args ...any) { fmt.Printf(format, args...) })
			fmt.Println()
		}
	}
	fmt.Printf("# done in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
