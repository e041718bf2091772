// Command bench is the repository's benchmark: four closed-loop workloads
// against a 3 DC x 4 partition POCC deployment, end-to-end metrics with
// regression bounds, per-layer metrics measured from outside the layers,
// and a correctness gate in every timed run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// joinTraceArg rewrites the driver's "--trace 0|1" into "-trace=0|1": the
// flag is boolean so that a bare -trace works too.
func joinTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process and print its result as the last line (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same operation streams")
	seconds := fs.Int("seconds", int(defaultMeasure/time.Second), "length of the measured window in seconds")
	traced := fs.Bool("trace", false, "do the traced run: spans, ladder, layer probes and budgets instead of the end-to-end metrics")
	runs := fs.Int("runs", 1, "suite only: how many times to run each workload (the result keeps every value)")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and compare the two sets with the benchmark's own bounds")
	if err := fs.Parse(joinTraceArg(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "bench: GOMAXPROCS < 2: servers and load generator share one process and need two cores; refusing to start")
		return 2
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	o := runOpts{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *traced}

	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		return runChild(spec, o)
	}
	s := &suite{opts: o, runs: *runs}
	if *selfcheck {
		return s.selfcheck()
	}
	return s.run()
}

// resultLine is the last line of a workload run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf lists what a run measures: the end-to-end metrics with tracing
// off, the per-layer metrics in the traced run.
func metricsOf(traced bool) []metricDef {
	if traced {
		return layerMetrics()
	}
	return endToEnd
}

// newResultLine keeps what BENCHMARK.json lists for this kind of run: the
// gated end-to-end metrics, or every per-layer metric.
func newResultLine(rep *runReport, traced bool) resultLine {
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricJSON{}}
	defs := gatedMetrics()
	if traced {
		defs = layerMetrics()
	}
	for _, def := range defs {
		line.Metrics[def.name] = metricJSON{Value: rep.Metrics[def.name], Unit: def.unit}
	}
	return line
}

// runChild runs one workload here, prints every metric by name with its
// unit, writes the full report for the suite, and ends with the result line.
func runChild(spec *workloadSpec, o runOpts) int {
	rep, err := runWorkload(spec, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d window %v traced %v\n", spec.name, o.seed, o.measure, o.traced)
	fmt.Printf("  attempted %d failed %d samples", rep.Attempted, rep.Failed)
	for _, class := range []string{"get", "put", "rotx", "visible"} {
		if n := rep.Samples[class]; n > 0 {
			fmt.Printf(" %s=%d", class, n)
		}
	}
	fmt.Println()
	line := newResultLine(rep, o.traced)
	for _, def := range metricsOf(o.traced) {
		if v, ok := rep.Metrics[def.name]; ok {
			fmt.Printf("  %-46s %14.4f %s\n", def.name, v, def.unit)
		}
	}
	for _, e := range rep.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
	if err := writeJSON(reportPath(spec.name, o.traced), rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

func reportPath(workload string, traced bool) string {
	if traced {
		return fmt.Sprintf("%s/run-%s-trace.json", outDir, workload)
	}
	return fmt.Sprintf("%s/run-%s.json", outDir, workload)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
