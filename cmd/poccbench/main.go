// Command poccbench regenerates the paper's evaluation figures against the
// emulated geo-replicated deployment.
//
// Usage:
//
//	poccbench -experiment all                 # every figure, CI scale
//	poccbench -experiment fig1a -scale paper  # one figure at paper scale
//	poccbench -experiment fig1b,fig2a         # two figures of one sweep, run once
//	poccbench -list
//
// An experiment id is a sweep or a figure (-list prints both columns): a
// sweep id runs the sweep and prints every figure it yields, a figure id runs
// its sweep and prints that figure only. harness.Experiments is the one list.
//
// Scales: "ci" (seconds per figure, small cluster), "medium" (3 DCs × 8
// partitions, enough load to approach saturation; a few seconds per point)
// and "paper" (3 DCs × 32 partitions, 25 ms think time, full AWS latencies;
// minutes per figure).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resolve turns the -experiment argument into the figures to print, keyed by
// the sweep that yields them.
func resolve(exps []harness.Experiment, arg string) (map[string]map[string]bool, error) {
	figures := map[string]map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(arg, ",") {
		id = strings.TrimSpace(id)
		known := false
		for _, e := range exps {
			for _, v := range e.Views {
				if id == "all" || id == e.ID || id == v.ID {
					if figures[e.ID] == nil {
						figures[e.ID] = map[string]bool{}
					}
					figures[e.ID][v.ID] = true
					known = true
				}
			}
		}
		if !known {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiments: %s", strings.Join(unknown, ", "))
	}
	return figures, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("poccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag   = fs.String("experiment", "all", "sweep or figure id (see -list), comma list, or 'all'")
		scaleFlag = fs.String("scale", "ci", "'ci', 'medium' or 'paper'")
		listFlag  = fs.Bool("list", false, "list the sweeps and the figures each yields, and exit")
		timeout   = fs.Duration("timeout", time.Hour, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	exps := harness.Experiments()
	if *listFlag {
		fmt.Fprintf(stdout, "%-15s %-15s %s\n", "SWEEP", "FIGURE", "TITLE")
		for _, e := range exps {
			sweep := e.ID
			for _, v := range e.Views {
				fmt.Fprintf(stdout, "%-15s %-15s %s\n", sweep, v.ID, v.Title)
				sweep = ""
			}
		}
		return 0
	}

	sc, ok := map[string]harness.Scale{
		"ci": harness.CIScale(), "medium": harness.MediumScale(), "paper": harness.PaperScale(),
	}[*scaleFlag]
	if !ok {
		fmt.Fprintf(stderr, "unknown scale %q\n", *scaleFlag)
		return 2
	}
	figures, err := resolve(exps, *expFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	for _, e := range exps {
		if figures[e.ID] == nil {
			continue
		}
		fmt.Fprintf(stdout, "# running %s (%s scale)...\n", e.ID, *scaleFlag)
		tables, err := e.Run(ctx, sc)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		for _, t := range tables {
			if figures[e.ID][t.ID] {
				t.Fprint(stdout)
				fmt.Fprintln(stdout)
			}
		}
	}
	fmt.Fprintf(stdout, "# done in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
