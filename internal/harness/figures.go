package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
)

// Experiment is one entry of the evaluation: a sweep of one parameter over
// the arms being compared, and the figures read off the measured points.
type Experiment struct {
	ID string
	// Axis is the swept parameter's values at a scale. Durations are in µs.
	Axis func(Scale) []int
	Arms []Arm
	// At applies axis value v to one point, in place: to the deployment
	// (Scale.config of the arm) and to the client load (the scale's clients
	// and think time). It is the one place the experiment's parameters are set.
	At func(v int, cfg *cluster.Config, load *Load)
	// Views are the figures one pass over the axis yields (Fig. 1b, 2a and
	// 2b are three views of one sweep, Fig. 3b-3d of another).
	Views []View
	// rows fills the single view of the two entries that are not a sweep of
	// independent points (partition, visibility) in place of Axis/Arms/At.
	rows func(context.Context, Scale) ([][]string, error)
}

// Arm is one system measured at every axis value.
type Arm struct {
	Engine    cluster.Engine
	RawClocks bool // raw skewed physical clocks, the pre-HLC system
}

// cureVsPOCC is the evaluation's comparison pair; cure and pocc index its points.
var cureVsPOCC = []Arm{{Engine: cluster.Cure}, {Engine: cluster.POCC}}

const cure, pocc = 0, 1

// View is one printed figure: a row per axis value from the arms' points,
// in Arms order.
type View struct {
	ID, Title string
	Columns   []string
	Row       func(v int, arms []Point) []string
}

// Points measures the sweep and returns the raw grid, one row per axis value
// and one Point per arm.
func (e Experiment) Points(ctx context.Context, sc Scale) ([][]Point, error) {
	if e.rows != nil {
		return nil, fmt.Errorf("harness: %s is not a sweep", e.ID)
	}
	var grid [][]Point
	for _, v := range e.Axis(sc) {
		points := make([]Point, len(e.Arms))
		for i, arm := range e.Arms {
			cfg := sc.config(arm.Engine)
			cfg.RawPhysicalClocks = arm.RawClocks
			load := Load{ClientsPerPart: sc.ClientsPerPart, ThinkTime: sc.ThinkTime}
			e.At(v, &cfg, &load)
			var err error
			if points[i], err = run(ctx, sc, cfg, load); err != nil {
				return nil, fmt.Errorf("%s %s at %d: %w", e.ID, arm.Engine, v, err)
			}
		}
		grid = append(grid, points)
	}
	return grid, nil
}

// Run measures the experiment once and returns one table per view.
func (e Experiment) Run(ctx context.Context, sc Scale) ([]*Table, error) {
	tables := make([]*Table, len(e.Views))
	for i, view := range e.Views {
		tables[i] = &Table{ID: view.ID, Title: view.Title, Columns: view.Columns}
	}
	if e.rows != nil {
		var err error
		tables[0].Rows, err = e.rows(ctx, sc)
		return tables, err
	}
	grid, err := e.Points(ctx, sc)
	if err != nil {
		return nil, err
	}
	for i, v := range e.Axis(sc) {
		for j, view := range e.Views {
			tables[j].Rows = append(tables[j].Rows, view.Row(v, grid[i]))
		}
	}
	return tables, nil
}

// Experiments is the evaluation: the paper's Fig. 1a-3d, the partition
// experiment it leaves as future work, and the ablations over the design
// parameters it discusses.
func Experiments() []Experiment {
	return []Experiment{{
		ID:    "fig1a",
		Axis:  func(sc Scale) []int { return paperPartitions(sc, 2) },
		Arms:  cureVsPOCC,
		At:    func(p int, cfg *cluster.Config, l *Load) { cfg.NumPartitions = p; l.GetsPerPut = p },
		Views: []View{ratioView("fig1a", "Throughput (ops/s) vs #partitions, GET:PUT = p:1", "partitions", strconv.Itoa)},
	}, {
		ID:   "fig1c",
		Axis: fixed(32, 16, 8, 4, 2, 1),
		Arms: cureVsPOCC,
		At:   func(ratio int, _ *cluster.Config, l *Load) { l.GetsPerPut = ratio },
		Views: []View{ratioView("fig1c", "Throughput vs GET:PUT ratio", "ratio",
			func(ratio int) string { return fmt.Sprintf("%d:1", ratio) })},
	}, {
		ID:   "getput-sweep",
		Axis: clientSweep,
		Arms: cureVsPOCC,
		At:   func(cpp int, _ *cluster.Config, l *Load) { l.GetsPerPut = 32; l.ClientsPerPart = cpp },
		Views: []View{
			respView("fig1b", "Avg. response time vs throughput, 32:1 GET:PUT", "resp ms",
				func(p Point) time.Duration { return p.MeanResp }),
			blockingView("fig2a", "POCC blocking behaviour, 32:1 GET:PUT"),
			{
				ID: "fig2b", Title: "Cure* data staleness, 32:1 GET:PUT",
				Columns: []string{"clients/part", "ops/s", "% old", "% unmerged", "# fresher", "# unmerged"},
				Row: func(cpp int, arms []Point) []string {
					p := arms[cure]
					return []string{
						strconv.Itoa(cpp), fmtOps(p.Throughput),
						fmtPct(p.GetStale.PercentOld()), fmtPct(p.GetStale.PercentUnmerged()),
						fmt.Sprintf("%.2f", p.GetStale.MeanFresher()),
						fmt.Sprintf("%.2f", p.GetStale.MeanUnmergedVersions()),
					}
				},
			},
		},
	}, {
		ID:    "fig3a",
		Axis:  func(sc Scale) []int { return paperPartitions(sc, 1) },
		Arms:  cureVsPOCC,
		At:    func(fanout int, _ *cluster.Config, l *Load) { l.TxPartitions = fanout },
		Views: []View{ratioView("fig3a", "Throughput vs partitions contacted per RO-TX", "partitions/tx", strconv.Itoa)},
	}, {
		ID:   "tx-sweep",
		Axis: clientSweep,
		Arms: cureVsPOCC,
		At: func(cpp int, cfg *cluster.Config, l *Load) {
			l.TxPartitions = max(1, cfg.NumPartitions/2)
			l.ClientsPerPart = cpp
		},
		Views: []View{
			respView("fig3b", "Throughput and RO-TX response time vs clients/partition (tx over N/2 partitions)", "tx ms",
				func(p Point) time.Duration { return p.TxResp }),
			blockingView("fig3c", "POCC blocking behaviour, RO-TX + PUT workload"),
			{
				// In POCC transactional old and unmerged coincide (§V-C).
				ID: "fig3d", Title: "Transactional data staleness: POCC vs Cure*",
				Columns: []string{"clients/part", "Cure* % old", "Cure* % unmerged", "POCC % old"},
				Row: func(cpp int, arms []Point) []string {
					return []string{
						strconv.Itoa(cpp),
						fmtPct(arms[cure].TxStale.PercentOld()), fmtPct(arms[cure].TxStale.PercentUnmerged()),
						fmtPct(arms[pocc].TxStale.PercentOld()),
					}
				},
			},
		},
	}, {
		ID:   "partition",
		rows: partitionRows,
		Views: []View{{
			ID: "partition", Title: "Behaviour across a network partition (phases: healthy / partitioned / healed)",
			Columns: []string{"engine", "phase", "ops", "errors", "blocked", "fallbacks"},
		}},
	}, {
		// Cure*'s throughput-vs-staleness trade-off the paper points out in §V-B.
		ID:   "ablation-stab",
		Axis: fixed(1000, 5000, 20_000, 100_000),
		Arms: []Arm{{Engine: cluster.Cure}},
		At:   func(us int, cfg *cluster.Config, l *Load) { cfg.StabilizationInterval = usec(us); l.GetsPerPut = 8 },
		Views: []View{{
			ID: "ablation-stab", Title: "Cure*: stabilization interval vs throughput and staleness",
			Columns: []string{"interval ms", "ops/s", "% old", "% unmerged"},
			Row: func(us int, arms []Point) []string {
				p := arms[0]
				return []string{fmtMs(usec(us)), fmtOps(p.Throughput),
					fmtPct(p.GetStale.PercentOld()), fmtPct(p.GetStale.PercentUnmerged())}
			},
		}},
	}, {
		// Heartbeats bound how long a blocked request waits when the missing
		// dependency does not exist.
		ID:   "ablation-hb",
		Axis: fixed(500, 1000, 5000, 20_000),
		Arms: []Arm{{Engine: cluster.POCC}},
		At:   func(us int, cfg *cluster.Config, l *Load) { cfg.HeartbeatInterval = usec(us); l.GetsPerPut = 4 },
		Views: []View{{
			ID: "ablation-hb", Title: "POCC: heartbeat interval vs blocking",
			Columns: []string{"interval ms", "ops/s", "block prob", "block time ms"},
			Row: func(us int, arms []Point) []string {
				p := arms[0]
				return []string{fmtMs(usec(us)), fmtOps(p.Throughput), fmtProb(p.BlockProb), fmtMs(p.MeanBlock)}
			},
		}},
	}, {
		// With raw clocks the PUT clock-wait (Algorithm 2 line 7) stretches
		// with the skew while correctness is unaffected; the hybrid variant
		// absorbs remote timestamps into its logical component, so its wait —
		// and hence its response time — should stay flat across the sweep.
		ID:   "ablation-skew",
		Axis: fixed(0, 1000, 5000, 20_000),
		Arms: []Arm{{Engine: cluster.POCC, RawClocks: true}, {Engine: cluster.POCC}},
		At:   func(us int, cfg *cluster.Config, l *Load) { cfg.ClockSkew = usec(us); l.GetsPerPut = 2 },
		Views: []View{{
			ID: "ablation-skew", Title: "POCC: clock skew vs throughput and response time, raw vs hybrid clocks",
			Columns: []string{"skew ms", "raw ops/s", "raw resp ms", "hlc ops/s", "hlc resp ms"},
			Row: func(us int, arms []Point) []string {
				raw, hlc := arms[0], arms[1]
				return []string{fmtMs(usec(us)), fmtOps(raw.Throughput), fmtMs(raw.MeanResp),
					fmtOps(hlc.Throughput), fmtMs(hlc.MeanResp)}
			},
		}},
	}, {
		ID:   "visibility",
		rows: visibilityRows,
		Views: []View{{
			ID: "visibility", Title: "HA-POCC: remote visibility and GSS lag by clock variant",
			Columns: []string{"variant", "skew ms", "vis p50 ms", "vis p99 ms",
				"stable p50 ms", "stable p99 ms", "gss lag ms", "B/ver delta", "B/ver abs"},
		}},
	}, {
		// Longer think times give servers time to receive missing
		// dependencies before the next request (§V-A).
		ID:   "ablation-think",
		Axis: fixed(100, 500, 1000, 5000),
		Arms: []Arm{{Engine: cluster.POCC}},
		At:   func(us int, _ *cluster.Config, l *Load) { l.GetsPerPut = 4; l.ThinkTime = usec(us) },
		Views: []View{{
			ID: "ablation-think", Title: "POCC: think time vs blocking probability",
			Columns: []string{"think ms", "ops/s", "block prob"},
			Row: func(us int, arms []Point) []string {
				return []string{fmtMs(usec(us)), fmtOps(arms[0].Throughput), fmtProb(arms[0].BlockProb)}
			},
		}},
	}}
}

// paperPartitions is the paper's partition axis (Fig. 1a, 3a) from `from`
// up to the deployment's partition count.
func paperPartitions(sc Scale, from int) []int {
	var axis []int
	for _, p := range []int{1, 2, 4, 8, 16, 24, 32} {
		if p >= from && p <= sc.Partitions {
			axis = append(axis, p)
		}
	}
	return axis
}

// clientSweep is the load axis of the two client sweeps: the scale's clients
// per partition × {¼, ½, 1, 2}.
func clientSweep(sc Scale) []int {
	c := sc.ClientsPerPart
	return []int{c / 4, c / 2, c, 2 * c}
}

func fixed(values ...int) func(Scale) []int {
	return func(Scale) []int { return values }
}

func usec(us int) time.Duration { return time.Duration(us) * time.Microsecond }

// ratioView compares the pair's throughput.
func ratioView(id, title, axis string, label func(int) string) View {
	return View{
		ID: id, Title: title,
		Columns: []string{axis, "Cure* ops/s", "POCC ops/s", "POCC/Cure*"},
		Row: func(v int, arms []Point) []string {
			ratio := 0.0
			if arms[cure].Throughput != 0 {
				ratio = arms[pocc].Throughput / arms[cure].Throughput
			}
			return []string{label(v), fmtOps(arms[cure].Throughput), fmtOps(arms[pocc].Throughput),
				fmt.Sprintf("%.2f", ratio)}
		},
	}
}

// respView is the pair's throughput against a response time (Fig. 1b, 3b).
func respView(id, title, unit string, resp func(Point) time.Duration) View {
	return View{
		ID: id, Title: title,
		Columns: []string{"clients/part", "Cure* ops/s", "Cure* " + unit, "POCC ops/s", "POCC " + unit},
		Row: func(cpp int, arms []Point) []string {
			return []string{strconv.Itoa(cpp),
				fmtOps(arms[cure].Throughput), fmtMs(resp(arms[cure])),
				fmtOps(arms[pocc].Throughput), fmtMs(resp(arms[pocc]))}
		},
	}
}

// blockingView is POCC's blocking probability and mean blocking time against
// its throughput (Fig. 2a, 3c).
func blockingView(id, title string) View {
	return View{
		ID: id, Title: title,
		Columns: []string{"clients/part", "ops/s", "block prob", "block time ms"},
		Row: func(cpp int, arms []Point) []string {
			p := arms[pocc]
			return []string{strconv.Itoa(cpp), fmtOps(p.Throughput), fmtProb(p.BlockProb), fmtMs(p.MeanBlock)}
		},
	}
}
