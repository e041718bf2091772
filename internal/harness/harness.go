// Package harness regenerates every figure of the paper's evaluation
// (§V): the GET/PUT scalability, response-time, write-intensity, blocking
// and staleness experiments (Fig. 1-2) and the transactional experiments
// (Fig. 3), plus ablations over the design parameters the paper discusses.
// Experiments run against the emulated geo-deployment; the Scale controls
// whether a run is CI-sized (seconds) or paper-sized (minutes).
//
// The evaluation is one table, Experiments (figures.go): each entry names a
// swept axis, the arms compared at every value and the views that print the
// result. Every point of every entry is measured by one driver, run (this
// file), which brings up Scale.config's deployment and calls workload.Run.
package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Scale bundles the knobs that shrink an experiment without changing its
// structure.
type Scale struct {
	DCs              int
	Partitions       int // default partition count (figure sweeps override)
	KeysPerPartition int
	ValueSize        int
	ThinkTime        time.Duration
	LatencyScale     float64 // multiplier on the AWS latency matrix
	JitterFrac       float64
	ClockSkew        time.Duration
	Warmup           time.Duration
	Measure          time.Duration
	ClientsPerPart   int // clients per partition per DC for "max throughput" runs
	Seed             uint64
}

// CIScale finishes each experiment point in about a second; used by the
// bench_test.go benchmarks.
func CIScale() Scale {
	return Scale{
		DCs: 3, Partitions: 4, KeysPerPartition: 64, ValueSize: 8,
		ThinkTime: time.Millisecond, LatencyScale: 0.02, JitterFrac: 0.1,
		ClockSkew: 200 * time.Microsecond,
		Warmup:    200 * time.Millisecond, Measure: 700 * time.Millisecond,
		ClientsPerPart: 16, Seed: 42,
	}
}

// MediumScale sits between CI and paper scale: a few seconds per point with
// enough load to push the servers toward saturation, where the paper's
// blocking and staleness dynamics appear.
func MediumScale() Scale {
	return Scale{
		DCs: 3, Partitions: 8, KeysPerPartition: 4096, ValueSize: 8,
		ThinkTime: 2 * time.Millisecond, LatencyScale: 0.1, JitterFrac: 0.1,
		ClockSkew: 500 * time.Microsecond,
		Warmup:    500 * time.Millisecond, Measure: 2 * time.Second,
		ClientsPerPart: 48, Seed: 42,
	}
}

// PaperScale approximates the paper's setup (3 DCs, 32 partitions, zipf-0.99
// over 1M keys/partition is shrunk to 100k to bound memory, 25 ms think
// time, full AWS latencies). Full sweeps take minutes per figure.
func PaperScale() Scale {
	return Scale{
		DCs: 3, Partitions: 32, KeysPerPartition: 100_000, ValueSize: 8,
		ThinkTime: 25 * time.Millisecond, LatencyScale: 1.0, JitterFrac: 0.1,
		ClockSkew: time.Millisecond,
		Warmup:    2 * time.Second, Measure: 5 * time.Second,
		ClientsPerPart: 64, Seed: 42,
	}
}

// config is the one place the evaluation's deployment is written: every
// experiment, the partition experiment and the visibility probe start from it
// and edit the fields they vary on the result.
func (sc Scale) config(engine cluster.Engine) cluster.Config {
	return cluster.Config{
		NumDCs:        sc.DCs,
		NumPartitions: sc.Partitions,
		Engine:        engine,
		GCInterval:    100 * time.Millisecond,
		PutDepWait:    true,
		ClockSkew:     sc.ClockSkew,
		Latency:       cluster.AWSLatency(sc.LatencyScale),
		JitterFrac:    sc.JitterFrac,
		Seed:          sc.Seed,
	}
}

// deploy brings cfg up with every key of its keyspace seeded.
func deploy(sc Scale, cfg cluster.Config) (*cluster.Cluster, *keyspace.Table, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	table := keyspace.Build(cfg.NumPartitions, sc.KeysPerPartition)
	c.SeedTable(table)
	return c, table, nil
}

// openSessions opens n client sessions, spread round-robin over the DCs.
func openSessions(c *cluster.Cluster, n int) ([]*client.Session, error) {
	sessions := make([]*client.Session, n)
	for i := range sessions {
		var err error
		if sessions[i], err = c.NewSession(i % c.NumDCs()); err != nil {
			return nil, err
		}
	}
	return sessions, nil
}

// Load is the client side of one experiment point: the paper's GET:PUT
// workload (§V-B) when GetsPerPut is set, its RO-TX + PUT workload (§V-C)
// when TxPartitions is.
type Load struct {
	GetsPerPut     int
	TxPartitions   int
	ClientsPerPart int // closed-loop clients per partition per DC
	ThinkTime      time.Duration
}

// Point is one measured configuration of one system.
type Point struct {
	Throughput float64
	MeanResp   time.Duration
	TxResp     time.Duration
	BlockProb  float64
	MeanBlock  time.Duration
	GetStale   metrics.StalenessSnapshot
	TxStale    metrics.StalenessSnapshot
	Messages   uint64
}

// run measures one point: the deployment cfg under load, driven by
// workload.Run — the root module's one load driver. A point in which any
// operation failed is an error, not a figure.
func run(ctx context.Context, sc Scale, cfg cluster.Config, load Load) (Point, error) {
	c, table, err := deploy(sc, cfg)
	if err != nil {
		return Point{}, err
	}
	defer c.Close()
	sessions, err := openSessions(c, load.ClientsPerPart*cfg.NumPartitions*cfg.NumDCs)
	if err != nil {
		return Point{}, err
	}
	zipf := workload.NewZipf(sc.KeysPerPartition, 0.99)

	// Snapshot server-side metrics when the measurement window opens so the
	// warmup does not pollute blocking/staleness statistics.
	type snapshot struct {
		agg  cluster.Aggregate
		msgs uint64
	}
	baseCh := make(chan snapshot, 1)
	timer := time.AfterFunc(sc.Warmup, func() { baseCh <- snapshot{c.Metrics(), c.Messages()} })
	defer timer.Stop()

	res, err := workload.Run(ctx, workload.RunnerConfig{
		Clients:    len(sessions),
		NewSession: func(i int) workload.Session { return sessions[i] },
		NewGenerator: func(int) workload.Generator {
			if load.TxPartitions > 0 {
				return workload.NewROTxMix(table, zipf, load.TxPartitions, sc.ValueSize)
			}
			return workload.NewGetPutMix(table, zipf, load.GetsPerPut, sc.ValueSize)
		},
		ThinkTime: load.ThinkTime,
		Warmup:    sc.Warmup,
		Measure:   sc.Measure,
		Seed:      sc.Seed,
	})
	if err != nil {
		return Point{}, err
	}
	if res.Errors != 0 {
		return Point{}, fmt.Errorf("harness: %d operations failed", res.Errors)
	}

	var base snapshot
	select {
	case base = <-baseCh:
	default: // run was cancelled before the warmup elapsed
	}
	agg := c.Metrics()
	blocking := agg.Blocking().Sub(base.agg.Blocking())
	return Point{
		Throughput: res.Throughput(),
		MeanResp:   res.AllLatency.Mean(),
		TxResp:     res.TxLatency.Mean(),
		BlockProb:  blocking.Probability(),
		MeanBlock:  blocking.MeanBlockTime(),
		GetStale:   agg.GetStale.Sub(base.agg.GetStale),
		TxStale:    agg.TxStale.Sub(base.agg.TxStale),
		Messages:   c.Messages() - base.msgs,
	}, nil
}

// Table is a printable experiment result, one row per sweep point.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, row := range append([][]string{t.Columns}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

func fmtOps(v float64) string { return fmt.Sprintf("%.0f", v) }

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

func fmtPct(v float64) string { return fmt.Sprintf("%.3f%%", v) }

func fmtProb(v float64) string { return fmt.Sprintf("%.2e", v) }
