// Package harness regenerates every figure of the paper's evaluation
// (§V): the GET/PUT scalability, response-time, write-intensity, blocking
// and staleness experiments (Fig. 1-2) and the transactional experiments
// (Fig. 3), plus ablations over the design parameters the paper discusses.
// Experiments run against the emulated geo-deployment; the Scale controls
// whether a run is CI-sized (seconds) or paper-sized (minutes).
package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/keyspace"
	"repro/internal/metrics"
	"repro/internal/netemu"
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

// Point is one measured configuration of one system.
type Point struct {
	Engine     cluster.Engine
	Param      int // sweep parameter (partitions, ratio, clients, ...)
	Throughput float64
	MeanResp   time.Duration
	TxResp     time.Duration
	BlockProb  float64
	MeanBlock  time.Duration
	GetStale   metrics.StalenessSnapshot
	TxStale    metrics.StalenessSnapshot
	Messages   uint64
	Errors     uint64
}

// workloadKind selects the paper's two workload families.
type workloadKind int

const (
	getPutWorkload workloadKind = iota + 1
	roTxWorkload
)

// runSpec fully describes one experiment point.
type runSpec struct {
	scale      Scale
	engine     cluster.Engine
	partitions int
	kind       workloadKind
	mixParam   int // GETs per PUT, or partitions per RO-TX
	clients    int // total clients; 0 = ClientsPerPart × partitions × DCs
	// overrides (ablations); zero means engine default
	stabilization time.Duration
	heartbeat     time.Duration
	thinkTime     time.Duration // zero means scale.ThinkTime
	clockSkew     time.Duration // negative means zero skew, zero means scale default
	rawClocks     bool          // revert to raw skewed physical clocks (pre-HLC ablation)
	leanStab      bool          // scalar HLC watermark stabilization instead of full vectors
}

// run executes one experiment point.
func run(ctx context.Context, spec runSpec) (Point, error) {
	sc := spec.scale
	partitions := spec.partitions
	if partitions == 0 {
		partitions = sc.Partitions
	}
	skew := sc.ClockSkew
	if spec.clockSkew > 0 {
		skew = spec.clockSkew
	} else if spec.clockSkew < 0 {
		skew = 0
	}
	think := sc.ThinkTime
	if spec.thinkTime != 0 {
		think = spec.thinkTime
	}

	c, err := cluster.New(cluster.Config{
		NumDCs:                sc.DCs,
		NumPartitions:         partitions,
		Engine:                spec.engine,
		HeartbeatInterval:     spec.heartbeat,
		StabilizationInterval: spec.stabilization,
		GCInterval:            100 * time.Millisecond,
		PutDepWait:            true,
		ClockSkew:             skew,
		Latency:               scaledAWS(sc.LatencyScale),
		JitterFrac:            sc.JitterFrac,
		Seed:                  sc.Seed,
		RawPhysicalClocks:     spec.rawClocks,
		LeanStabilization:     spec.leanStab,
	})
	if err != nil {
		return Point{}, err
	}
	defer c.Close()

	table := keyspace.Build(partitions, sc.KeysPerPartition)
	c.SeedTable(table)
	zipf := workload.NewZipf(sc.KeysPerPartition, 0.99)

	clients := spec.clients
	if clients == 0 {
		clients = sc.ClientsPerPart * partitions * sc.DCs
	}

	newGen := func(i int) workload.Generator {
		switch spec.kind {
		case roTxWorkload:
			return workload.NewROTxMix(table, zipf, spec.mixParam, sc.ValueSize)
		default:
			return workload.NewGetPutMix(table, zipf, spec.mixParam, sc.ValueSize)
		}
	}
	newSess := func(i int) workload.Session {
		s, errSess := c.NewSession(i % sc.DCs)
		if errSess != nil {
			panic(errSess) // layout is validated above; cannot happen
		}
		return s
	}

	// Snapshot server-side metrics when the measurement window opens so the
	// warmup does not pollute blocking/staleness statistics.
	baseCh := make(chan cluster.Aggregate, 1)
	msgsCh := make(chan uint64, 1)
	timer := time.AfterFunc(sc.Warmup, func() {
		baseCh <- c.Metrics()
		msgsCh <- c.Messages()
	})
	defer timer.Stop()

	res, err := workload.Run(ctx, workload.RunnerConfig{
		Clients:      clients,
		NewSession:   newSess,
		NewGenerator: newGen,
		ThinkTime:    think,
		Warmup:       sc.Warmup,
		Measure:      sc.Measure,
		Seed:         sc.Seed,
	})
	if err != nil {
		return Point{}, err
	}

	var base cluster.Aggregate
	var baseMsgs uint64
	select {
	case base = <-baseCh:
		baseMsgs = <-msgsCh
	default: // run was cancelled before the warmup elapsed
	}
	agg := c.Metrics()
	blocking := agg.Blocking()
	blocking = blocking.Sub(base.Blocking())

	p := Point{
		Engine:     spec.engine,
		Param:      spec.mixParam,
		Throughput: res.Throughput(),
		MeanResp:   res.AllLatency.Mean(),
		TxResp:     res.TxLatency.Mean(),
		BlockProb:  blocking.Probability(),
		MeanBlock:  blocking.MeanBlockTime(),
		GetStale:   agg.GetStale.Sub(base.GetStale),
		TxStale:    agg.TxStale.Sub(base.TxStale),
		Messages:   c.Messages() - baseMsgs,
		Errors:     res.Errors,
	}
	return p, nil
}

// scaledAWS maps the public latency scale onto the cluster AWS profile.
func scaledAWS(scale float64) netemu.LatencyFunc {
	if scale <= 0 {
		return nil
	}
	return cluster.AWSLatency(scale)
}

// Table is a printable experiment result, one row per sweep point.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(write func(format string, args ...any)) {
	write("== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, col := range t.Columns {
		widths[i] = len(col)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for i, col := range t.Columns {
		write("%-*s  ", widths[i], col)
	}
	write("\n")
	for _, row := range t.Rows {
		for i, cell := range row {
			write("%-*s  ", widths[i], cell)
		}
		write("\n")
	}
}

func fmtOps(v float64) string { return fmt.Sprintf("%.0f", v) }

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

func fmtPct(v float64) string { return fmt.Sprintf("%.3f%%", v) }

func fmtProb(v float64) string { return fmt.Sprintf("%.2e", v) }
