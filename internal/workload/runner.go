package workload

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Session is the client-facing surface the runner drives. It matches the
// paper's API (§II-C): PUT, GET and causally consistent read-only
// transactions.
type Session interface {
	Get(key string) ([]byte, error)
	Put(key string, value []byte) error
	ROTx(keys []string) ([][]byte, error) // vals[i] answers keys[i]
}

// RunnerConfig parameterizes a closed-loop load run.
type RunnerConfig struct {
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// NewSession builds the session for client i (sessions pin clients to a
	// DC, so the factory decides placement).
	NewSession func(i int) Session
	// NewGenerator builds the per-client operation generator.
	NewGenerator func(i int) Generator
	// ThinkTime is the pause between consecutive operations (25 ms in the
	// paper; scaled down in CI-sized runs).
	ThinkTime time.Duration
	// Warmup is discarded before measurement starts.
	Warmup time.Duration
	// Measure is the measurement window length.
	Measure time.Duration
	// Seed makes client randomness reproducible.
	Seed uint64
}

// Result aggregates client-side measurements over the measurement window.
type Result struct {
	Ops        uint64
	Gets       uint64
	Puts       uint64
	Txs        uint64
	Errors     uint64
	Elapsed    time.Duration
	AllLatency metrics.LatencySnapshot
	GetLatency metrics.LatencySnapshot
	PutLatency metrics.LatencySnapshot
	TxLatency  metrics.LatencySnapshot
}

// Throughput returns measured operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Run drives cfg.Clients closed-loop clients: each repeatedly draws an
// operation, executes it against its session, then thinks. Latencies and
// counts are recorded only inside the measurement window. Run returns once
// the window has elapsed and every client goroutine has stopped.
func Run(ctx context.Context, cfg RunnerConfig) (Result, error) {
	if cfg.Clients <= 0 {
		return Result{}, errors.New("workload: Clients must be positive")
	}
	if cfg.NewSession == nil || cfg.NewGenerator == nil {
		return Result{}, errors.New("workload: NewSession and NewGenerator are required")
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Warmup+cfg.Measure)
	defer cancel()

	start := time.Now()
	measureFrom := start.Add(cfg.Warmup)

	type clientStats struct {
		Result
		all, get, put, tx metrics.Latency
	}
	stats := make([]clientStats, cfg.Clients)

	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := cfg.NewSession(i)
			gen := cfg.NewGenerator(i)
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(i)+1))
			st := &stats[i]
			for runCtx.Err() == nil {
				op := gen.Next(rng)
				opStart := time.Now()
				var err error
				switch op.Kind {
				case OpGet:
					_, err = sess.Get(op.Keys[0])
				case OpPut:
					err = sess.Put(op.Keys[0], op.Value)
				case OpROTx:
					_, err = sess.ROTx(op.Keys)
				}
				end := time.Now()
				if end.After(measureFrom) && runCtx.Err() == nil {
					if err != nil {
						st.Errors++
					} else {
						lat := end.Sub(opStart)
						st.Ops++
						st.all.Record(lat)
						switch op.Kind {
						case OpGet:
							st.Gets++
							st.get.Record(lat)
						case OpPut:
							st.Puts++
							st.put.Record(lat)
						case OpROTx:
							st.Txs++
							st.tx.Record(lat)
						}
					}
				}
				if cfg.ThinkTime > 0 {
					select {
					case <-runCtx.Done():
					case <-time.After(cfg.ThinkTime):
					}
				}
			}
		}(i)
	}
	wg.Wait()

	var out Result
	out.Elapsed = time.Since(measureFrom)
	if out.Elapsed > cfg.Measure {
		out.Elapsed = cfg.Measure
	}
	for i := range stats {
		st := &stats[i]
		out.Ops += st.Ops
		out.Gets += st.Gets
		out.Puts += st.Puts
		out.Txs += st.Txs
		out.Errors += st.Errors
		out.AllLatency.Add(st.all.Snapshot())
		out.GetLatency.Add(st.get.Snapshot())
		out.PutLatency.Add(st.put.Snapshot())
		out.TxLatency.Add(st.tx.Snapshot())
	}
	return out, nil
}
