package harness

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// partitionRows quantifies system behaviour before, during and after an
// inter-DC network partition — the paper's stated future work ("we plan to
// quantitatively assess the performance and behavior of POCC in presence of
// network partitions"). For each engine it runs a GET/PUT workload in three
// equal phases of sc.Measure/2 (healthy, partitioned between DC0 and DC1,
// healed) and reports per phase the completed operations, the errors, the
// requests that blocked and the sessions' fallbacks.
//
// Expected outcome: plain POCC completes the partition phase only for
// operations that do not hit a missing dependency (requests on severed
// dependencies block until the heal); HA-POCC falls back and keeps
// completing every operation; Cure* is unaffected but stale — except in the
// runs where a remote write lands within a heartbeat of the cut, whose
// readers then block like POCC's (ROADMAP arc 1, "Cure* across a cut").
func partitionRows(ctx context.Context, sc Scale) ([][]string, error) {
	phase := sc.Measure / 2
	var rows [][]string
	for _, eng := range []cluster.Engine{cluster.Cure, cluster.POCC, cluster.HAPOCC} {
		cfg := sc.config(eng)
		if eng == cluster.HAPOCC {
			// Stabilize often enough to bound fallback staleness in a short
			// run, and suspect a partition well inside one phase.
			cfg.StabilizationInterval = 20 * time.Millisecond
			cfg.BlockTimeout = max(phase/10, 10*time.Millisecond)
		}
		engRows, err := partitionRun(ctx, sc, cfg, phase)
		if err != nil {
			return nil, fmt.Errorf("partition %s: %w", eng, err)
		}
		rows = append(rows, engRows...)
	}
	return rows, nil
}

// partitionRun is one engine's three phases: three workload.Run windows of
// one phase each over the same sessions, so the phases are equal by
// construction and every counter is read at a phase boundary.
func partitionRun(ctx context.Context, sc Scale, cfg cluster.Config, phase time.Duration) ([][]string, error) {
	c, table, err := deploy(sc, cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	const clientsPerDC = 8
	sessions, err := openSessions(c, clientsPerDC*cfg.NumDCs)
	if err != nil {
		return nil, err
	}
	zipf := workload.NewZipf(sc.KeysPerPartition, 0.99)

	var rows [][]string
	var blocked, fallbacks uint64 // cumulative, as of the last phase boundary
	for i, name := range []string{"healthy", "partitioned", "healed"} {
		if i == 1 {
			// The heal is armed with the cut, not issued after the window: a
			// plain-POCC request blocked on a severed dependency returns only
			// at the heal, and the window returns only once every client has.
			c.Network().PartitionDCs(0, 1, true)
			heal := time.AfterFunc(phase, func() { c.Network().PartitionDCs(0, 1, false) })
			defer heal.Stop()
		}
		res, err := workload.Run(ctx, workload.RunnerConfig{
			Clients:    len(sessions),
			NewSession: func(j int) workload.Session { return sessions[j] },
			NewGenerator: func(int) workload.Generator {
				return workload.NewGetPutMix(table, zipf, 4, sc.ValueSize)
			},
			ThinkTime: sc.ThinkTime,
			Measure:   phase,
			Seed:      sc.Seed + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		nowBlocked, nowFallbacks := c.Metrics().Blocking().Blocked, uint64(0)
		for _, s := range sessions {
			nowFallbacks += s.Fallbacks()
		}
		rows = append(rows, []string{
			cfg.Engine.String(), name,
			strconv.FormatUint(res.Ops, 10), strconv.FormatUint(res.Errors, 10),
			strconv.FormatUint(nowBlocked-blocked, 10), strconv.FormatUint(nowFallbacks-fallbacks, 10),
		})
		blocked, fallbacks = nowBlocked, nowFallbacks
	}
	return rows, nil
}
