package harness

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// VisibilityOpts parameterizes one visibility probe run.
type VisibilityOpts struct {
	// Skew draws each node's clock offset from [-Skew, +Skew]; zero disables
	// skew entirely (it does not fall back to the scale default, because the
	// unskewed baseline is itself a measured variant here).
	Skew time.Duration
	// RawClocks reverts to raw skewed physical clocks (the pre-HLC ablation
	// variant).
	RawClocks bool
	// Samples is the number of probe writes; zero means 200.
	Samples int
}

// VisibilityStats is the result of one visibility probe run. Arrival
// visibility is the time from a PUT returning at the origin DC until the
// update is covered by a remote server's version vector (an optimistic
// session could read it); stable visibility additionally waits for the
// remote GSS to cover it (a pessimistic session could read it).
type VisibilityStats struct {
	Samples              int
	VisP50, VisP99       time.Duration
	StableP50, StableP99 time.Duration
	// GSSLagMean/Max sample core.Server.GSSLag at the remote DC: how far its
	// aggregate-min stable snapshot trails its version vector across all
	// member DCs. Under clock skew this is the metric that blows up with raw
	// clocks (a DC whose clock runs behind pins the GSS entry) and stays
	// near the stabilization interval with hybrid clocks.
	GSSLagMean, GSSLagMax time.Duration
	// DeltaBytesPerVersion is the measured wire cost of the probe's update
	// stream under the varint-delta batch encoding, including batch headers
	// and envelope framing. AbsBytesPerVersion is the same stream's
	// per-version cost under the pre-HLC absolute encoding (version records
	// only, headers excluded — a floor that biases against delta, so
	// delta < absolute here is a conservative win). Both are measured at
	// deployed timestamp magnitude (see visibilityEpochOffset).
	DeltaBytesPerVersion, AbsBytesPerVersion float64
}

// visibilityEpochOffset rebases the probe's timestamps for the wire-cost
// measurement. Clocks in this codebase tick ns since process start, so a
// fraction-of-a-second-old test process emits 4-byte varint timestamps that
// no deployed process would: at wall-clock magnitude (a clock epoch years in
// the past, ~2^60 ns) absolute timestamps cost 9-byte varints while the
// batch deltas are unchanged — the offset cancels out of every delta. The
// rebase is applied uniformly to update times and nonzero dependency
// entries, so it models process age without touching the stream's shape.
const visibilityEpochOffset vclock.Timestamp = 1 << 60

// visibilityBatchSize groups probe versions into heartbeat-window-shaped
// batches for the wire measurement, matching repl's flush behaviour.
const visibilityBatchSize = 8

// VisibilityPoint runs one visibility probe: an HA-POCC cluster with a fast
// stabilization cadence, a writer session at DC 0, and per-write polling of
// a remote DC's version vector and GSS. It is shared by the poccbench
// "visibility" experiment and the root BenchmarkRemoteVisibility.
func VisibilityPoint(ctx context.Context, sc Scale, o VisibilityOpts) (VisibilityStats, error) {
	if sc.DCs < 2 {
		return VisibilityStats{}, fmt.Errorf("harness: visibility needs >= 2 DCs, got %d", sc.DCs)
	}
	samples := o.Samples
	if samples == 0 {
		samples = 200
	}
	cfg := sc.config(cluster.HAPOCC)
	cfg.StabilizationInterval = 5 * time.Millisecond
	cfg.ClockSkew = o.Skew
	cfg.RawPhysicalClocks = o.RawClocks
	c, table, err := deploy(sc, cfg)
	if err != nil {
		return VisibilityStats{}, err
	}
	defer c.Close()
	sess, err := c.NewSession(0)
	if err != nil {
		return VisibilityStats{}, err
	}

	// Light background load: one writer per DC cycling through every
	// partition. A deployed system's client traffic continuously couples the
	// hybrid clocks across partitions (a PUT's dependency wait advances the
	// coordinator's clock past the session's dependencies); without it the
	// sequential probe below would be the only coupling path and the stable
	// visibility of each write would be gated on the probe's own pace
	// instead of the stabilization cadence.
	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	defer func() { close(stop); bgWG.Wait() }()
	for dc := 0; dc < sc.DCs; dc++ {
		bg, err := c.NewSession(dc)
		if err != nil {
			return VisibilityStats{}, err
		}
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			val := []byte("bg")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := table.Key(i%sc.Partitions, (i/sc.Partitions)%sc.KeysPerPartition)
				_ = bg.Put(key, val) // errors only matter during shutdown
				time.Sleep(time.Millisecond)
			}
		}()
	}

	poll := func(start time.Time, pred func() bool) (time.Duration, error) {
		for !pred() {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if time.Since(start) > 10*time.Second {
				return 0, fmt.Errorf("harness: visibility probe timed out")
			}
			time.Sleep(50 * time.Microsecond)
		}
		return time.Since(start), nil
	}

	// Wire-cost accounting: replay the probe's update stream through the
	// binary codec in heartbeat-shaped batches and compare against the sum
	// of absolute per-version encodings (the pre-HLC format).
	var (
		buf      bytes.Buffer
		enc      = wire.NewBinaryEncoder(&buf)
		pending  []*item.Version
		seq      uint64
		absBytes int
	)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		hb := pending[0].UpdateTime
		for _, v := range pending {
			if v.UpdateTime > hb {
				hb = v.UpdateTime
			}
		}
		seq++
		return enc.Encode(wire.Envelope{
			Src: netemu.NodeID{DC: 0},
			Msg: &msg.ReplicateBatch{Versions: pending, HBTime: hb, Epoch: 1, Seq: seq},
		})
	}

	value := make([]byte, sc.ValueSize)
	vis := make([]time.Duration, 0, samples)
	stable := make([]time.Duration, 0, samples)
	var lagSum, lagMax time.Duration
	const remoteDC = 1
	// A handful of unmeasured writes lets heartbeats, stabilization and the
	// session's dependency vector reach steady state first.
	for i := 0; i < samples+10; i++ {
		key := table.Key(i%sc.Partitions, i%sc.KeysPerPartition)
		p := c.PartitionOf(key)
		deps := sess.DV()
		ut, _, err := sess.PutMeta(key, value)
		if err != nil {
			return VisibilityStats{}, err
		}
		start := time.Now()
		if i < 10 {
			continue
		}
		v := item.New(len(deps), key, value)
		v.UpdateTime = ut + visibilityEpochOffset
		for d := range deps {
			if deps[d] != 0 {
				v.Deps[d] = deps[d] + visibilityEpochOffset
			}
		}
		pending = append(pending, v)
		absBytes += len(wire.AppendVersion(nil, v))
		if len(pending) >= visibilityBatchSize {
			if err := flush(); err != nil {
				return VisibilityStats{}, err
			}
			pending = pending[:0]
		}
		srv := c.Server(remoteDC, p)
		dv, err := poll(start, func() bool { return srv.VV().Get(0) >= ut })
		if err != nil {
			return VisibilityStats{}, err
		}
		vis = append(vis, dv)
		ds, err := poll(start, func() bool { return srv.GSS().Get(0) >= ut })
		if err != nil {
			return VisibilityStats{}, err
		}
		stable = append(stable, ds)
		if lag := srv.GSSLag(); lag > 0 {
			lagSum += lag
			if lag > lagMax {
				lagMax = lag
			}
		}
	}
	if err := flush(); err != nil {
		return VisibilityStats{}, err
	}

	st := VisibilityStats{Samples: len(vis)}
	st.VisP50, st.VisP99 = percentiles(vis)
	st.StableP50, st.StableP99 = percentiles(stable)
	st.GSSLagMean = lagSum / time.Duration(len(vis))
	st.GSSLagMax = lagMax
	st.DeltaBytesPerVersion = float64(buf.Len()) / float64(len(vis))
	st.AbsBytesPerVersion = float64(absBytes) / float64(len(vis))
	return st, nil
}

// percentiles returns the p50 and p99 of ds (ds is sorted in place).
func percentiles(ds []time.Duration) (p50, p99 time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := func(p int) int {
		i := len(ds) * p / 100
		if i >= len(ds) {
			i = len(ds) - 1
		}
		return i
	}
	return ds[idx(50)], ds[idx(99)]
}

// visibilityRows measures update-visibility latency across the two clock
// variants, both with the full-vector GSS exchange: raw physical clocks (the
// pre-HLC system) and hybrid clocks — each with and without ±50 ms emulated
// clock skew. The hybrid rows should be skew-insensitive.
func visibilityRows(ctx context.Context, sc Scale) ([][]string, error) {
	variants := []struct {
		name string
		raw  bool
	}{
		{"raw+vector", true},
		{"hlc+vector", false},
	}
	var rows [][]string
	for _, v := range variants {
		for _, sk := range []time.Duration{0, 50 * time.Millisecond} {
			st, err := VisibilityPoint(ctx, sc, VisibilityOpts{
				Skew: sk, RawClocks: v.raw,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, []string{
				v.name, fmtMs(sk), fmtMs(st.VisP50), fmtMs(st.VisP99),
				fmtMs(st.StableP50), fmtMs(st.StableP99), fmtMs(st.GSSLagMean),
				fmt.Sprintf("%.1f", st.DeltaBytesPerVersion),
				fmt.Sprintf("%.1f", st.AbsBytesPerVersion),
			})
		}
	}
	return rows, nil
}
