// Benchmarks regenerating every figure of the paper's evaluation at CI
// scale (shapes, not absolute numbers), plus microbenchmarks of the
// individual operations. Full paper-scale sweeps are produced by
// cmd/poccbench (-scale paper).
package occ_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	occ "repro"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// benchScale is CIScale with windows small enough for the bench suite to
// finish in a couple of minutes.
func benchScale() harness.Scale {
	sc := harness.CIScale()
	sc.Warmup = 150 * time.Millisecond
	sc.Measure = 500 * time.Millisecond
	return sc
}

func reportPoint(b *testing.B, label string, p harness.Point) {
	b.ReportMetric(p.Throughput, label+"_ops/s")
	b.ReportMetric(float64(p.MeanResp)/float64(time.Millisecond), label+"_resp_ms")
}

// BenchmarkFig1aScalability — Fig. 1a: throughput vs number of partitions,
// GET:PUT = p:1, POCC vs Cure*.
func BenchmarkFig1aScalability(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Fig1a(context.Background(), sc, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			b.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

// BenchmarkFig1bResponseTime — Fig. 1b: response time vs throughput under a
// 32:1 GET:PUT workload (one moderate-load point per system).
func BenchmarkFig1bResponseTime(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := harness.GetPutSweep(context.Background(), sc, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		reportPoint(b, "cure", points[0][0])
		reportPoint(b, "pocc", points[0][1])
	}
}

// BenchmarkFig1cWriteIntensity — Fig. 1c: throughput vs GET:PUT ratio.
func BenchmarkFig1cWriteIntensity(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Fig1c(context.Background(), sc, []int{8, 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			b.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

// BenchmarkFig2aBlocking — Fig. 2a: POCC blocking probability and blocking
// time under load.
func BenchmarkFig2aBlocking(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := harness.GetPutSweep(context.Background(), sc, []int{32})
		if err != nil {
			b.Fatal(err)
		}
		pocc := points[0][1]
		b.ReportMetric(pocc.BlockProb, "block_prob")
		b.ReportMetric(float64(pocc.MeanBlock)/float64(time.Millisecond), "block_ms")
	}
}

// BenchmarkFig2bStaleness — Fig. 2b: Cure* staleness under load.
func BenchmarkFig2bStaleness(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := harness.GetPutSweep(context.Background(), sc, []int{32})
		if err != nil {
			b.Fatal(err)
		}
		cure := points[0][0]
		b.ReportMetric(cure.GetStale.PercentOld(), "pct_old")
		b.ReportMetric(cure.GetStale.PercentUnmerged(), "pct_unmerged")
	}
}

// BenchmarkFig3aTxScalability — Fig. 3a: throughput vs partitions contacted
// per RO-TX.
func BenchmarkFig3aTxScalability(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Fig3a(context.Background(), sc, []int{1, sc.Partitions})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 2 {
			b.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

// BenchmarkFig3bTxLoad — Fig. 3b: throughput and RO-TX response time vs
// clients per partition.
func BenchmarkFig3bTxLoad(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := harness.TxSweep(context.Background(), sc, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		cure, pocc := points[0][0], points[0][1]
		b.ReportMetric(cure.Throughput, "cure_ops/s")
		b.ReportMetric(pocc.Throughput, "pocc_ops/s")
		b.ReportMetric(float64(pocc.TxResp)/float64(time.Millisecond), "pocc_tx_ms")
	}
}

// BenchmarkFig3cTxBlocking — Fig. 3c: POCC blocking under the transactional
// workload.
func BenchmarkFig3cTxBlocking(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := harness.TxSweep(context.Background(), sc, []int{32})
		if err != nil {
			b.Fatal(err)
		}
		pocc := points[0][1]
		b.ReportMetric(pocc.BlockProb, "block_prob")
		b.ReportMetric(float64(pocc.MeanBlock)/float64(time.Millisecond), "block_ms")
	}
}

// BenchmarkFig3dTxStaleness — Fig. 3d: staleness of transactional reads,
// POCC vs Cure*.
func BenchmarkFig3dTxStaleness(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := harness.TxSweep(context.Background(), sc, []int{16})
		if err != nil {
			b.Fatal(err)
		}
		cure, pocc := points[0][0], points[0][1]
		b.ReportMetric(cure.TxStale.PercentOld(), "cure_pct_old")
		b.ReportMetric(pocc.TxStale.PercentOld(), "pocc_pct_old")
	}
}

// BenchmarkAblationStabilizationInterval — Cure*'s throughput/staleness
// trade-off over the stabilization interval (§V-B discussion).
func BenchmarkAblationStabilizationInterval(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationStabilization(context.Background(), sc,
			[]time.Duration{2 * time.Millisecond, 20 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHeartbeatInterval — POCC blocking time vs heartbeat Δ.
func BenchmarkAblationHeartbeatInterval(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationHeartbeat(context.Background(), sc,
			[]time.Duration{time.Millisecond, 10 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClockSkew — PUT clock-wait cost vs emulated NTP skew.
func BenchmarkAblationClockSkew(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationClockSkew(context.Background(), sc,
			[]time.Duration{0, 2 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteVisibility — update visibility as a benchmark axis: the
// time from a PUT returning at its origin DC until a remote DC's version
// vector (arrival) and GSS (stable) cover it, the remote GSS lag, and the
// wire cost per replicated version, with and without ±50 ms emulated clock
// skew. With hybrid clocks every reported metric should stay flat across
// the two sub-benchmarks; the raw-clock blowup is measured by the
// poccbench "visibility" experiment's raw+vector rows.
func BenchmarkRemoteVisibility(b *testing.B) {
	sc := benchScale()
	for _, bc := range []struct {
		name string
		skew time.Duration
	}{{"NoSkew", 0}, {"Skew50ms", 50 * time.Millisecond}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := harness.VisibilityPoint(context.Background(), sc,
					harness.VisibilityOpts{Skew: bc.skew, Samples: 120})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.VisP50)/float64(time.Millisecond), "vis_p50_ms")
				b.ReportMetric(float64(st.VisP99)/float64(time.Millisecond), "vis_p99_ms")
				b.ReportMetric(float64(st.StableP99)/float64(time.Millisecond), "stable_p99_ms")
				b.ReportMetric(float64(st.GSSLagMean)/float64(time.Millisecond), "gss_lag_ms")
				b.ReportMetric(st.DeltaBytesPerVersion, "delta_B/version")
				b.ReportMetric(st.AbsBytesPerVersion, "abs_B/version")
			}
		})
	}
}

// BenchmarkAblationThinkTime — blocking probability vs client think time.
func BenchmarkAblationThinkTime(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationThinkTime(context.Background(), sc,
			[]time.Duration{200 * time.Microsecond, 2 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionRecovery — the paper's future-work experiment: per-phase
// availability across a network partition for all three engines.
func BenchmarkPartitionRecovery(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tab, err := harness.PartitionExperiment(context.Background(), sc, 200*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 9 {
			b.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

// ---------------------------------------------------------------------------
// Operation microbenchmarks
// ---------------------------------------------------------------------------

func benchStore(b *testing.B, engine occ.Engine) (*occ.Store, *occ.Session, []string) {
	b.Helper()
	s, err := occ.Open(occ.Config{
		DataCenters: 3, Partitions: 4, Engine: engine,
		Latency: occ.UniformProfile(20*time.Microsecond, 500*time.Microsecond),
		Seed:    99,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	// Pre-built key set: the loops below must measure the store's hot path,
	// not strconv/concat garbage.
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "bench-k" + strconv.Itoa(i)
		s.Seed(keys[i], []byte("00000000"))
	}
	sess, err := s.Session(0)
	if err != nil {
		b.Fatal(err)
	}
	return s, sess, keys
}

func BenchmarkGetPOCC(b *testing.B) {
	_, sess, keys := benchStore(b, occ.POCC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Get(keys[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetCureStar(b *testing.B) {
	_, sess, keys := benchStore(b, occ.CureStar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Get(keys[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutPOCC(b *testing.B) {
	_, sess, keys := benchStore(b, occ.POCC)
	val := []byte("abcdefgh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Put(keys[i%64], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurablePut measures the acknowledged PUT latency of a durable
// deployment on the two rungs of the durability ladder that fsync: sync acks
// (every PUT waits for its commit group's fsync) and grouped acks (the PUT
// returns after staging on the commit pipeline; the fsync it rides happens in
// the background). Grouped is the headline: it should hold within a small
// factor of the in-memory BenchmarkPutPOCC because the fsync leaves the
// acknowledgement path entirely.
func BenchmarkDurablePut(b *testing.B) {
	for _, mode := range []struct {
		name string
		ack  occ.AckMode
	}{
		{"sync", occ.AckSync},
		{"grouped", occ.AckGrouped},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := occ.Open(occ.Config{
				DataCenters: 3, Partitions: 4, Engine: occ.POCC,
				Latency: occ.UniformProfile(20*time.Microsecond, 500*time.Microsecond),
				DataDir: b.TempDir(),
				AckMode: mode.ack,
				Seed:    99,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			keys := make([]string, 64)
			for i := range keys {
				keys[i] = "bench-k" + strconv.Itoa(i)
				s.Seed(keys[i], []byte("00000000"))
			}
			sess, err := s.Session(0)
			if err != nil {
				b.Fatal(err)
			}
			val := []byte("abcdefgh")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Put(keys[i%64], val); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			if st.StorageError != "" {
				b.Fatalf("persistence error during bench: %s", st.StorageError)
			}
			if st.CommitGroups > 0 {
				b.ReportMetric(float64(st.WALRecords)/float64(st.CommitGroups), "records/group")
			}
		})
	}
}

// BenchmarkCatchUpSmallGap measures serving a small catch-up gap — the
// common case after a brief link freeze: the lagging replica is missing the
// last ~1k versions of a 16k-version history. The sender seeks through the
// WAL's per-segment range index (a windowed ForEachDurable) instead of replaying
// the full durable history, so the cost scales with the gap, not the store.
// The benchmark fails if the seek ever degrades to a full scan.
func BenchmarkCatchUpSmallGap(b *testing.B) {
	const (
		total = 16384
		gap   = 1024
	)
	d, err := storage.OpenDurable(b.TempDir(), storage.DurableOptions{
		NoSync: true,
		// Small segments so the index has cold parts to skip; the default
		// 4 MiB roll would put the whole history in one segment.
		SegmentBytes: 64 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	val := []byte("abcdefgh-abcdefgh-abcdefgh-abcdefgh")
	batch := make([]*item.Version, 0, 128)
	for i := 0; i < total; i++ {
		batch = append(batch, &item.Version{
			Key:        "bench-k" + strconv.Itoa(i%512),
			Value:      val,
			SrcReplica: 0,
			UpdateTime: vclock.Timestamp(i + 1),
			Deps:       vclock.New(3),
		})
		if len(batch) == cap(batch) {
			d.InsertBatch(batch)
			batch = batch[:0]
		}
	}
	if err := d.Err(); err != nil {
		b.Fatal(err)
	}
	lo := vclock.VC{total - gap, 0, 0}
	hi := vclock.VC{total, 0, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shipped := 0
		if err := d.ForEachDurable(lo, hi, func(v *item.Version, _ bool) error {
			if v.UpdateTime > total-gap {
				shipped++
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if shipped != gap {
			b.Fatalf("shipped %d versions, want %d", shipped, gap)
		}
	}
	b.StopTimer()
	st := d.DurableStats()
	if st.SeekHits != uint64(b.N) || st.FullScans != 0 {
		b.Fatalf("gap reads degraded to full scans: seek_hits=%d full_scans=%d (N=%d)",
			st.SeekHits, st.FullScans, b.N)
	}
	b.ReportMetric(float64(gap)*float64(b.N)/b.Elapsed().Seconds(), "shipped_versions/s")
	b.ReportMetric(float64(st.PartsSkipped)/float64(b.N), "parts_skipped/op")
}

// BenchmarkClusterContended measures raw multi-client throughput against a
// zero-latency POCC cluster, sweeping concurrent sessions × partitions, to
// quantify the fine-grained server locking (PR 1's lock split) under real
// contention: many sessions per DC hammering zipf(0.99) hot keys with a 4:1
// GET:PUT mix and no think time. More sessions than cores on few partitions
// maximizes lock pressure; more partitions spreads it.
func BenchmarkClusterContended(b *testing.B) {
	const keysPerPart = 64
	for _, partitions := range []int{2, 8} {
		for _, sessions := range []int{8, 64} {
			b.Run(fmt.Sprintf("parts=%d/sessions=%d", partitions, sessions), func(b *testing.B) {
				c, err := cluster.New(cluster.Config{
					NumDCs: 3, NumPartitions: partitions, Engine: cluster.POCC,
					HeartbeatInterval: time.Millisecond,
					PutDepWait:        true,
					Seed:              42,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(c.Close)
				tbl := keyspace.Build(partitions, keysPerPart)
				c.SeedTable(tbl)
				zipf := workload.NewZipf(keysPerPart, 0.99)

				var next atomic.Int64
				var wg sync.WaitGroup
				b.ReportAllocs()
				b.ResetTimer()
				start := time.Now()
				for s := 0; s < sessions; s++ {
					sess, err := c.NewSession(s % 3)
					if err != nil {
						b.Fatal(err)
					}
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						rng := rand.New(rand.NewPCG(42, uint64(s)))
						val := []byte("abcdefgh")
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							key := tbl.Key(int(rng.Uint64N(uint64(partitions))), zipf.Sample(rng))
							if i%5 == 0 {
								if err := sess.Put(key, val); err != nil {
									b.Error(err)
									return
								}
							} else if _, err := sess.Get(key); err != nil {
								b.Error(err)
								return
							}
						}
					}(s)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
			})
		}
	}
}

// BenchmarkCatchUpThroughput measures the replication catch-up feed: how
// many versions per second a sender can ship straight out of its write-ahead
// log (the wal cursor + wire decode path a repl.Manager streams through when
// a lagging replica resynchronizes). Setup writes a realistic mixed log —
// local-origin and remote-origin versions — and the stream filters to the
// sender's own originations, exactly like serveCatchUp.
func BenchmarkCatchUpThroughput(b *testing.B) {
	const (
		total      = 16384
		batchSize  = 128
		localShare = 2 // every 2nd version originates locally
	)
	d, err := storage.OpenDurable(b.TempDir(), storage.DurableOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	val := []byte("abcdefgh-abcdefgh-abcdefgh-abcdefgh")
	batch := make([]*item.Version, 0, batchSize)
	wantLocal := 0
	for i := 0; i < total; i++ {
		src := i % localShare
		if src == 0 {
			wantLocal++
		}
		batch = append(batch, &item.Version{
			Key:        "bench-k" + strconv.Itoa(i%512),
			Value:      val,
			SrcReplica: src,
			UpdateTime: vclock.Timestamp(i + 1),
			Deps:       vclock.New(3),
		})
		if len(batch) == batchSize {
			d.InsertBatch(batch)
			batch = batch[:0]
		}
	}
	if err := d.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shipped := 0
		if err := d.ForEachDurable(nil, nil, func(v *item.Version, _ bool) error {
			if v.SrcReplica == 0 && v.UpdateTime > 0 {
				shipped++
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if shipped != wantLocal {
			b.Fatalf("shipped %d versions, want %d", shipped, wantLocal)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wantLocal)*float64(b.N)/b.Elapsed().Seconds(), "shipped_versions/s")
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "scanned_versions/s")
}

func BenchmarkROTxPOCC(b *testing.B) {
	_, sess, _ := benchStore(b, occ.POCC)
	keys := []string{"bench-k1", "bench-k2", "bench-k3", "bench-k4"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ROTx(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReshardThroughput measures the live partition split: how many
// versions per second the drain-then-flip migration moves onto the new
// owner while a concurrent workload keeps writing through the epoch fence.
// The copy walks every retained version of the moved slots at each DC's
// local donor, so the moved count is writes-per-key times the keys whose
// slot changes owner.
func BenchmarkReshardThroughput(b *testing.B) {
	const (
		keys        = 256
		writesPer   = 8
		liveWriters = 3
	)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cluster.New(cluster.Config{
			NumDCs: 3, NumPartitions: 2, MaxPartitions: 3, Engine: cluster.POCC,
			HeartbeatInterval: time.Millisecond,
			Seed:              42,
		})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := c.NewSession(0)
		if err != nil {
			b.Fatal(err)
		}
		keyList := make([]string, keys)
		for k := range keyList {
			keyList[k] = fmt.Sprintf("reshard-bench-%d", k)
			for w := 0; w < writesPer; w++ {
				if err := sess.Put(keyList[k], []byte(strconv.Itoa(w))); err != nil {
					b.Fatal(err)
				}
			}
		}
		// Live load across every DC for the duration of the split; sessions
		// ride through the ErrWrongSlotEpoch fence via client retry.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var livePuts atomic.Int64
		for w := 0; w < liveWriters; w++ {
			s, err := c.NewSession(w)
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(w int, s *client.Session) {
				defer wg.Done()
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Put(fmt.Sprintf("live-w%d-%d", w, j%32), []byte("x")); err != nil {
						b.Error(err)
						return
					}
					livePuts.Add(1)
				}
			}(w, s)
		}
		b.StartTimer()
		start := time.Now()
		np, err := c.SplitPartition(0)
		dur := time.Since(start)
		b.StopTimer()
		close(stop)
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
		moved := 0
		for _, k := range keyList {
			if c.PartitionOf(k) == np {
				moved += writesPer
			}
		}
		if moved == 0 {
			b.Fatal("split moved no benchmark keys")
		}
		b.ReportMetric(float64(moved)/dur.Seconds(), "moved_versions/s")
		b.ReportMetric(float64(dur)/float64(time.Millisecond), "split_ms")
		b.ReportMetric(float64(livePuts.Load())/dur.Seconds(), "live_puts/s")
		c.Close()
	}
}
