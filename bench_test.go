// Microbenchmarks of the individual operations and of remote visibility;
// `go test -run '^$' -bench . .` runs them. The paper's figures
// are not benchmarks here: cmd/poccbench prints them from
// harness.Experiments, and the gated end-to-end numbers (getput_inproc is the
// contention row: 24 zero-think clients on zipf-0.99 keys) live in bench/.
package occ_test

import (
	"context"
	"fmt"
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
	"repro/internal/storage"
	"repro/internal/vclock"
)

// benchScale is CIScale with windows small enough for the bench suite to
// finish in a couple of minutes.
func benchScale() harness.Scale {
	sc := harness.CIScale()
	sc.Warmup = 150 * time.Millisecond
	sc.Measure = 500 * time.Millisecond
	return sc
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
		if err := d.ForEachDurable(lo, hi, func(v *item.Version) error {
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
		if err := d.ForEachDurable(nil, nil, func(v *item.Version) error {
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
