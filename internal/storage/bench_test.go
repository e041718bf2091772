package storage

import (
	"strconv"
	"testing"

	"repro/internal/item"
	"repro/internal/vclock"
)

func benchVersions(n int) []*item.Version {
	vs := make([]*item.Version, n)
	for i := range vs {
		vs[i] = &item.Version{
			Key:        "bench-k" + strconv.Itoa(i%64),
			Value:      []byte("00000000"),
			SrcReplica: 1,
			UpdateTime: vclock.Timestamp(i + 1),
			Deps:       vclock.VC{0, uint64ToTS(i), 0},
		}
	}
	return vs
}

func uint64ToTS(i int) vclock.Timestamp { return vclock.Timestamp(i) }

// BenchmarkStorageInsert measures the one-at-a-time insert path (one shard
// lock acquisition per version).
func BenchmarkStorageInsert(b *testing.B) {
	vs := benchVersions(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, v := range vs {
			s.Insert(v)
		}
	}
}

// BenchmarkStorageLoad measures what the loader costs one engine: 4 096 keys
// of one version each into a fresh store, slot-table growth included (the
// insert benchmarks above cycle 64 keys).
func BenchmarkStorageLoad(b *testing.B) {
	vs := testVersions(0, 4096, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, v := range vs {
			s.Insert(v)
		}
	}
}

// BenchmarkStorageLoadDurable is BenchmarkStorageLoad through a durable
// engine configured as the front-door loader's (AckGrouped, NoSync): 4 096
// keys of one version each into a fresh engine. Opening and closing the
// engine fall outside the timer.
func BenchmarkStorageLoadDurable(b *testing.B) {
	vs := testVersions(0, 4096, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := OpenDurable(b.TempDir(), DurableOptions{AckMode: AckGrouped, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, v := range vs {
			d.Insert(v)
		}
		b.StopTimer()
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageInsertBatch measures the batched apply path (one shard
// pass per batch) at the default replication batch size.
func BenchmarkStorageInsertBatch(b *testing.B) {
	vs := benchVersions(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for off := 0; off < len(vs); off += 128 {
			s.InsertBatch(vs[off : off+128])
		}
	}
}

// BenchmarkStorageStats measures the single-pass key/version sampler.
func BenchmarkStorageStats(b *testing.B) {
	s := New()
	for _, v := range benchVersions(1024) {
		s.Insert(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Stats()
	}
}

// BenchmarkDurableInsertBatch measures the durable engine's group-commit
// apply path: one WAL write+fsync per replication batch, then the in-memory
// batch insert. Compare against BenchmarkStorageInsertBatch for the price
// of durability; NoSync isolates the encoding+write cost from the fsync.
func BenchmarkDurableInsertBatch(b *testing.B) {
	for _, sync := range []bool{true, false} {
		name := "fsync"
		if !sync {
			name = "nosync"
		}
		b.Run(name, func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), DurableOptions{NoSync: !sync, CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { d.Close() })
			vs := benchVersions(128)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.InsertBatch(vs)
			}
			if err := d.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCollectGarbageNoPrune measures a GC sweep over chains that need
// no pruning (the steady state between update bursts).
func BenchmarkCollectGarbageNoPrune(b *testing.B) {
	s := New()
	for _, v := range benchVersions(64) { // one version per key
		s.Insert(v)
	}
	gv := vclock.VC{1 << 40, 1 << 40, 1 << 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if removed := s.CollectGarbage(gv); removed != 0 {
			b.Fatalf("unexpected pruning: %d", removed)
		}
	}
}
