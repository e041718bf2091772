package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/racedetect"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// testVersions returns versions first..first+n-1 of an endless stream that
// cycles over keys keys in timestamp order, 64-byte values.
func testVersions(first, n, keys int) []*item.Version {
	vs := make([]*item.Version, n)
	for i := range vs {
		ts := vclock.Timestamp(1<<44 + first + i)
		vs[i] = &item.Version{
			Key: fmt.Sprintf("p0-k%06d", (first+i)%keys), Value: bytes.Repeat([]byte{'v'}, 64),
			SrcReplica: 0, UpdateTime: ts, Deps: vclock.VC{ts - 1, ts - 900, 0}, Optimistic: true,
		}
	}
	return vs
}

// mallocsPer returns the heap allocations per call of op over runs calls,
// after runs warm-up calls, as a float from runtime.MemStats deltas:
// testing.AllocsPerRun truncates to an integer, which would hide a fraction
// of an allocation per call. The count is process-wide, so the WAL
// committer's allocations are in it.
func mallocsPer(runs int, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestDurableInsertAllocs: logging a local write costs no allocation on top
// of the in-memory insert — the log stages the version itself, and its
// committer encodes into a reused buffer.
func TestDurableInsertAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 2000
	perInsert := func(e Engine) float64 {
		vs := testVersions(0, 2*runs, 64)
		i := 0
		return mallocsPer(runs, func() {
			e.Insert(vs[i])
			i++
		})
	}
	dur, err := OpenDurable(t.TempDir(), DurableOptions{AckMode: AckGrouped, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	mem, d := perInsert(New()), perInsert(dur)
	t.Logf("mallocs per insert: Durable %.3f, Mem %.3f", d, mem)
	if d > mem+0.05 {
		t.Fatalf("Durable.Insert allocates %.3f times per call, Mem.Insert %.3f: the log append may add at most 0.05", d, mem)
	}
	if err := dur.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableInsertBatchAllocs is the same guard on the replicated apply:
// logging a batch costs no allocation on top of the in-memory inserts — not
// even an error value when the append succeeds.
func TestDurableInsertBatchAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs, batchLen = 500, 4
	perInsert := func(e Engine) float64 {
		vs := testVersions(0, 2*runs*batchLen, 64)
		i := 0
		return mallocsPer(runs, func() {
			e.InsertBatch(vs[i : i+batchLen])
			i += batchLen
		}) / batchLen
	}
	dur, err := OpenDurable(t.TempDir(), DurableOptions{AckMode: AckGrouped, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	mem, d := perInsert(New()), perInsert(dur)
	t.Logf("mallocs per batched insert: Durable %.3f, Mem %.3f", d, mem)
	if d > mem+0.05 {
		t.Fatalf("Durable.InsertBatch allocates %.3f times per version, Mem.InsertBatch %.3f: the log append may add at most 0.05", d, mem)
	}
	if err := dur.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableStagedRetention: the log holds a staged version only until its
// commit group is written. Once the inserts are durable and newer versions
// have let garbage collection prune them, nothing — not a recycled stage
// slot — may keep them reachable. The group window makes each phase one
// commit group, so a slot the committer failed to clear would still hold
// every pruned version.
func TestDurableStagedRetention(t *testing.T) {
	const keys = 4096
	dur, err := OpenDurable(t.TempDir(), DurableOptions{
		AckMode: AckGrouped, NoSync: true, CheckpointBytes: -1, GroupWindow: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	vs := testVersions(0, keys, keys)
	var gone []weak.Pointer[item.Version]
	for i, ver := range vs {
		if i%64 == 0 {
			gone = append(gone, weak.Make(ver))
		}
		dur.Insert(ver)
	}
	vs = nil
	if err := dur.ForEachDurable(nil, nil, func(*item.Version) error { return nil }); err != nil {
		t.Fatal(err)
	}
	dur.InsertBatch(testVersions(keys, keys, keys))
	if got := dur.CollectGarbage(vclock.VC{1 << 62, 1 << 62, 1 << 62}); got != keys {
		t.Fatalf("CollectGarbage removed %d versions, want %d", got, keys)
	}
	runtime.GC()
	for i, w := range gone {
		if w.Value() != nil {
			t.Fatalf("pruned version %d of %d is still reachable after its group committed", i, len(gone))
		}
	}
	runtime.KeepAlive(dur)
}

// replicate runs vs through the wire as one ReplicateBatch and returns the
// receiver's decoded copy, as a tcpnet read loop would hand it to the apply
// path: the list is dec's, lent until its next Decode.
func replicate(t testing.TB, enc *wire.BinaryEncoder, dec *wire.BinaryDecoder, vs []*item.Version) []*item.Version {
	t.Helper()
	hb := vs[len(vs)-1].UpdateTime
	if err := enc.Encode(wire.Envelope{Src: netemu.NodeID{DC: 1}, Msg: &msg.ReplicateBatch{Versions: vs, HBTime: hb, Epoch: 1}}); err != nil {
		t.Fatal(err)
	}
	env, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return env.Msg.(*msg.ReplicateBatch).Versions
}

// TestReplicatedApplyRetention: after garbage collection the heap holds the
// live versions and the decoded batches they came in, not every batch that
// ever passed through — no fixed-size arena pinned by one survivor, no chain
// key pinning the frame that last mentioned it. Every batch carries three
// writes to hot keys, soon superseded, and one to a cold key that survives
// until its turn comes round again, so each survivor sits in a batch of its
// own.
func TestReplicatedApplyRetention(t *testing.T) {
	const (
		batches  = 10000
		batchLen = 4
		keys     = 64
	)
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heapInuse()

	var stream bytes.Buffer
	enc, dec := wire.NewBinaryEncoder(&stream), wire.NewBinaryDecoder(&stream)
	store := New()
	batch := func(i int) []*item.Version {
		vs := testVersions(i*batchLen, batchLen, batchLen) // hot keys 1..3
		vs[0].Key = fmt.Sprintf("cold-%06d", i%keys)
		return replicate(t, enc, dec, vs)
	}
	gv := vclock.VC{1 << 62, 1 << 62, 1 << 62}
	for i := 0; i < batches; i++ {
		store.InsertBatch(batch(i))
		if i%100 == 0 {
			store.CollectGarbage(gv)
		}
	}
	store.CollectGarbage(gv)
	after := heapInuse()

	const live = keys + batchLen - 1
	if st := store.Stats(); st.Versions != live {
		t.Fatalf("store holds %d versions after GC, want %d", st.Versions, live)
	}
	// A live version is ~200 bytes of struct, key, value and vector and keeps
	// its batch of four reachable. Allow that four times over for span
	// granularity, plus 64 KB for the engine's 64 shard tables and the
	// codec's buffers; the fixed-chunk arena held 27 KB per survivor, 1.8 MB.
	const limit = 4*(live*batchLen*200) + 64<<10
	if grown := int64(after) - int64(before); grown > limit {
		t.Fatalf("heap in use grew by %d bytes over %d replicated batches, want <= %d", grown, batches, limit)
	}
	runtime.KeepAlive(store)
}

// TestChainCellRetention: once garbage collection has pruned a version from
// its chain, nothing may keep it reachable — neither the tail a key's first
// update makes nor, once a third older version spills the tail out of its
// inline pair, the pair it left.
func TestChainCellRetention(t *testing.T) {
	for _, n := range []int{2, 4} { // versions 1..n of one key, pruned to the head
		s := New()
		var gone []weak.Pointer[item.Version]
		for ts := 1; ts <= n; ts++ {
			ver := v("k", vclock.Timestamp(ts), 0)
			if ts < n {
				gone = append(gone, weak.Make(ver))
			}
			s.Insert(ver)
		}
		if got := s.CollectGarbage(vclock.VC{vclock.Timestamp(n)}); got != n-1 {
			t.Fatalf("CollectGarbage removed %d of %d versions, want %d (all but the head)", got, n, n-1)
		}
		runtime.GC()
		for i, w := range gone {
			if w.Value() != nil {
				t.Fatalf("pruned version %d of %d is still reachable: its chain's storage keeps it", i+1, n)
			}
		}
		runtime.KeepAlive(s)
	}
}

// TestMemLoadAllocs: loading keys of one version each — what the loader does
// to every engine — costs a shard its table growth and nothing per key: one
// array of two-word slots, made at 8 and quadrupled, one allocation a growth.
func TestMemLoadAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const keys = 4096
	vs := testVersions(0, keys, keys)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New()
	for _, ver := range vs {
		s.Insert(ver)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	bytesPerKey := float64(after.TotalAlloc-before.TotalAlloc) / keys
	allocsPerKey := float64(after.Mallocs-before.Mallocs) / keys
	t.Logf("%.1f B and %.3f allocations per key", bytesPerKey, allocsPerKey)
	if bytesPerKey > 56 || allocsPerKey >= 0.08 {
		t.Fatalf("loading %d keys allocates %.1f B and %.3f times per key, want <= 56 B and < 0.08", keys, bytesPerKey, allocsPerKey)
	}
}
