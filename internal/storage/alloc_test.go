package storage

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
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

// TestDurableInsertAllocs: logging a local write costs no allocation on top
// of the in-memory insert — the record is encoded into pooled scratch and the
// log copies it into its staging buffer.
func TestDurableInsertAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool sheds items)")
	}
	const runs = 2000
	perInsert := func(e Engine) float64 {
		vs := testVersions(0, runs+1, 64)
		i := 0
		return testing.AllocsPerRun(runs, func() {
			e.Insert(vs[i])
			i++
		})
	}
	dur, err := OpenDurable(t.TempDir(), DurableOptions{AckMode: AckGrouped, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if mem, d := perInsert(New()), perInsert(dur); d > mem {
		t.Fatalf("Durable.Insert allocates %v times per call, Mem.Insert %v: the log append must add none", d, mem)
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
		t.Skip("allocation counts are not meaningful under -race (sync.Pool sheds items)")
	}
	const runs, batchLen = 500, 4
	perBatch := func(e Engine) float64 {
		vs := testVersions(0, (runs+1)*batchLen, 64)
		i := 0
		return testing.AllocsPerRun(runs, func() {
			e.InsertBatch(vs[i : i+batchLen])
			i += batchLen
		})
	}
	dur, err := OpenDurable(t.TempDir(), DurableOptions{AckMode: AckGrouped, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	if mem, d := perBatch(New()), perBatch(dur); d > mem {
		t.Fatalf("Durable.InsertBatch allocates %v times per batch, Mem.InsertBatch %v: the log append must add none", d, mem)
	}
	if err := dur.Err(); err != nil {
		t.Fatal(err)
	}
}

// replicate runs vs through the wire as one ReplicateBatch and returns the
// receiver's decoded copy, as a tcpnet read loop would hand it to the apply
// path.
func replicate(t testing.TB, enc *wire.BinaryEncoder, dec *wire.BinaryDecoder, vs []*item.Version) []*item.Version {
	t.Helper()
	hb := vs[len(vs)-1].UpdateTime
	if err := enc.Encode(wire.Envelope{Src: netemu.NodeID{DC: 1}, Msg: msg.ReplicateBatch{Versions: vs, HBTime: hb, Epoch: 1}}); err != nil {
		t.Fatal(err)
	}
	env, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return env.Msg.(msg.ReplicateBatch).Versions
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
	// granularity, plus 64 KB for the empty engine (64 shard maps) and the
	// codec's buffers; the fixed-chunk arena held 27 KB per survivor, 1.8 MB.
	const limit = 4*(live*batchLen*200) + 64<<10
	if grown := int64(after) - int64(before); grown > limit {
		t.Fatalf("heap in use grew by %d bytes over %d replicated batches, want <= %d", grown, batches, limit)
	}
	runtime.KeepAlive(store)
}

// TestChainCellRetention: a key's first chain is a cell of its shard's block,
// and the block outlives the chain that moves out of it. Once a second
// version has moved the chain and garbage collection has pruned the first,
// nothing may keep the first version reachable — its old cell included.
func TestChainCellRetention(t *testing.T) {
	s := New()
	first := v("k", 1, 0)
	gone := weak.Make(first)
	s.Insert(first)
	s.Insert(v("k", 2, 0))
	if n := s.CollectGarbage(vclock.VC{2}); n != 1 {
		t.Fatalf("CollectGarbage removed %d versions, want 1 (the first)", n)
	}
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("the pruned first version is still reachable: its chain cell keeps it")
	}
	runtime.KeepAlive(s)
}
