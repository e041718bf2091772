package cluster

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/racedetect"
	"repro/internal/vclock"
)

// TestROTxCoordinatorAllocs is the structural guard of the RO-TX path: one
// key on each of 4 partitions, every snapshot already covered (no heartbeat
// ever moves a version vector here), so all four slices are read on arrival
// and the count is exact. What a transaction allocates is what only its
// caller keeps, when the caller asks for a fresh slice: the result (1;
// TestROTxAppendAllocs fills a reused one and allocates nothing). A request with its keys and its copy of the
// snapshot vector, a reply with its items, the fan-in state with its snapshot
// vector and per-partition request scratch, and the netemu queues are all
// pooled or reused; requests and replies travel as pointers. (4 before: the
// grouped key array, the snapshot vector and the request array, shared with
// requests that could outlive the transaction; 12 before that, 31 before
// that.)
func TestROTxCoordinatorAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := newCluster(t, Config{
		NumDCs: 1, NumPartitions: 4, Engine: POCC,
		HeartbeatInterval: time.Hour,
		Seed:              1,
	})
	tbl := keyspace.Build(4, 1)
	c.SeedTable(tbl)
	keys := []string{tbl.Key(0, 0), tbl.Key(1, 0), tbl.Key(2, 0), tbl.Key(3, 0)}
	coord, rdv := c.Server(0, 0), vclock.New(1)
	tx := func() {
		items, err := coord.ROTx(keys, rdv, core.Optimistic, c.PartitionOf)
		if err != nil || len(items) != len(keys) {
			t.Fatalf("ROTx = %d items, %v", len(items), err)
		}
	}
	for i := 0; i < 100; i++ {
		tx() // warm-up: pooled fan-in state, link queues
	}
	if n := testing.AllocsPerRun(1000, tx); n != 1 {
		t.Fatalf("a 4-partition RO-TX allocates %v times, want 1 (the result)", n)
	}
}

// TestROTxAppendAllocs: the same 4-partition RO-TX gathered into a reply
// buffer the caller keeps from one transaction to the next, as a client
// session does, allocates nothing at all.
func TestROTxAppendAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := newCluster(t, Config{
		NumDCs: 1, NumPartitions: 4, Engine: POCC,
		HeartbeatInterval: time.Hour,
		Seed:              1,
	})
	tbl := keyspace.Build(4, 1)
	c.SeedTable(tbl)
	keys := []string{tbl.Key(0, 0), tbl.Key(1, 0), tbl.Key(2, 0), tbl.Key(3, 0)}
	coord, rdv := c.Server(0, 0), vclock.New(1)
	var dst []msg.ItemReply
	tx := func() {
		items, err := coord.ROTxAppend(dst, keys, rdv, core.Optimistic, c.PartitionOf)
		if err != nil || len(items) != len(keys) {
			t.Fatalf("ROTxAppend = %d items, %v", len(items), err)
		}
		dst = items
	}
	for i := 0; i < 100; i++ {
		tx() // warm-up: the buffer, pooled fan-in state, link queues
	}
	if n := testing.AllocsPerRun(1000, tx); n != 0 {
		t.Fatalf("a 4-partition RO-TX into a warmed buffer allocates %v times, want 0", n)
	}
}

// TestSeedAllocs: the loader carves its versions 64 to a slab array and
// copies values into shared 4 KiB chunks, so a key costs less than one
// allocation whatever the number of DCs: a DC adds only its engine's
// slot-table growth, well under one allocation per key (it added a version
// and a chain slice, two per key, when every DC got a version of its own).
func TestSeedAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	value := []byte("00000000")
	perKey := func(dcs int) float64 {
		c := newCluster(t, Config{
			NumDCs: dcs, NumPartitions: 1, Engine: POCC,
			HeartbeatInterval: time.Hour,
			Seed:              1,
		})
		keys := keyspace.Build(1, 4096).AllKeys(0)
		i := 0
		return testing.AllocsPerRun(len(keys)-1, func() {
			c.Seed(keys[i], value)
			i++
		})
	}
	one, three := perKey(1), perKey(3)
	if one >= 1 {
		t.Fatalf("Seed allocates %.2f times per key at 1 DC, want less than one", one)
	}
	if three-one >= 1 {
		t.Fatalf("Seed allocates %.2f times per key at 3 DCs, %.2f at 1: a DC must add less than one", three, one)
	}
}

// TestSeedRetention: once the keys it loaded are overwritten and pruned, the
// loader's slabs and value chunks are released — the last of each included,
// which the loader must not keep once it is spent. The price it states holds
// too: a seeded version that is still referenced keeps its slab reachable,
// neighbours included.
func TestSeedRetention(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 1, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Hour,
		Seed:              1,
	})
	keys := keyspace.Build(1, 4096).AllKeys(0)
	for _, k := range keys {
		c.Seed(k, []byte("00000000"))
	}
	store := c.Server(0, 0).Store()
	slabOf := func(v *item.Version) int { return int(v.UpdateTime-1) / seedCarve }

	kept := store.Head(keys[100])
	var gone, shared []weak.Pointer[item.Version]
	for _, k := range keys {
		v := store.Head(k)
		if i := int(v.UpdateTime-1) % seedCarve; i != 0 && i != seedCarve-1 {
			continue // a slab's first and last version stand for it
		}
		if slabOf(v) == slabOf(kept) {
			shared = append(shared, weak.Make(v))
		} else {
			gone = append(gone, weak.Make(v))
		}
	}
	lastChunk := weak.Make(&store.Head(keys[len(keys)-1]).Value[0])

	for i, k := range keys {
		v := item.New(len(kept.Deps), k, nil)
		v.UpdateTime = vclock.Timestamp(1<<40 + i)
		store.Insert(v)
	}
	if removed := store.CollectGarbage(make(vclock.VC, len(kept.Deps))); removed != len(keys) {
		t.Fatalf("CollectGarbage removed %d versions, want %d (every seeded one)", removed, len(keys))
	}
	runtime.GC()
	for _, w := range gone {
		if w.Value() != nil {
			t.Fatalf("seeded version %q is reachable after being pruned: its slab is kept", w.Value().Key)
		}
	}
	if lastChunk.Value() != nil {
		t.Fatal("the last value chunk is reachable after every value in it was pruned")
	}
	for _, w := range shared {
		if w.Value() == nil {
			t.Fatal("a pruned version sharing a live version's slab was collected: the stated retention price no longer holds")
		}
	}
	runtime.KeepAlive(kept)
}
