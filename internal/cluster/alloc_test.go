package cluster

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/racedetect"
	"repro/internal/vclock"
)

// TestROTxCoordinatorAllocs is the structural guard of the RO-TX path: one
// key on each of 4 partitions, every snapshot already covered (no heartbeat
// ever moves a version vector here), so all four slices are read on arrival
// and the count is exact. What a transaction allocates is what only its
// caller keeps: the result (1). A request with its keys and its copy of the
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
	c := NewTestCluster(t, Topology{DCs: 1, Partitions: 4}, WithHeartbeat(time.Hour))
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

// TestSeedAllocs: the loader makes one version and one value copy per key,
// whatever the number of DCs. A DC adds only its engine's head-table growth,
// well under one allocation per key (it added a version and a chain slice,
// two per key, when every DC got a version of its own).
func TestSeedAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	value := []byte("00000000")
	perKey := func(dcs int) float64 {
		c := NewTestCluster(t, Topology{DCs: dcs, Partitions: 1}, WithHeartbeat(time.Hour))
		keys := keyspace.Build(1, 4096).AllKeys(0)
		i := 0
		return testing.AllocsPerRun(len(keys)-1, func() {
			c.Seed(keys[i], value)
			i++
		})
	}
	if one, three := perKey(1), perKey(3); three-one >= 1 {
		t.Fatalf("Seed allocates %.2f times per key at 3 DCs, %.2f at 1: a DC must add less than one", three, one)
	}
}
