package keyspace

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPartitionOfStable(t *testing.T) {
	a := PartitionOf("user:42", 32)
	for i := 0; i < 10; i++ {
		if PartitionOf("user:42", 32) != a {
			t.Fatal("PartitionOf must be deterministic")
		}
	}
}

func TestPartitionOfInRange(t *testing.T) {
	f := func(key string, nRaw uint8) bool {
		n := 1 + int(nRaw%64)
		p := PartitionOf(key, n)
		return p >= 0 && p < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOfSpreads(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	const total = 8000
	for i := 0; i < total; i++ {
		counts[PartitionOf(fmt.Sprintf("key-%d", i), n)]++
	}
	for p, c := range counts {
		// Expect roughly total/n per partition; allow a wide band.
		if c < total/n/2 || c > total/n*2 {
			t.Fatalf("partition %d received %d keys, want ~%d", p, c, total/n)
		}
	}
}

func TestBuildShape(t *testing.T) {
	tbl := Build(4, 100)
	if tbl.Partitions() != 4 {
		t.Fatalf("Partitions = %d", tbl.Partitions())
	}
	if tbl.KeysPerPartition() != 100 {
		t.Fatalf("KeysPerPartition = %d", tbl.KeysPerPartition())
	}
	seen := map[string]bool{}
	for p := 0; p < 4; p++ {
		keys := tbl.AllKeys(p)
		if len(keys) != 100 {
			t.Fatalf("partition %d has %d keys", p, len(keys))
		}
		for _, k := range keys {
			if PartitionOf(k, 4) != p {
				t.Fatalf("key %q bucketed into wrong partition", k)
			}
			if seen[k] {
				t.Fatalf("key %q appears twice", k)
			}
			seen[k] = true
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(3, 50), Build(3, 50)
	for p := 0; p < 3; p++ {
		for r := 0; r < 50; r++ {
			if a.Key(p, r) != b.Key(p, r) {
				t.Fatal("Build must be deterministic")
			}
		}
	}
}

// Build panics, naming the bound, on a shape no table can have, instead of
// looping forever: a partition beyond the slot universe owns no slot, and a
// partition of no keys is never full.
func TestBuildRejectsImpossibleShapes(t *testing.T) {
	for _, c := range []struct {
		n, per int
		bound  string
	}{
		{NumSlots + 1, 1, "n <= 256"}, {300, 1, "n <= 256"}, {0, 1, "1 <= n"},
		{4, 0, "perPartition >= 1"}, {4, -1, "perPartition >= 1"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.bound) {
					t.Errorf("Build(%d, %d) panicked with %q, want a message naming %q", c.n, c.per, msg, c.bound)
				}
			}()
			Build(c.n, c.per)
		}()
	}
	if tbl := Build(NumSlots, 1); tbl.Partitions() != NumSlots {
		t.Fatalf("Build(%d, 1) has %d partitions", NumSlots, tbl.Partitions())
	}
}

func TestAllKeysIsACopy(t *testing.T) {
	tbl := Build(2, 10)
	keys := tbl.AllKeys(0)
	keys[0] = "mutated"
	if tbl.Key(0, 0) == "mutated" {
		t.Fatal("AllKeys must return a copy")
	}
}

// --- Slot table ---

// One layout: PartitionOf is the epoch-0 table without the table, for every
// partition count a deployment may have, and that table spreads the slots
// evenly whether or not n divides NumSlots.
func TestSlotLayoutIsPartitionOf(t *testing.T) {
	for n := 1; n <= NumSlots; n++ {
		m := DefaultMap(n)
		if err := m.Validate(); err != nil {
			t.Fatalf("DefaultMap(%d): %v", n, err)
		}
		f := func(key string) bool { return PartitionOf(key, n) == m.OwnerOf(key) }
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lo, hi := NumSlots, 0
		for p := 0; p < n; p++ {
			c := len(m.SlotsOwnedBy(p))
			lo, hi = min(lo, c), max(hi, c)
		}
		if hi-lo > 1 {
			t.Fatalf("DefaultMap(%d): partitions own between %d and %d slots", n, lo, hi)
		}
	}
}

// The bench module's key tables (bench/ calls Build(4, …)) must not move:
// these are Build(4, 2)'s keys as the hash%N layout placed them before the
// slot table became the only layout.
func TestSlotLayoutKeepsBuildGolden(t *testing.T) {
	want := [][]string{{"k2", "k6"}, {"k1", "k5"}, {"k0", "k4"}, {"k3", "k7"}}
	tbl := Build(4, 2)
	for p := range want {
		if got := tbl.AllKeys(p); !slices.Equal(got, want[p]) {
			t.Fatalf("Build(4, 2) partition %d = %q, want %q", p, got, want[p])
		}
	}
}

func TestSlotOfInRange(t *testing.T) {
	f := func(key string) bool {
		s := SlotOf(key)
		return s >= 0 && s < NumSlots
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// randomMap builds an arbitrary-but-valid SlotMap from fuzz bytes.
func randomMap(owners [NumSlots]uint8, stamps [NumSlots]uint8, parts uint8, epoch uint8) *SlotMap {
	m := &SlotMap{Parts: 1 + int(parts)%NumSlots}
	m.Epoch = uint64(epoch)
	for s := 0; s < NumSlots; s++ {
		m.Owner[s] = uint8(int(owners[s]) % m.Parts)
		st := uint64(stamps[s])
		if st > m.Epoch {
			st = m.Epoch
		}
		m.Stamp[s] = st
	}
	return m
}

// Every key maps to exactly one owner at every epoch, and that owner is a
// real partition: the ISSUE's "never orphan or double-own" property. Owner
// is a total function (array lookup), so orphan/double-own can only appear
// as an out-of-range or divergent post-merge assignment.
func TestSlotMapMergeNeverOrphans(t *testing.T) {
	f := func(ao, as [NumSlots]uint8, ap, ae uint8, bo, bs [NumSlots]uint8, bp, be uint8) bool {
		a := randomMap(ao, as, ap, ae)
		b := randomMap(bo, bs, bp, be)
		ab := a.Clone()
		ab.Merge(b)
		if err := ab.Validate(); err != nil {
			return false
		}
		// Commutativity: merging in the other order yields the same map.
		ba := b.Clone()
		ba.Merge(a)
		if *ab != *ba {
			return false
		}
		// Idempotence: merging again changes nothing.
		if ab.Merge(b) || ab.Merge(a) {
			return false
		}
		// Single ownership at the merged epoch: every slot has exactly one
		// in-range owner.
		for s := 0; s < NumSlots; s++ {
			if int(ab.Owner[s]) >= ab.Parts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotMapMergeMonotone(t *testing.T) {
	// A merged map never loses a slot movement: higher stamps survive.
	f := func(ao, as [NumSlots]uint8, ap, ae uint8, bo, bs [NumSlots]uint8, bp, be uint8) bool {
		a := randomMap(ao, as, ap, ae)
		b := randomMap(bo, bs, bp, be)
		ab := a.Clone()
		ab.Merge(b)
		for s := 0; s < NumSlots; s++ {
			if ab.Stamp[s] < a.Stamp[s] || ab.Stamp[s] < b.Stamp[s] {
				return false
			}
		}
		return ab.Epoch >= a.Epoch && ab.Epoch >= b.Epoch && ab.Parts >= a.Parts && ab.Parts >= b.Parts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveSlots(t *testing.T) {
	m := DefaultMap(2)
	moved, err := m.MoveSlots([]int{0, 2, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Epoch != 1 || moved.Parts != 3 {
		t.Fatalf("epoch=%d parts=%d, want 1/3", moved.Epoch, moved.Parts)
	}
	for _, s := range []int{0, 2, 4} {
		if moved.Owner[s] != 2 || moved.Stamp[s] != 1 {
			t.Fatalf("slot %d owner=%d stamp=%d", s, moved.Owner[s], moved.Stamp[s])
		}
	}
	if moved.Owner[1] != m.Owner[1] || moved.Stamp[1] != 0 {
		t.Fatal("untouched slot changed")
	}
	if m.Epoch != 0 {
		t.Fatal("MoveSlots mutated the receiver")
	}
	// A stale holder of m that merges `moved` adopts every movement.
	stale := m.Clone()
	if !stale.Merge(moved) {
		t.Fatal("merge of a newer map must report change")
	}
	if *stale != *moved {
		t.Fatal("merge must converge to the moved map")
	}
	if _, err := m.MoveSlots([]int{-1}, 0); err == nil {
		t.Fatal("negative slot must be rejected")
	}
	if _, err := m.MoveSlots([]int{0}, NumSlots); err == nil {
		t.Fatal("out-of-range target must be rejected")
	}
}

func TestSlotMapValidate(t *testing.T) {
	m := DefaultMap(4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m.Clone()
	bad.Owner[7] = 200 // only 4 partitions
	if bad.Validate() == nil {
		t.Fatal("out-of-range owner must fail validation")
	}
	bad = m.Clone()
	bad.Stamp[3] = 9 // past epoch 0
	if bad.Validate() == nil {
		t.Fatal("stamp past epoch must fail validation")
	}
	bad = m.Clone()
	bad.Parts = 0
	if bad.Validate() == nil {
		t.Fatal("zero partitions must fail validation")
	}
}

// BenchmarkSlotRouting guards the routing half of the GET hot path: hashing
// a key to its slot and resolving the owner must not allocate.
func BenchmarkSlotRouting(b *testing.B) {
	m := DefaultMap(4)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%d:profile", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += m.OwnerOf(keys[i&63])
	}
	_ = sink
}
