package item

import (
	"testing"

	"repro/internal/racedetect"
)

func TestNewerByTimestamp(t *testing.T) {
	a := &Version{UpdateTime: 10, SrcReplica: 2}
	b := &Version{UpdateTime: 5, SrcReplica: 0}
	if !a.Newer(b) || b.Newer(a) {
		t.Fatal("higher update time must win")
	}
}

func TestNewerTieBreaksOnLowestReplica(t *testing.T) {
	a := &Version{UpdateTime: 10, SrcReplica: 0}
	b := &Version{UpdateTime: 10, SrcReplica: 2}
	if !a.Newer(b) {
		t.Fatal("on a timestamp tie the lowest source replica must win")
	}
	if b.Newer(a) {
		t.Fatal("LWW order must be antisymmetric")
	}
}

func TestNewerIsTotalOnDistinctVersions(t *testing.T) {
	vs := []*Version{
		{UpdateTime: 1, SrcReplica: 0},
		{UpdateTime: 1, SrcReplica: 1},
		{UpdateTime: 2, SrcReplica: 0},
	}
	for i, a := range vs {
		for j, b := range vs {
			if i == j {
				continue
			}
			if a.Newer(b) == b.Newer(a) {
				t.Fatalf("versions %d and %d are not totally ordered", i, j)
			}
		}
	}
}

func TestSame(t *testing.T) {
	a := &Version{Key: "x", UpdateTime: 7, SrcReplica: 1}
	b := &Version{Key: "x", UpdateTime: 7, SrcReplica: 1, Value: []byte("different")}
	if !a.Same(b) {
		t.Fatal("same (ut, sr) must be the same version")
	}
	c := &Version{UpdateTime: 7, SrcReplica: 2}
	if a.Same(c) {
		t.Fatal("different source replicas are different versions")
	}
}

// TestNewDepsExactlySized: at every class boundary Deps has len == cap == n,
// so an append on one version's Deps reallocates instead of writing into the
// record's spare entries or a slab neighbour.
func TestNewDepsExactlySized(t *testing.T) {
	largest := len(rec16{}.deps)
	for _, n := range []int{0, 1, 4, 5, 8, 9, largest, largest + 1} {
		v := New(n)
		if v.Deps == nil || len(v.Deps) != n || cap(v.Deps) != n {
			t.Fatalf("New(%d): Deps nil=%v len=%d cap=%d, want non-nil, len == cap == %d",
				n, v.Deps == nil, len(v.Deps), cap(v.Deps), n)
		}
		if v.Key != "" || v.Value != nil || v.SrcReplica != 0 || v.UpdateTime != 0 || v.Optimistic {
			t.Fatalf("New(%d) is not zeroed: %+v", n, v)
		}
	}
}

func TestSlabRecordsHoldDistinctVectors(t *testing.T) {
	var s Slab
	a, b := s.Take(3, 2), s.Take(3, 2)
	for i := range a.Deps {
		a.Deps[i] = 7
	}
	a.Deps = append(a.Deps, 8)
	for i, d := range b.Deps {
		if d != 0 {
			t.Fatalf("neighbour's Deps[%d] = %d after writing and appending to the first record's", i, d)
		}
	}
	if len(s.r4) != 0 {
		t.Fatalf("slab made for 2 records has %d left after 2", len(s.r4))
	}
	// A record of another class gets an array of its own.
	if c := s.Take(9, 1); len(c.Deps) != 9 || len(s.r4) != 0 {
		t.Fatalf("Take(9) after a class-4 slab: len(Deps) = %d, class-4 records left = %d", len(c.Deps), len(s.r4))
	}
}

// TestNewAllocs: a version and its vector are one object up to the largest
// size class, struct and vector beyond it.
func TestNewAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	largest := len(rec16{}.deps)
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 1}, {3, 1}, {5, 1}, {largest, 1}, {largest + 1, 2}} {
		if got := testing.AllocsPerRun(200, func() { sink = New(c.n) }); got != c.want {
			t.Errorf("New(%d) allocates %v objects, want %v", c.n, got, c.want)
		}
	}
}

var sink *Version

// TestChunkCopy: values up to chunkMaxValue are carved back to back from one
// chunk, each with cap == len, and a full chunk is let go; a larger value, an
// empty one and anything a nil *Chunk copies get an exact allocation.
func TestChunkCopy(t *testing.T) {
	var c Chunk
	a, b := c.Copy([]byte("abc")), c.Copy([]byte("de"))
	if string(a) != "abc" || string(b) != "de" || cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("carved %q (cap %d) and %q (cap %d)", a, cap(a), b, cap(b))
	}
	if &c.b[0] != &a[0] || &c.b[3] != &b[0] {
		t.Fatal("two small values were not carved back to back")
	}
	if v := c.Copy(make([]byte, chunkMaxValue+1)); cap(v) != chunkMaxValue+1 || len(c.b) != 5 {
		t.Fatal("a value over chunkMaxValue was carved")
	}
	var none *Chunk
	if v := none.Copy([]byte("xyz")); string(v) != "xyz" || cap(v) != 3 {
		t.Fatalf("a nil chunk copied %q with cap %d", v, cap(v))
	}
	if v := c.Copy(nil); v == nil || len(v) != 0 || len(c.b) != 5 {
		t.Fatalf("an empty copy is %#v, want non-nil, empty and not carved", v)
	}
	c = Chunk{}
	for i := 0; i < chunkSize/chunkMaxValue; i++ {
		c.Copy(make([]byte, chunkMaxValue))
	}
	if c.b != nil {
		t.Fatal("a full chunk is kept")
	}
	if n := testing.AllocsPerRun(100, func() { c.Copy([]byte("12345678")) }); n != 0 && !racedetect.Enabled {
		t.Fatalf("Copy of 8 bytes allocates %v times on average, want 0 (a chunk's share)", n)
	}
}
