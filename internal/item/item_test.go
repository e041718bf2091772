package item

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/racedetect"
	"repro/internal/vclock"
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
// record's spare entries, its payload or a slab neighbour.
func TestNewDepsExactlySized(t *testing.T) {
	largest := len(rec16{}.deps)
	for _, n := range []int{0, 1, 4, 5, 8, 9, largest, largest + 1} {
		v := New(n, "", nil)
		if v.Deps == nil || len(v.Deps) != n || cap(v.Deps) != n {
			t.Fatalf("New(%d): Deps nil=%v len=%d cap=%d, want non-nil, len == cap == %d",
				n, v.Deps == nil, len(v.Deps), cap(v.Deps), n)
		}
		if v.Key != "" || len(v.Value) != 0 || v.SrcReplica != 0 || v.UpdateTime != 0 || v.Optimistic {
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

// payload returns p bytes of key and value, a 6-byte key (the length of the
// benchmark's) where p leaves room for one.
func payload(p int) (string, []byte) {
	k := min(p, 6)
	return "k12345"[:k], bytes.Repeat([]byte{'v'}, p-k)
}

// TestNewAllocs: a PUT's version — struct, vector, key and value — is one
// object up to the top byte of each payload class; one byte more, or a
// vector wider than the put records' 4 entries, adds one exact allocation
// beside the record, and a vector wider than the slab classes another.
func TestNewAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fused, largest := len(rec4{}.deps), len(rec16{}.deps)
	for _, c := range []struct {
		n, p int
		want float64
	}{
		{0, 0, 1}, {3, 14, 1}, {fused, len(put24{}.b), 1}, {fused, len(put72{}.b), 1},
		{fused, len(put72{}.b) + 1, 2}, {fused + 1, 14, 2}, {largest, 14, 2}, {largest + 1, 14, 3},
	} {
		key, value := payload(c.p)
		if got := testing.AllocsPerRun(200, func() { sink = New(c.n, key, value) }); got != c.want {
			t.Errorf("New(%d, %d B of key and value) allocates %v objects, want %v", c.n, c.p, got, c.want)
		}
	}
}

// TestNewAllocsBytesPerRecord: the benchmark's two payload shapes, a 6-byte
// key with an 8 or a 64 B value, cost no more heap than a front-door PUT's
// version (128 B) plus its detached copy of key and value (16 or 80 B) did:
// 144 and 192 B, the put24 and put72 records exactly. An in-process PUT used
// to keep its caller's key and clone only the value (128 + 8 or 64 B), so
// there the same shapes cost 8 B more per version than they did.
func TestNewAllocsBytesPerRecord(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	const n = 4096
	kept := make([]*Version, n)
	for _, c := range []struct {
		value int
		max   uint64
	}{{8, 144}, {64, 192}} {
		key, value := "own-42", make([]byte, c.value)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range kept {
			kept[i] = New(3, key, value)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / n; got > c.max {
			t.Errorf("New(3, %d B key, %d B value) costs %d B of heap per record, want <= %d", len(key), c.value, got, c.max)
		}
	}
	runtime.KeepAlive(kept)
}

// TestNewCopiesKeyAndValue: New borrows its key and value. A caller that
// clears both afterwards — a front-door PUT's key and value alias a frame the
// reader reuses — leaves every version intact; Value has len == cap, so an
// append to it cannot reach a neighbour; a nil value is stored as a non-nil
// empty one; an empty key stays empty. One case per record class.
func TestNewCopiesKeyAndValue(t *testing.T) {
	for _, c := range []struct{ n, p int }{
		{3, 0}, {3, 6}, {3, 14}, {3, 70}, {4, 72}, {4, 73}, {5, 14}, {17, 70},
	} {
		for _, nilValue := range []bool{false, true} {
			key, value := payload(c.p)
			if nilValue {
				value = nil
			}
			wantKey, wantValue := key, string(value)
			keyBuf := []byte(key)
			if key != "" {
				key = unsafe.String(&keyBuf[0], len(keyBuf)) // aliases keyBuf, as a decoded frame's key does
			}
			v := New(c.n, key, value)
			clear(keyBuf)
			clear(value)
			if v.Key != wantKey || string(v.Value) != wantValue {
				t.Fatalf("New(%d, %q, %q) reads %q, %q after the caller cleared its buffers", c.n, wantKey, wantValue, v.Key, v.Value)
			}
			if v.Value == nil || len(v.Value) != cap(v.Value) {
				t.Fatalf("New(%d, %q, %q): Value nil=%v len=%d cap=%d, want non-nil with len == cap",
					c.n, wantKey, wantValue, v.Value == nil, len(v.Value), cap(v.Value))
			}
		}
	}
}

// FuzzItemNew: any key, value and vector width round-trips through New; the
// version stays intact after the caller rewrites its buffers; and two
// versions made from the same inputs share no byte of key, value or vector.
func FuzzItemNew(f *testing.F) {
	f.Add([]byte("k12345"), []byte("12345678"), uint8(3))
	f.Add([]byte("own-42"), bytes.Repeat([]byte{'x'}, 64), uint8(4))
	f.Add([]byte{}, []byte{}, uint8(128))
	f.Add(bytes.Repeat([]byte{'k'}, 100), bytes.Repeat([]byte{'v'}, 37), uint8(17))
	f.Fuzz(func(t *testing.T, key, value []byte, n uint8) {
		width := int(n % 24)
		if len(value) == 0 && n >= 128 {
			value = nil
		}
		wantKey, wantValue := string(key), bytes.Clone(value)
		k := unsafe.String(unsafe.SliceData(key), len(key)) // aliases key
		a, b := New(width, k, value), New(width, k, value)
		for i := range key {
			key[i] ^= 0xFF
		}
		for i := range value {
			value[i] ^= 0xFF
		}
		check := func(what string, v *Version) {
			t.Helper()
			if v.Key != wantKey || !bytes.Equal(v.Value, wantValue) || v.Value == nil || len(v.Value) != cap(v.Value) {
				t.Fatalf("%s: New(%d, %q, %q) reads %q, %q (len %d, cap %d, nil %v)",
					what, width, wantKey, wantValue, v.Key, v.Value, len(v.Value), cap(v.Value), v.Value == nil)
			}
			if len(v.Deps) != width || cap(v.Deps) != width {
				t.Fatalf("%s: Deps len %d cap %d, want %d", what, len(v.Deps), cap(v.Deps), width)
			}
			for i, d := range v.Deps {
				if d != 0 {
					t.Fatalf("%s: Deps[%d] = %d, want 0", what, i, d)
				}
			}
		}
		check("after the caller rewrote its buffers", a)
		check("after the caller rewrote its buffers", b)
		for i := range a.Value {
			a.Value[i] ^= 0xFF
		}
		if a.Key != "" {
			clear(unsafe.Slice(unsafe.StringData(a.Key), len(a.Key)))
		}
		for i := range a.Deps {
			a.Deps[i] = ^vclock.Timestamp(0)
		}
		check("after its twin's bytes were rewritten", b)
	})
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
