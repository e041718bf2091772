// Package item defines the versioned data-item metadata of the protocols.
// A version d is the tuple ⟨k, v, sr, ut, dv⟩ of the paper (§IV-A): key,
// value, source replica (the DC where the PUT was executed), update time (the
// physical timestamp assigned at the source replica) and dependency vector
// (one entry per DC, tracking potential causal dependencies).
//
// New and Slab are where a version is born — a PUT (New), a decoded replica
// or the loader (carved from a Slab; the loader's version is shared by every
// DC's chain), a WAL replay — so that the tuple is one heap object; outside
// tests no other package writes a Version literal (`make vet` greps for one).
// A PUT's version holds its own key and value too: New copies them into the
// record, so the caller's bytes are only borrowed, and a value read back
// keeps its record (at most 192 B) reachable, nothing else.
// Chunk is Slab's twin for values: it carves small byte values out of shared
// chunks, for the loader and for the client pool's decoded responses.
package item

import (
	"unsafe"

	"repro/internal/vclock"
)

// Version is one immutable version of a data item. Versions are never
// mutated after creation, so they can be shared across goroutines and DCs
// without copying.
type Version struct {
	Key        string
	Value      []byte
	SrcReplica int
	UpdateTime vclock.Timestamp
	Deps       vclock.VC
	// Optimistic marks versions written by optimistic sessions. HA-POCC
	// exposes such local items to pessimistic (fallback) sessions only once
	// they are stable, because they may depend on remote items that have not
	// been replicated yet (§IV-C).
	Optimistic bool
}

// A fused record: a Version followed by the array its Deps slices, in one
// allocation. The lengths are the closed set of size classes; a longer vector
// is allocated beside its struct.
type (
	rec4 struct {
		Version
		deps [4]vclock.Timestamp
	}
	rec8 struct {
		Version
		deps [8]vclock.Timestamp
	}
	rec16 struct {
		Version
		deps [16]vclock.Timestamp
	}
)

// version points r's Deps at its own first n entries and returns it.
func (r *rec4) version(n int) *Version {
	r.Deps = r.deps[:n:n]
	return &r.Version
}

// A put record: a class-4 record followed by the payload its Key and Value
// point into, in one allocation. The payload classes are the two shapes the
// traffic has — a short key with an 8 B value fits 24, with a 64 B value 72 —
// and make records of 144 and 192 B, Go size classes both, so no record
// rounds up. A larger payload takes a class-4 record plus an exact copy: the
// next fused class (256 B) would cost more heap than that pair for most of
// its range, and no workload sends such a payload.
type (
	put24 struct {
		rec4
		b [24]byte
	}
	put72 struct {
		rec4
		b [72]byte
	}
)

// New returns the version a PUT makes: key and value are copied into it, so
// the caller may reuse both as soon as New returns, and its n-entry Deps
// (len == cap == n) is zeroed. A vector of up to 4 entries and key plus value
// of up to 72 B are one allocation; a larger payload or a wider vector gets
// one exact allocation beside the record (two, a vector over 16 entries). A
// nil value is stored as an empty one, since a nil payload reads back as "no
// such key"; Value always has len == cap.
func New(n int, key string, value []byte) *Version {
	p := len(key) + len(value)
	var v *Version
	var b []byte
	switch {
	case n > len(rec4{}.deps) || p > len(put72{}.b):
		var s Slab
		v, b = s.Take(n, 1), make([]byte, p)
	case p <= len(put24{}.b):
		r := new(put24)
		v, b = r.version(n), r.b[:p]
	default:
		r := new(put72)
		v, b = r.version(n), r.b[:p]
	}
	copy(b[copy(b, key):], value)
	if key != "" {
		v.Key = unsafe.String(&b[0], len(key))
	}
	v.Value = b[len(key):p:p]
	return v
}

// Slab carves the versions of one decoded list out of one array per size
// class instead of one allocation each. The zero value is ready; a version
// keeps its slab's array reachable, neighbours included.
type Slab struct {
	r4  []rec4
	r8  []rec8
	r16 []rec16
}

// Take returns a zeroed version whose n-entry Deps (len == cap == n) shares
// the version's record. When the array of n's class is used up (or not made
// yet) it makes one of c records, c being the caller's bound on the versions
// of that class still to come.
func (s *Slab) Take(n, c int) *Version {
	switch {
	case n <= len(rec4{}.deps):
		return carve(&s.r4, c).version(n)
	case n <= len(rec8{}.deps):
		r := carve(&s.r8, c)
		r.Deps = r.deps[:n:n]
		return &r.Version
	case n <= len(rec16{}.deps):
		r := carve(&s.r16, c)
		r.Deps = r.deps[:n:n]
		return &r.Version
	}
	return &Version{Deps: make(vclock.VC, n)}
}

func carve[R any](s *[]R, c int) *R {
	if len(*s) == 0 {
		*s = make([]R, c)
	}
	r := &(*s)[0]
	*s = (*s)[1:]
	return r
}

// Chunk carves small byte values out of shared 4 KiB chunks instead of one
// allocation each. The zero value is ready; a nil *Chunk copies exactly. The
// price is Slab's: a carved value keeps its whole chunk reachable,
// neighbours included, so a chunk is dropped once full and a value over
// chunkMaxValue gets an allocation of its own, neither wasting a chunk nor
// sharing one.
type Chunk struct{ b []byte }

const chunkSize, chunkMaxValue = 4 << 10, 512

// Copy returns a copy of b (never nil) with cap == len, so an append to it
// copies and never spills into a neighbour.
func (c *Chunk) Copy(b []byte) []byte {
	if c == nil || len(b) == 0 || len(b) > chunkMaxValue {
		return append(make([]byte, 0, len(b)), b...)
	}
	if len(b) > cap(c.b)-len(c.b) {
		c.b = make([]byte, 0, chunkSize)
	}
	n := len(c.b)
	c.b = append(c.b, b...)
	out := c.b[n:len(c.b):len(c.b)]
	if len(c.b) == cap(c.b) {
		c.b = nil // full: its values alone keep it reachable
	}
	return out
}

// Newer reports whether v is ordered after o by the last-writer-wins rule:
// higher update timestamp wins; ties are broken by the source replica id,
// lowest winning (§IV-B).
func (v *Version) Newer(o *Version) bool {
	if v.UpdateTime != o.UpdateTime {
		return v.UpdateTime > o.UpdateTime
	}
	return v.SrcReplica < o.SrcReplica
}

// Same reports whether v and o denote the same version (same origin and
// timestamp). Used to make replication idempotent.
func (v *Version) Same(o *Version) bool {
	return v.UpdateTime == o.UpdateTime && v.SrcReplica == o.SrcReplica
}
