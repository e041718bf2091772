// Package vclock implements the vector-clock metadata used throughout the
// POCC/Cure protocols: dependency vectors (DV), read-dependency vectors
// (RDV), server version vectors (VV), globally-stable snapshots (GSS) and
// garbage-collection vectors (GV).
//
// A vector has one entry per data center. Entries are physical timestamps
// (nanoseconds). The zero vector depends on nothing and is the identity of
// Max; it is ≤ every vector of the same length.
package vclock

import (
	"fmt"
	"strconv"
	"strings"
)

// Timestamp is a physical-clock timestamp in nanoseconds since an arbitrary
// per-process epoch. Timestamps from different nodes are comparable because
// node clocks are (loosely) synchronized; protocol correctness does not
// depend on the synchronization precision.
//
// Hybrid logical/physical clocks (clock.NewHLC) pack an HLC into the same
// 64 bits: the low LogicalBits carry the logical counter and the upper bits
// carry wall-clock nanoseconds truncated to a multiple of 1<<LogicalBits.
// A packed HLC value still reads as nanoseconds to within one logical tick
// (1.024 µs), so duration arithmetic on Timestamps — replication lag,
// heartbeat idling, WAL range indexes — is valid for both representations.
type Timestamp uint64

// LogicalBits is the width of the logical counter in a packed hybrid
// timestamp. 10 bits bound the counter at 1024 local events per 1.024 µs of
// frozen wall clock; past that the counter rolls into the physical component,
// which is exactly the HLC overflow rule for a bounded-drift clock.
const LogicalBits = 10

// LogicalMask selects the logical counter of a packed hybrid timestamp.
const LogicalMask Timestamp = 1<<LogicalBits - 1

// Physical returns the physical (wall-clock) component of a packed hybrid
// timestamp: nanoseconds truncated to the 1<<LogicalBits tick. For raw
// physical timestamps it is the same truncation and differs from t by less
// than 1.024 µs, so it is safe to call without knowing the representation.
func (t Timestamp) Physical() Timestamp { return t &^ LogicalMask }

// Logical returns the logical counter of a packed hybrid timestamp.
func (t Timestamp) Logical() uint64 { return uint64(t & LogicalMask) }

// VC is a vector clock with one Timestamp entry per data center.
type VC []Timestamp

// New returns a zero vector with n entries.
func New(n int) VC { return make(VC, n) }

// Len returns the number of entries.
func (v VC) Len() int { return len(v) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	if v == nil {
		return nil
	}
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Get returns entry i, or 0 beyond v's length: a nil vector is the zero
// vector, and a shorter one does not track the extra DCs (see MaxInPlace).
func (v VC) Get(i int) Timestamp {
	if i >= len(v) {
		return 0
	}
	return v[i]
}

// Set assigns entry i.
func (v VC) Set(i int, t Timestamp) { v[i] = t }

// MaxInPlace raises every entry of v to at least the corresponding entry of
// o. A nil o is treated as the zero vector. Entries of o beyond v's length
// are ignored: vectors of different lengths meet when deployments change
// size at runtime (a session minted before a DC joined reading a version
// written after), and the shorter vector simply does not track the extra
// data centers.
func (v VC) MaxInPlace(o VC) {
	n := len(o)
	if len(v) < n {
		n = len(v)
	}
	for i := 0; i < n; i++ {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// CopyFrom overwrites v with the entries of o, reusing v's storage when the
// lengths match, and returns the destination vector (reallocated only when
// the lengths differ, or nil when o is nil). It is the in-place counterpart
// of Clone for hot paths that snapshot a vector per operation.
func (v VC) CopyFrom(o VC) VC {
	if o == nil {
		return nil
	}
	if len(v) != len(o) {
		v = make(VC, len(o))
	}
	copy(v, o)
	return v
}

// MaxInto sets dst to the entry-wise maximum of a and b, reusing dst's
// storage when possible, and returns dst. dst may alias a or b. It is the
// in-place counterpart of Max for paths that would otherwise allocate a
// fresh vector per operation.
func MaxInto(dst, a, b VC) VC {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if len(dst) != n {
		dst = make(VC, n)
	}
	for i := range dst {
		var av, bv Timestamp
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if bv > av {
			av = bv
		}
		dst[i] = av
	}
	return dst
}

// MinInPlace lowers every entry of v to at most the corresponding entry of o.
// Entries of v beyond o's length are lowered to zero — o is conceptually
// zero there — so aggregate minima stay conservative when vectors of
// different lengths meet (see MaxInPlace).
func (v VC) MinInPlace(o VC) {
	for i := range v {
		var oi Timestamp
		if i < len(o) {
			oi = o[i]
		}
		if oi < v[i] {
			v[i] = oi
		}
	}
}

// GrowTo returns v widened to at least n entries (new entries zero). It
// returns v unchanged when it is already long enough, so callers resizing
// vectors across a membership change only pay on the first operation after
// the deployment grew.
func (v VC) GrowTo(n int) VC {
	if len(v) >= n {
		return v
	}
	out := make(VC, n)
	copy(out, v)
	return out
}

// Max returns the entry-wise maximum of a and b as a fresh vector.
func Max(a, b VC) VC {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(VC, n)
	copy(out, a)
	out.MaxInPlace(b)
	return out
}

// Min returns the entry-wise minimum of a and b as a fresh vector. Both
// vectors must have the same length.
func Min(a, b VC) VC {
	out := a.Clone()
	out.MinInPlace(b)
	return out
}

// LessEq reports whether v ≤ o entry-wise. A nil vector is the zero vector,
// so nil ≤ anything. Entries beyond o's length are compared against zero.
func (v VC) LessEq(o VC) bool {
	for i := range v {
		var oi Timestamp
		if i < len(o) {
			oi = o[i]
		}
		if v[i] > oi {
			return false
		}
	}
	return true
}

// Equal reports whether v and o have identical entries (and lengths).
func (v VC) Equal(o VC) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// MaxEntry returns the largest entry of v (0 for an empty or nil vector).
// Used by the PUT clock-wait condition (Algorithm 2, line 7).
func (v VC) MaxEntry() Timestamp {
	var m Timestamp
	for _, t := range v {
		if t > m {
			m = t
		}
	}
	return m
}

// String renders the vector as "[t0 t1 ...]" for logs and test failures.
func (v VC) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, t := range v {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.FormatUint(uint64(t), 10))
	}
	sb.WriteByte(']')
	return sb.String()
}

// AggregateMin returns the entry-wise minimum across vs. It panics if vs is
// empty; callers aggregate at least their own vector.
func AggregateMin(vs []VC) VC {
	if len(vs) == 0 {
		panic("vclock: AggregateMin of empty set")
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		out.MinInPlace(v)
	}
	return out
}

// Validate returns an error if v does not have exactly n entries.
func (v VC) Validate(n int) error {
	if len(v) != n {
		return fmt.Errorf("vclock: vector has %d entries, want %d", len(v), n)
	}
	return nil
}
