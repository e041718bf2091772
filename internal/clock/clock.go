// Package clock provides the per-node clocks used by the POCC and Cure*
// protocols. Each node owns a Clock that yields monotonically increasing
// timestamps. Two flavours exist:
//
//   - New returns a raw physical clock: readings are wall nanoseconds plus a
//     fixed skew offset, emulating the loose NTP synchronization of the
//     paper's testbed. Protocol correctness is independent of the skew
//     (paper §IV), but the PUT clock-wait (Algorithm 2, line 7) is sensitive
//     to it, which the ablation benchmarks exercise.
//
//   - NewHLC returns a hybrid logical/physical clock (Okapi-style, PAPERS.md).
//     Readings pack wall nanoseconds truncated to 1<<vclock.LogicalBits ticks
//     with a logical counter in the low bits, and the clock absorbs every
//     remote timestamp it Observes: a reading is max(masked wall, last+1),
//     which is exactly the HLC local-event rule with logical overflow rolling
//     into the physical component. Under HLCs the PUT clock-wait degenerates
//     to a logical bump, making write latency insensitive to skew.
package clock

import (
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Clock is a monotonically increasing clock with an optional fixed skew. It
// is safe for concurrent use.
type Clock struct {
	epoch  time.Time
	skew   int64 // nanoseconds added to the true time, may be negative
	hybrid bool  // HLC mode: masked physical component + logical low bits
	last   atomic.Uint64
}

// New returns a raw physical clock with the given skew. All clocks created
// from the same process share a wall-clock epoch so their readings are
// comparable, emulating NTP-synchronized machines whose offsets are bounded
// by the skew.
func New(skew time.Duration) *Clock {
	return &Clock{epoch: processEpoch, skew: int64(skew)}
}

// NewHLC returns a hybrid logical/physical clock with the given skew on its
// physical component. Unlike a raw clock it merges every timestamp passed to
// Observe, so a cluster of HLCs rides at the pace of its fastest member and
// timestamp assignment never waits out skew.
func NewHLC(skew time.Duration) *Clock {
	return &Clock{epoch: processEpoch, skew: int64(skew), hybrid: true}
}

// processEpoch anchors all clocks so Timestamps stay small and positive.
var processEpoch = time.Now()

// Now returns the current timestamp. Successive calls on the same Clock are
// strictly increasing, emulating the paper's assumption that each server's
// physical clock provides monotonically increasing timestamps.
//
// When the wall reading falls at or below the last issued timestamp — clock
// skew, a recovered floor from AdvanceTo, or merged remote time — the next
// timestamp is rebased on the last-issued one (last+1) rather than clamped
// to a constant, so readings keep moving forward from wherever the clock has
// already been. In hybrid mode the wall reading is truncated to the
// 1<<vclock.LogicalBits tick and last+1 increments the logical counter; the
// counter rolls into the physical component on overflow, bounding logical
// drift at one tick (1.024 µs) above the largest physical time the clock has
// seen.
func (c *Clock) Now() vclock.Timestamp {
	raw := time.Since(c.epoch).Nanoseconds() + c.skew
	if raw < 0 {
		raw = 0
	}
	wall := uint64(raw)
	if c.hybrid {
		wall &^= uint64(vclock.LogicalMask)
	}
	for {
		last := c.last.Load()
		t := wall
		if t <= last {
			t = last + 1
		}
		if c.last.CompareAndSwap(last, t) {
			return vclock.Timestamp(t)
		}
	}
}

// AdvanceTo raises the clock floor so every subsequent Now() returns a value
// strictly greater than t. A server that recovers state from a previous
// process calls it with the replayed version-vector floor: recovered
// timestamps are anchored to the previous process's epoch and may sit ahead
// of this process's wall clock, and a new write must never be assigned a
// timestamp below versions that already exist (it would be shadowed by LWW
// and invisible to the catch-up protocol's completion claims).
func (c *Clock) AdvanceTo(t vclock.Timestamp) {
	for {
		last := c.last.Load()
		if uint64(t) <= last {
			return
		}
		if c.last.CompareAndSwap(last, uint64(t)) {
			return
		}
	}
}

// Observe merges a remote timestamp into a hybrid clock: the HLC receive
// rule is max(local, remote), which AdvanceTo implements. On a raw physical
// clock Observe is a no-op — a raw clock reports (skewed) wall time only, so
// the raw-vs-HLC ablation keeps its skew sensitivity.
func (c *Clock) Observe(t vclock.Timestamp) {
	if c.hybrid {
		c.AdvanceTo(t)
	}
}

// SleepUntilAfter blocks until Now() returns a value strictly greater than t.
// It implements the PUT clock-wait: the server must assign the new version a
// timestamp higher than any of its potential dependencies.
//
// A hybrid clock never sleeps: it waits on the hybrid physical component
// only, which Observe has already merged past t's physical part, so bumping
// the logical counter (AdvanceTo + Now) satisfies the ordering requirement
// immediately. This is the Okapi-style fix for skewed-writer PUT latency —
// on raw clocks a writer behind by the skew bound stalls here for up to that
// bound.
func (c *Clock) SleepUntilAfter(t vclock.Timestamp) vclock.Timestamp {
	if c.hybrid {
		c.AdvanceTo(t)
		return c.Now()
	}
	for {
		now := c.Now()
		if now > t {
			return now
		}
		// The gap is bounded by the clock skew between DCs (sub-millisecond
		// to a few milliseconds); poll in small steps.
		gap := time.Duration(t-now) + time.Microsecond
		if gap > time.Millisecond {
			gap = time.Millisecond
		}
		time.Sleep(gap)
	}
}

// Skew returns the configured skew.
func (c *Clock) Skew() time.Duration { return time.Duration(c.skew) }
