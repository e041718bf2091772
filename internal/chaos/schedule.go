// Package chaos is the repository's continuous fault-injection harness: it
// drives a live HA-POCC deployment through an interleaved schedule of server
// crash/restarts, whole-DC membership churn (joins, graceful leaves, kills
// followed by forced removal), inter-DC link flaps and live latency
// reprofiles, while concurrent checker sessions assert causal consistency
// (internal/causaltest) and a watchdog asserts that global stabilization
// keeps making progress whenever no fault legitimately freezes it.
//
// The fault schedule is computed up front as a pure function of a seed and
// the run's length (Schedule), so a failing soak is replayed exactly by
// re-running with the seed and length it reports. Execution-time skips (an event drawn against a DC that
// already departed, say) are decided by cluster state and recorded in the
// trace, but the schedule itself — times, kinds, targets — never depends on
// runtime state.
//
// A run ends with a heal-and-quiesce epilogue: every link is restored, the
// latency profile reset, in-flight joins settled, and the harness then
// requires (1) a marker written after the heal to become visible at every
// surviving DC, (2) every surviving DC to converge to identical heads for
// the whole chaos keyspace, and (3) the GSS of every survivor to advance
// past the marker — the "no permanent wedge" guarantee that forced removal
// and catch-up exist to provide. Violations of any of these, or any
// causality violation observed mid-run, fail the run; Report.Dump renders
// the replay command plus the executed fault trace for reproduction.
//
// The package is three files: schedule.go draws the faults, run.go executes
// them against the deployment under the checker sessions, and check.go holds
// the watchdog and the epilogue's convergence check. TestChaosSoak takes its
// length, seed and trace file as test flags: -chaos.duration, -chaos.seed and
// -chaos.trace.
package chaos

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Kind enumerates the fault types the scheduler draws from.
type Kind int

// Fault kinds.
const (
	// CrashRestart crash-restarts one partition server (kill -9 plus
	// WAL recovery plus catch-up resync).
	CrashRestart Kind = iota
	// LinkFlap partitions two DCs for Event.Dur, then heals.
	LinkFlap
	// LatencyScale multiplies every link's base latency by Event.Scale.
	LatencyScale
	// AddDC grows the deployment by a joining DC (bootstrapped by catch-up).
	AddDC
	// RemoveDC gracefully removes a DC (announced finals, flushed history).
	RemoveDC
	// KillAndEvict crashes a whole DC and forcibly removes it: the survivors
	// agree on its final replicated timestamps and discard the rest.
	KillAndEvict
	// SlotMove reshards part of one partition's slot range onto another
	// existing partition (drain-then-flip under the next slot-table epoch).
	SlotMove
	// PartitionSplit grows the keyspace by one partition server per DC and
	// moves half of a donor's slots onto it, bootstrapped from the donors'
	// history while the checked workload keeps writing.
	PartitionSplit
)

func (k Kind) String() string {
	switch k {
	case CrashRestart:
		return "crash-restart"
	case LinkFlap:
		return "link-flap"
	case LatencyScale:
		return "latency-scale"
	case AddDC:
		return "add-dc"
	case RemoveDC:
		return "remove-dc"
	case KillAndEvict:
		return "kill+evict"
	case SlotMove:
		return "slot-move"
	case PartitionSplit:
		return "partition-split"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	// At is the offset from the start of the run.
	At   time.Duration
	Kind Kind
	// DC (and P for CrashRestart, the donor partition for SlotMove and
	// PartitionSplit) is the primary target; DC2 is the peer of a LinkFlap.
	DC, DC2, P int
	// P2 is the receiving partition of a SlotMove.
	P2 int
	// Dur is the down window of a LinkFlap.
	Dur time.Duration
	// Scale is the LatencyScale multiplier.
	Scale float64
}

func (e Event) String() string {
	switch e.Kind {
	case CrashRestart:
		return fmt.Sprintf("%v %v dc%d-p%d", e.At, e.Kind, e.DC, e.P)
	case LinkFlap:
		return fmt.Sprintf("%v %v dc%d<->dc%d for %v", e.At, e.Kind, e.DC, e.DC2, e.Dur)
	case LatencyScale:
		return fmt.Sprintf("%v %v x%g", e.At, e.Kind, e.Scale)
	case SlotMove:
		return fmt.Sprintf("%v %v p%d->p%d", e.At, e.Kind, e.P, e.P2)
	case PartitionSplit:
		return fmt.Sprintf("%v %v p%d", e.At, e.Kind, e.P)
	default:
		return fmt.Sprintf("%v %v dc%d", e.At, e.Kind, e.DC)
	}
}

// The deployment every run starts from and the load it carries: a 3 × 2
// layout with headroom for three DC joins (a departed DC's id is never
// reused) and two partition splits, four checker sessions, 24 shared keys.
const (
	numDCs        = 3
	numPartitions = 2
	maxDCs        = numDCs + 3
	maxPartitions = numPartitions + 2
	numWorkers    = 4
	numKeys       = 24
)

// Schedule computes the fault schedule for a run: a pure function of the
// seed and the run's length. Replaying a seed therefore reproduces the
// identical schedule; whether an individual event applies or is skipped is
// decided against live cluster state at execution time (and recorded in the
// trace), never fed back into the schedule.
func Schedule(seed uint64, d time.Duration) []Event {
	rng := rand.New(rand.NewPCG(seed, 0xc4a05))
	var evs []Event
	at := 150*time.Millisecond + time.Duration(rng.Int64N(int64(250*time.Millisecond)))
	for at < d {
		e := Event{At: at}
		switch r := rng.IntN(100); {
		case r < 30:
			e.Kind = CrashRestart
			e.DC = rng.IntN(maxDCs)
			e.P = rng.IntN(numPartitions)
		case r < 52:
			e.Kind = LinkFlap
			e.DC = rng.IntN(maxDCs)
			e.DC2 = rng.IntN(maxDCs - 1)
			if e.DC2 >= e.DC {
				e.DC2++
			}
			e.Dur = 100*time.Millisecond + time.Duration(rng.Int64N(int64(600*time.Millisecond)))
		case r < 62:
			e.Kind = LatencyScale
			e.Scale = []float64{0.25, 0.5, 2, 4, 1}[rng.IntN(5)]
		case r < 70:
			e.Kind = AddDC
		case r < 78:
			e.Kind = RemoveDC
			// DC 0 is never removed: the harness needs one anchor DC to write
			// the convergence marker from and to keep at least one seed member.
			e.DC = 1 + rng.IntN(maxDCs-1)
		case r < 86:
			e.Kind = KillAndEvict
			e.DC = 1 + rng.IntN(maxDCs-1)
		case r < 93:
			// Donor and receiver are drawn from the initial layout (always
			// live); the slots actually moved are picked at execution time
			// from the live table and recorded in the trace.
			e.Kind = SlotMove
			e.P = rng.IntN(numPartitions)
			e.P2 = rng.IntN(numPartitions)
		default:
			e.Kind = PartitionSplit
			e.P = rng.IntN(numPartitions)
		}
		evs = append(evs, e)
		at += 120*time.Millisecond + time.Duration(rng.Int64N(int64(500*time.Millisecond)))
	}
	return evs
}
