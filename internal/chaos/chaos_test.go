package chaos

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"
)

// TestScheduleDeterministic pins the harness's replay guarantee: the fault
// schedule is a pure function of the seed, so re-running a reported seed
// reproduces the identical fault sequence.
func TestScheduleDeterministic(t *testing.T) {
	const d = 30 * time.Second
	a := Schedule(42, d)
	b := Schedule(42, d)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// A different seed must not produce the same schedule (astronomically
	// unlikely unless the seed is ignored).
	c := Schedule(43, d)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestScheduleGolden pins replay across commits: a CHAOS_SEED that CI or the
// nightly soak reports must draw the same faults on the commit that replays
// it. The hash is of Schedule(7, 30 s), one Event.String line per event; a
// change to the generator, its constants or Event.String that moves it breaks
// every reported seed and must say so by updating the hash.
func TestScheduleGolden(t *testing.T) {
	const want = "f1f86da6e24997d4d74bd53d2d9e6beef197fdd4b669e8ef155276161849ac06"
	h := sha256.New()
	for _, e := range Schedule(7, 30*time.Second) {
		fmt.Fprintln(h, e)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("Schedule(7, 30s) hashes to %s, want %s: the fault schedule drifted", got, want)
	}
}

// TestScheduleCoversAllKinds checks the generator actually draws every fault
// kind over a long window — a weight-table regression would silently shrink
// the harness's coverage.
func TestScheduleCoversAllKinds(t *testing.T) {
	seen := make(map[Kind]bool)
	for _, e := range Schedule(7, 60*time.Second) {
		seen[e.Kind] = true
	}
	for _, k := range []Kind{CrashRestart, LinkFlap, LatencyScale, AddDC, RemoveDC, KillAndEvict, SlotMove, PartitionSplit} {
		if !seen[k] {
			t.Errorf("60s schedule never drew %v", k)
		}
	}
}

// TestChaosSoak runs the full fault-injection soak. The default is a short
// smoke (make race's last row and the nightly job raise it):
//
//	CHAOS_SECONDS=30 CHAOS_SEED=12345 go test -race -run TestChaosSoak ./internal/chaos
//
// On failure the seed and the executed fault trace are written to
// CHAOS_TRACE_FILE (if set) so the run can be replayed bit-for-bit.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	dur := 2 * time.Second
	if v := os.Getenv("CHAOS_SECONDS"); v != "" {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SECONDS %q: %v", v, err)
		}
		dur = time.Duration(secs * float64(time.Second))
	}
	seed := uint64(1)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		s, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", v, err)
		}
		seed = s
	}

	rep, err := Run(Options{
		Seed:     seed,
		Duration: dur,
		DataDir:  t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	t.Logf("chaos: seed=%d ops=%d reopens=%d op_errors=%d full_resyncs=%d",
		rep.Seed, rep.Ops, rep.Reopens, rep.OpErrors, rep.Stats.FullResyncs)
	if rep.Ops == 0 {
		t.Error("checker performed no successful operations — the harness is not exercising the cluster")
	}
	if rep.Failed() {
		dump := rep.Dump()
		if path := os.Getenv("CHAOS_TRACE_FILE"); path != "" {
			if werr := os.WriteFile(path, []byte(dump), 0o644); werr != nil {
				t.Logf("could not write %s: %v", path, werr)
			} else {
				t.Logf("fault trace written to %s", path)
			}
		}
		t.Fatalf("chaos soak failed:\n%s", dump)
	}
}
