package chaos

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// The soak's knobs are test flags, so they reach only the test binary they
// are passed to: make race's last row and the nightly job set them, and a
// failure report's replay command names them.
var (
	soakDuration = flag.Duration("chaos.duration", 2*time.Second, "TestChaosSoak's fault-injection window")
	soakSeed     = flag.Uint64("chaos.seed", 1, "TestChaosSoak's seed (a failure report names it)")
	soakTrace    = flag.String("chaos.trace", "", "file TestChaosSoak writes its failure report to")
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

// TestScheduleGolden pins replay across commits: a -chaos.seed that CI or the
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
//	go test -race -run TestChaosSoak ./internal/chaos/ -chaos.seed=12345 -chaos.duration=30s
//
// On failure the report — the replay command, the violations and the
// executed fault trace — is written to -chaos.trace (if set).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	rep, err := Run(Options{
		Seed:     *soakSeed,
		Duration: *soakDuration,
		DataDir:  t.TempDir(),
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	t.Logf("chaos: seed=%d ops=%d reopens=%d op_errors=%d full_resyncs=%d catchups_requested=%d catchups_completed=%d",
		rep.Seed, rep.Ops, rep.Reopens, rep.OpErrors, rep.Stats.FullResyncs,
		rep.Stats.CatchUpsRequested, rep.Stats.CatchUpsCompleted)
	if rep.Ops == 0 {
		t.Error("checker performed no successful operations — the harness is not exercising the cluster")
	}
	if rep.Failed() {
		dump := rep.Dump()
		if path := *soakTrace; path != "" {
			if werr := os.WriteFile(path, []byte(dump), 0o644); werr != nil {
				t.Logf("could not write %s: %v", path, werr)
			} else {
				t.Logf("fault trace written to %s", path)
			}
		}
		t.Fatalf("chaos soak failed:\n%s", dump)
	}
}

// TestReportDumpReplays: a failure report names the command that replays its
// run, with the seed and the run length both. Schedule draws faults only while
// At < Duration, so a replay at the default length would drop every fault
// after it (the known seed-7 failure follows a fault at 29.683 s).
func TestReportDumpReplays(t *testing.T) {
	r := &Report{Seed: 7, Duration: 30 * time.Second, Violations: []string{"heads diverge"}}
	dump := r.Dump()
	for _, f := range []struct{ name, value string }{{"chaos.seed", "7"}, {"chaos.duration", "30s"}} {
		if !strings.Contains(dump, "-"+f.name+"="+f.value) {
			t.Errorf("Dump does not pass -%s=%s:\n%s", f.name, f.value, dump)
		}
		if flag.Lookup(f.name) == nil {
			t.Errorf("Dump names -%s, which is not a flag of this test binary", f.name)
		}
	}
}

// TestReportDumpCountsCatchUps: a failure report carries the catch-up rate
// next to the operation counts — a soak that converged only through repeated
// catch-up rounds reads differently from one that never needed any.
func TestReportDumpCountsCatchUps(t *testing.T) {
	r := &Report{Ops: 900, Stats: cluster.ReplicationStats{
		CatchUpsRequested: 11, CatchUpsCompleted: 10, CatchUpsServed: 12, FullResyncs: 3,
	}}
	dump := r.Dump()
	for _, f := range []string{"ops=900", "catchups_requested=11", "catchups_completed=10", "catchups_served=12", "full_resyncs=3"} {
		if !strings.Contains(dump, f) {
			t.Errorf("Dump lacks %s:\n%s", f, dump)
		}
	}
}

// TestConvergenceLagNamesTheLaggard drives the epilogue's convergence check
// on a live 2-DC HA-POCC deployment: a marker written at dc0 while the
// dc0<->dc1 link is cut is reported missing at dc1, and once the link heals
// the check comes back clean within convergeBound.
func TestConvergenceLagNamesTheLaggard(t *testing.T) {
	const convergeBound = 2 * time.Second
	c, err := cluster.New(cluster.Config{
		NumDCs: 2, NumPartitions: 1, Engine: cluster.HAPOCC,
		StabilizationInterval: 5 * time.Millisecond,
		Seed:                  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h := &harness{c: c}
	dcs := []int{0, 1}

	c.Network().PartitionDCs(0, 1, true)
	s, err := c.NewRawSession(0)
	if err != nil {
		t.Fatal(err)
	}
	const marker = "chaos-marker"
	ut, src, err := s.PutMeta(marker, []byte("converge"))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("dc1 has not seen the marker (%d@dc%d)", ut, src)
	if lag := h.convergenceLag(dcs, marker, ut, src); lag != want {
		t.Fatalf("with the link cut, convergenceLag = %q, want %q", lag, want)
	}

	c.Network().PartitionDCs(0, 1, false)
	start := time.Now()
	for lag := h.convergenceLag(dcs, marker, ut, src); lag != ""; lag = h.convergenceLag(dcs, marker, ut, src) {
		if time.Since(start) > convergeBound {
			t.Fatalf("%v after the heal, convergenceLag still reports: %s", convergeBound, lag)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("clean %v after the heal", time.Since(start).Round(time.Millisecond))
}
