package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/vclock"
)

// walSegments returns the on-disk .wal segment paths sorted by name
// (sequence order).
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs
}

// TestDurableGroupedAckCrashLosesOnlySuffix: a machine crash mid-group may
// tear the tail of a coalesced write, but recovery must come back with a
// consistent prefix — the version-vector floor reflects exactly the versions
// replayed, never one that was torn away.
func TestDurableGroupedAckCrashLosesOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{
		AckMode:     AckGrouped,
		GroupWindow: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent grouped inserts so the committer coalesces multi-record
	// groups (single-record groups would make this the plain torn-tail test).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				ut := vclock.Timestamp(w*100 + i + 1)
				d.Insert(durableVersion(fmt.Sprintf("g%d-%d", w, i), 0, ut, vclock.VC{0}))
			}
		}(w)
	}
	wg.Wait()
	if err := d.Close(); err != nil { // drains: everything staged is now on disk
		t.Fatal(err)
	}
	if s := d.DurableStats(); s.GroupMax < 2 {
		t.Skipf("no multi-record group formed (GroupMax=%d); nothing mid-group to tear", s.GroupMax)
	}

	// "Crash": chop a chunk off the last segment, landing mid-frame inside
	// what was a coalesced group write.
	segs := walSegments(t, dir)
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 64 {
		t.Fatalf("segment unexpectedly small: %d bytes", len(data))
	}
	if err := os.WriteFile(seg, data[:len(data)-37], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("open after mid-group crash: %v", err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Versions == 0 || st.Versions >= 64 {
		t.Fatalf("recovered %d versions, want a strict non-empty prefix of 64", st.Versions)
	}
	// The floor must be derivable from the recovered versions alone: every
	// key here holds one version, so the heads are the full recovered set,
	// and no recovered version may exceed the claimed floor.
	floor := r.RecoveredVV()
	if floor == nil {
		t.Fatal("no floor recovered despite surviving versions")
	}
	var worst vclock.Timestamp
	r.ForEachVersion(func(v *item.Version) {
		if v.UpdateTime > worst {
			worst = v.UpdateTime
		}
	})
	if floor[0] != worst {
		t.Fatalf("RecoveredVV = %v but worst recovered version is %d: floor claims a torn version", floor, worst)
	}
	// And the recovered engine keeps accepting writes on the truncated log.
	r.Insert(durableVersion("after", 0, 10_000, vclock.VC{0}))
	if err := r.Err(); err != nil {
		t.Fatalf("insert after crash recovery: %v", err)
	}
}

// TestDurableCatchUpWaitsForGroupedAcks: a version acknowledged under
// AckGrouped is not yet fsynced — the catch-up feed must not stream a
// "complete" history that omits it. ForEachDurable barriers on the commit
// pipeline, so the stream either includes the version or the call fails;
// it never silently claims completeness early.
func TestDurableCatchUpWaitsForGroupedAcks(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{
		AckMode: AckGrouped,
		// A long linger: without the barrier the stream would race a commit
		// that is deliberately parked for 200ms.
		GroupWindow: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	start := time.Now()
	d.Insert(durableVersion("parked", 0, 42, vclock.VC{0}))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	var got int
	if err := d.ForEachDurable(nil, nil, func(*item.Version, bool) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("durable stream saw %d versions, want the grouped-acked one", got)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("stream returned after %v — it cannot have waited out the %v commit linger", elapsed, 200*time.Millisecond)
	}
}

// TestDurableForEachDurableRangeSkipsColdParts: a windowed catch-up of a small
// recent gap reads only the parts whose index ranges overlap the window —
// the seek-hit and parts-skipped counters prove cold segments stayed cold.
func TestDurableForEachDurableRangeSkipsColdParts(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 200
	for i := 1; i <= n; i++ {
		d.Insert(durableVersion(fmt.Sprintf("k%03d", i), 0, vclock.Timestamp(i), vclock.VC{0}))
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if len(walSegments(t, dir)) < 3 {
		t.Fatal("writes did not roll enough segments for a meaningful skip test")
	}

	// A small recent gap: everything after n-10.
	lo := vclock.VC{vclock.Timestamp(n - 10)}
	hi := vclock.VC{vclock.Timestamp(n)}
	seen := make(map[vclock.Timestamp]bool)
	if err := d.ForEachDurable(lo, hi, func(v *item.Version, _ bool) error {
		seen[v.UpdateTime] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for ts := vclock.Timestamp(n - 9); ts <= n; ts++ {
		if !seen[ts] {
			t.Fatalf("ranged stream missed version %d inside the window", ts)
		}
	}
	st := d.DurableStats()
	if st.SeekHits != 1 || st.PartsSkipped == 0 {
		t.Fatalf("seek did not skip cold segments: hits=%d skipped=%d", st.SeekHits, st.PartsSkipped)
	}
	if st.FullScans != 0 {
		t.Fatalf("ranged read counted as a full scan: %d", st.FullScans)
	}
}
