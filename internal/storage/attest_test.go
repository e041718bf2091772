package storage

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/item"
	"repro/internal/vclock"
)

// TestAttestVVRestoresFloor: an attested entry with no backing version
// record must survive a restart — that is the whole point of attestation
// (a heartbeat-advanced VV entry would otherwise collapse to the last
// stored version and break the GC/recovery invariant).
func TestAttestVVRestoresFloor(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(durableVersion("k", 0, 10, vclock.VC{0, 0}))
	if got := d.AttestVV(vclock.VC{10, 500}); !got.Equal(vclock.VC{10, 500}) {
		t.Fatalf("AttestVV = %v", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.RecoveredVV(); !got.Equal(vclock.VC{10, 500}) {
		t.Fatalf("RecoveredVV = %v, want [10 500]", got)
	}
	// The attestation is floor bookkeeping, not history: catch-up streams
	// must not see it.
	n := 0
	if err := r.ForEachDurable(nil, nil, func(*item.Version, bool) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("durable stream has %d records, want 1 version", n)
	}
}

// TestAttestVVSurvivesCheckpoint: checkpoints rewrite the log from the
// surviving versions; the attestation floor must be re-emitted or the
// truncation would silently lower the recovered VV.
func TestAttestVVSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{CheckpointBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.AttestVV(vclock.VC{0, 900})
	for i := 1; i <= 8; i++ {
		d.Insert(durableVersion("k", 0, vclock.Timestamp(i*10), vclock.VC{0, 0}))
	}
	// Prune and checkpoint: the pre-checkpoint segments (holding the
	// attestation record) are truncated away.
	d.CollectGarbage(vclock.VC{80, 900})
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap")); len(snaps) == 0 {
		t.Fatal("checkpoint did not run; test needs the truncation")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.RecoveredVV(); got.Get(1) != 900 {
		t.Fatalf("RecoveredVV = %v, attestation lost by checkpoint", got)
	}
}

// TestAttestVVNoAdvanceIsFree: a covered attestation must not append —
// the fast path is what keeps per-GC-cycle attestation cheap.
func TestAttestVVNoAdvanceIsFree(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.AttestVV(vclock.VC{100, 100})
	before := d.DurableStats().Records
	for i := 0; i < 50; i++ {
		d.AttestVV(vclock.VC{50, 100})
	}
	if after := d.DurableStats().Records; after != before {
		t.Fatalf("covered attestations appended: records %d -> %d", before, after)
	}
}

// TestAttestDoesNotDefeatRangeIndex: attestation records are neutral to
// the WAL's per-segment range index — a segment carrying one must remain
// skippable for catch-up ranges that cannot intersect its versions.
func TestAttestDoesNotDefeatRangeIndex(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{SegmentBytes: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Interleave attestations with enough versions to roll several
	// segments, so every sealed segment holds attestation records.
	for i := 1; i <= 200; i++ {
		d.Insert(durableVersion("k", 0, vclock.Timestamp(i), vclock.VC{0}))
		d.AttestVV(vclock.VC{vclock.Timestamp(i)})
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if len(walSegments(t, dir)) < 3 {
		t.Fatal("writes did not roll enough segments for a meaningful skip test")
	}
	// A range above all stored versions must skip the sealed segments.
	if err := d.ForEachDurable(vclock.VC{10000}, vclock.VC{20000}, func(*item.Version, bool) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := d.DurableStats()
	if st.SeekHits != 1 || st.PartsSkipped == 0 {
		t.Fatalf("attestations defeated the range index: hits=%d skipped=%d", st.SeekHits, st.PartsSkipped)
	}
}

// TestAttestNeutralAcrossCheckpointAndReopen: an attestation stays neutral to
// the range index on the two paths that tag it other than the committer. A
// checkpoint re-emits the attestation into the snapshot, and a window above
// the snapshot's versions must still skip it. After a reopen, replay rebuilds
// the ranges of the snapshot and of the tail segment, which holds further
// attestations, and a window above every version must skip both.
func TestAttestNeutralAcrossCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{CheckpointBytes: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	write := func(d *Durable, from, to int) {
		for i := from; i <= to; i++ {
			d.Insert(durableVersion(fmt.Sprintf("k%02d", i), 0, vclock.Timestamp(i), vclock.VC{0}))
			d.AttestVV(vclock.VC{vclock.Timestamp(i)})
		}
	}
	// skips walks the window and returns how many parts it skipped and how
	// many versions it streamed.
	skips := func(d *Durable, lo, hi vclock.VC) (uint64, int) {
		before := d.DurableStats().PartsSkipped
		n := 0
		if err := d.ForEachDurable(lo, hi, func(*item.Version, bool) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return d.DurableStats().PartsSkipped - before, n
	}
	write(d, 1, 10)
	d.CollectGarbage(vclock.VC{0}) // prunes nothing; takes the armed checkpoint
	write(d, 11, 15)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if skipped, n := skips(d, vclock.VC{10}, vclock.VC{20}); skipped != 1 || n != 5 {
		t.Fatalf("after a checkpoint: skipped %d parts and streamed %d versions, want the snapshot and 5", skipped, n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, DurableOptions{CheckpointBytes: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.RecoveredVV(); !got.Equal(vclock.VC{15}) {
		t.Fatalf("RecoveredVV = %v, want [15]", got)
	}
	if skipped, n := skips(r, vclock.VC{15}, vclock.VC{20}); skipped != 2 || n != 0 {
		t.Fatalf("after a reopen: skipped %d parts and streamed %d versions, want the snapshot, the tail segment and 0", skipped, n)
	}
}
