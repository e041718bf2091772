package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rawRecord is a byte record as a Record: untagged, as Append stages it.
type rawRecord []byte

func (r rawRecord) AppendTo(b []byte) []byte { return append(b, r...) }

func (r rawRecord) MaxSize() int { return len(r) }

func (r rawRecord) Tag() (int, uint64) { return -1, 0 }

// emitAll adapts a record slice to Checkpoint's streaming fill callback.
func emitAll(recs [][]byte) func(emit func(Record)) {
	return func(emit func(Record)) {
		for _, r := range recs {
			emit(rawRecord(r))
		}
	}
}

// replayAll opens the log and collects every replayed record, untagged.
func replayAll(t *testing.T, dir string, opts Options) (*Log, [][]byte) {
	t.Helper()
	var recs [][]byte
	l, err := Open(dir, opts, func(rec []byte) (int, uint64, error) {
		recs = append(recs, append([]byte(nil), rec...))
		return -1, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := replayAll(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A batched commit (group commit) replays in order too.
	batch := [][]byte{[]byte("batch-a"), []byte("batch-b"), []byte("batch-c")}
	want = append(want, batch...)
	if err := l.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSegmentRollAndReopenAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 40; i++ {
		if err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	// Reopen, append more, and verify both generations replay.
	l2, got := replayAll(t, dir, Options{SegmentBytes: 64})
	if len(got) != 40 {
		t.Fatalf("replayed %d records, want 40", len(got))
	}
	if err := l2.Append([]byte("after-reopen")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got := replayAll(t, dir, Options{SegmentBytes: 64})
	defer l3.Close()
	if len(got) != 41 || string(got[40]) != "after-reopen" {
		t.Fatalf("replayed %d records, tail %q", len(got), got[len(got)-1])
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("whole-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-commit: append a frame missing its last bytes.
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(segs[len(segs)-1], segSuffix))
	torn := appendFrame(nil, []byte("torn-record"))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, got := replayAll(t, dir, Options{})
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5 (torn tail dropped)", len(got))
	}
	// The torn tail must have been truncated so new appends land cleanly.
	if err := l2.Append([]byte("after-torn")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got := replayAll(t, dir, Options{})
	defer l3.Close()
	if len(got) != 6 || string(got[5]) != "after-torn" {
		t.Fatalf("after truncation replayed %v", got)
	}
}

func TestCorruptMiddleRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if err := l.Append(bytes.Repeat([]byte{byte('a' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(segs[0], segSuffix))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff // flip a payload byte of the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{}, func([]byte) (int, uint64, error) { return -1, 0, nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{SegmentBytes: 64})
	for i := 0; i < 30; i++ {
		if err := l.Append([]byte(fmt.Sprintf("pre-checkpoint-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := [][]byte{[]byte("state-a"), []byte("state-b")}
	if err := l.Checkpoint(emitAll(snapshot)); err != nil {
		t.Fatal(err)
	}
	if since := l.SinceCheckpoint(); since != 0 {
		t.Fatalf("SinceCheckpoint = %d after checkpoint", since)
	}
	if err := l.Append([]byte("post-checkpoint")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, snapSeq, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snapSeq == 0 {
		t.Fatal("no snapshot on disk after Checkpoint")
	}
	if len(segs) != 1 {
		t.Fatalf("segments after checkpoint = %v, want exactly the active one", segs)
	}

	l2, got := replayAll(t, dir, Options{SegmentBytes: 64})
	defer l2.Close()
	want := []string{"state-a", "state-b", "post-checkpoint"}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records %q, want %q", len(got), got, want)
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, got[i], w)
		}
	}
}

// TestRepeatedCheckpointsLeaveOneSnapshot regresses the stale-snapshot
// leak: when segments roll between checkpoints, the previous snapshot has a
// non-adjacent sequence number and must still be deleted.
func TestRepeatedCheckpointsLeaveOneSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{SegmentBytes: 64})
	countSnaps := func() int {
		n := 0
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), snapSuffix) {
				n++
			}
		}
		return n
	}
	for round := 0; round < 3; round++ {
		// Enough appends to roll several segments between checkpoints.
		for i := 0; i < 20; i++ {
			if err := l.Append([]byte(fmt.Sprintf("round-%d-%02d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Checkpoint(emitAll([][]byte{[]byte(fmt.Sprintf("state-%d", round))})); err != nil {
			t.Fatal(err)
		}
		if got := countSnaps(); got != 1 {
			t.Fatalf("round %d: %d snapshots on disk, want 1", round, got)
		}
	}
	l.Close()

	// A reopen after the rounds must also keep exactly one snapshot and
	// replay only the newest state.
	l2, recs := replayAll(t, dir, Options{SegmentBytes: 64})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0]) != "state-2" {
		t.Fatalf("replayed %q, want just state-2", recs)
	}
	if err := l2.Checkpoint(emitAll([][]byte{[]byte("state-3")})); err != nil {
		t.Fatal(err)
	}
	if got := countSnaps(); got != 1 {
		t.Fatalf("after reopen+checkpoint: %d snapshots, want 1", got)
	}
}

func TestStaleTmpFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"+tmpSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := replayAll(t, dir, Options{})
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from junk", len(recs))
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("stale temp file %s survived Open", e.Name())
		}
	}
}

func TestClosedLogErrors(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{})
	l.Close()
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed log: %v", err)
	}
	if err := l.Checkpoint(emitAll(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint on closed log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// readAll collects every record a ReadFrom cursor yields.
func readAll(t *testing.T, l *Log, seq uint64) (recs [][]byte, segs []uint64) {
	t.Helper()
	if err := l.ReadFrom(seq, func(seg uint64, rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		segs = append(segs, seg)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs, segs
}

// TestReadFromCursorLiveLog: the cursor replays every committed record of a
// live, multi-segment log in order, without disturbing the append path, and
// records committed after the cursor starts are excluded from it but seen by
// a later cursor.
func TestReadFromCursorLiveLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{SegmentBytes: 256, NoSync: true})
	defer l.Close()
	var want [][]byte
	for i := 0; i < 40; i++ {
		rec := []byte(fmt.Sprintf("cursor-record-%03d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs, segs := readAll(t, l, 0)
	if len(recs) != len(want) {
		t.Fatalf("cursor yielded %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] < segs[i-1] {
			t.Fatalf("cursor segment order regressed: %v", segs)
		}
	}
	// Appends during/after a cursor are invisible to it but not lost.
	if err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	recs2, _ := readAll(t, l, 0)
	if len(recs2) != len(want)+1 {
		t.Fatalf("second cursor yielded %d records, want %d", len(recs2), len(want)+1)
	}
}

// TestReadFromStartsMidLog: a cursor from a later segment skips the earlier
// segments entirely.
func TestReadFromStartsMidLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{SegmentBytes: 64, NoSync: true})
	defer l.Close()
	for i := 0; i < 30; i++ {
		if err := l.Append([]byte(fmt.Sprintf("mid-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	all, segs := readAll(t, l, 0)
	if segs[len(segs)-1] < 3 {
		t.Fatalf("log rolled only to segment %d; shrink SegmentBytes", segs[len(segs)-1])
	}
	cut := segs[len(segs)-1] // the active segment
	part, partSegs := readAll(t, l, cut)
	if len(part) == 0 || len(part) >= len(all) {
		t.Fatalf("cursor from segment %d yielded %d of %d records", cut, len(part), len(all))
	}
	for _, s := range partSegs {
		if s < cut {
			t.Fatalf("cursor from %d yielded a record of segment %d", cut, s)
		}
	}
	if !bytes.Equal(part[len(part)-1], all[len(all)-1]) {
		t.Fatal("mid-log cursor lost the tail record")
	}
}

// TestReadFromIncludesSnapshot: after a checkpoint, a cursor from 0 replays
// the snapshot (attributed to part 0) and then the younger segments.
func TestReadFromIncludesSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{NoSync: true})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(emitAll([][]byte{[]byte("snap-0"), []byte("snap-1")})); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("post-0")); err != nil {
		t.Fatal(err)
	}
	recs, segs := readAll(t, l, 0)
	want := []string{"snap-0", "snap-1", "post-0"}
	if len(recs) != len(want) {
		t.Fatalf("cursor yielded %d records %q, want %v", len(recs), recs, want)
	}
	for i, w := range want {
		if string(recs[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, recs[i], w)
		}
	}
	if segs[0] != 0 || segs[1] != 0 {
		t.Fatalf("snapshot records attributed to segments %v, want part 0", segs[:2])
	}
	if segs[2] == 0 {
		t.Fatal("post-checkpoint record attributed to the snapshot's part 0")
	}
	// A cursor from the segment the checkpoint started skips the compacted
	// history.
	recs2, _ := readAll(t, l, segs[2])
	if len(recs2) != 1 || string(recs2[0]) != "post-0" {
		t.Fatalf("cursor above the floor yielded %q, want just post-0", recs2)
	}
}

// TestReadFromClosedLog: the cursor refuses a closed log.
func TestReadFromClosedLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{NoSync: true})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.ReadFrom(0, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrom on a closed log = %v, want ErrClosed", err)
	}
}

// TestReadFromCursorSurvivesCheckpointPrune pins the catch-up cursor's
// crash-consistency contract against compaction: a checkpoint that runs —
// and prunes every old segment — while a ReadFrom iteration is mid-stream
// must not disturb the iteration. The cursor pinned its files open at the
// boundary capture, so it keeps serving the captured records from the
// unlinked files; afterwards the snapshot floor has moved, and a resumed
// cursor whose sequence fell at or below the new floor is served the
// snapshot first — the "resume floor stays correct" half of the contract
// that a replication catch-up stream racing a GC-triggered checkpoint
// relies on.
func TestReadFromCursorSurvivesCheckpointPrune(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{SegmentBytes: 64, NoSync: true})
	defer l.Close()
	var want [][]byte
	for i := 0; i < 30; i++ {
		rec := []byte(fmt.Sprintf("pinned-%03d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := segmentFiles(t, dir)
	if len(segsBefore) < 3 {
		t.Fatalf("only %d segments on disk; shrink SegmentBytes", len(segsBefore))
	}

	// Mid-iteration, compact the whole history into a snapshot: the old
	// segments are pruned from disk while the cursor still needs them.
	var got [][]byte
	checkpointed := false
	if err := l.ReadFrom(0, func(seg uint64, rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		if !checkpointed {
			checkpointed = true
			if err := l.Checkpoint(emitAll([][]byte{[]byte("compacted")})); err != nil {
				return err
			}
			if after := segmentFiles(t, dir); len(after) >= len(segsBefore) {
				t.Fatalf("checkpoint pruned nothing (%d -> %d segments); the race has no teeth",
					len(segsBefore), len(after))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor served %d records across the prune, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q (pinned file misread)", i, got[i], want[i])
		}
	}

	// The floor moved; a resume at or below it is redirected through the
	// snapshot, and one from the segment the checkpoint started sees only
	// post-checkpoint appends.
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	recs, segs := readAll(t, l, 1)
	if len(recs) != 2 || string(recs[0]) != "compacted" || string(recs[1]) != "tail" {
		t.Fatalf("resumed cursor yielded %q, want [compacted tail]", recs)
	}
	if segs[0] != 0 || segs[1] == 0 {
		t.Fatalf("resumed cursor attributed its records to parts %v, want the snapshot's 0, then a segment", segs)
	}
	recs2, _ := readAll(t, l, segs[1])
	if len(recs2) != 1 || string(recs2[0]) != "tail" {
		t.Fatalf("cursor above the floor yielded %q, want just the tail", recs2)
	}
}

// segmentFiles lists the live segment files in dir.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, e.Name())
		}
	}
	return segs
}
