package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// testTag is the mini record format the index tests use: one origin byte
// followed by a big-endian timestamp, then arbitrary payload.
func testRec(origin int, ts uint64, body string) []byte {
	rec := make([]byte, 9, 9+len(body))
	rec[0] = byte(origin)
	binary.BigEndian.PutUint64(rec[1:], ts)
	return append(rec, body...)
}

func testTagOf(rec []byte) (int, uint64, bool) {
	if len(rec) < 9 {
		return 0, 0, false
	}
	return int(rec[0]), binary.BigEndian.Uint64(rec[1:]), true
}

// testRecord is testRec's format as a Record: the committer encodes it.
type testRecord struct {
	origin int
	ts     uint64
	body   string
}

func (r *testRecord) AppendTo(b []byte) []byte {
	b = append(b, byte(r.origin))
	b = binary.BigEndian.AppendUint64(b, r.ts)
	return append(b, r.body...)
}

func (r *testRecord) MaxSize() int { return 9 + len(r.body) }

func (r *testRecord) Tag() (int, uint64) { return r.origin, r.ts }

// Records and byte records, synchronous and not, replay in exactly the order
// they were staged, however the committer cuts their groups into encode
// buffers: a group several buffers long, and a record — of either kind —
// longer than a buffer.
func TestStagedRecordsReplayInStageOrder(t *testing.T) {
	dir := t.TempDir()
	// The window makes the async appends between two synchronous ones share
	// a group.
	l, _ := replayAll(t, dir, Options{TagOf: testTagOf, GroupWindow: time.Millisecond})
	var want [][]byte
	ts := uint64(0)
	record := func(body string) *testRecord {
		ts++
		r := &testRecord{origin: int(ts % 3), ts: ts, body: body}
		want = append(want, r.AppendTo(nil))
		return r
	}
	bytesRec := func(body string) []byte {
		ts++
		rec := testRec(int(ts%3), ts, body)
		want = append(want, rec)
		return rec
	}
	huge := strings.Repeat("h", encodeBufBytes+1)
	for round := 0; round < 3; round++ {
		if err := l.AppendRecordAsync(record("async-record")); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendAsync(bytesRec("async-bytes"), bytesRec(huge)); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendRecordAsync(record(huge)); err != nil {
			t.Fatal(err)
		}
		// Several encode buffers' worth of records in one group.
		group := make([]*testRecord, 0, 400)
		for len(group) < cap(group) {
			group = append(group, record(strings.Repeat("g", 500)))
		}
		if err := l.AppendRecords(len(group), func(i int) Record { return group[i] }); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(bytesRec("sync-bytes")); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendRecords(1, func(int) Record { return record("sync-record") }); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Stats(); s.Records != uint64(len(want)) {
		t.Fatalf("Records = %d, want %d", s.Records, len(want))
	}
	var seen [][]byte
	if err := l.ReadFrom(0, func(_ uint64, rec []byte) error {
		seen = append(seen, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := replayAll(t, dir, Options{})
	defer l2.Close()
	for name, recs := range map[string][][]byte{"replay": got, "cursor": seen} {
		if len(recs) != len(want) {
			t.Fatalf("%s: %d records, want %d", name, len(recs), len(want))
		}
		for i := range want {
			if !bytes.Equal(recs[i], want[i]) {
				t.Fatalf("%s: record %d is %.20q (%d bytes), want %.20q (%d bytes)", name, i, recs[i], len(recs[i]), want[i], len(want[i]))
			}
		}
	}
}

// Concurrent synchronous appends must coalesce into shared commit groups:
// far fewer fsyncs than records, with the histogram seeing multi-record
// groups.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{GroupWindow: 2 * time.Millisecond})
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := l.Stats()
	if s.Records != workers*each {
		t.Fatalf("Records = %d, want %d", s.Records, workers*each)
	}
	if s.Groups == 0 || s.Groups > s.Records/2 {
		t.Fatalf("Groups = %d for %d records: appends did not coalesce", s.Groups, s.Records)
	}
	if s.GroupMax < 2 {
		t.Fatalf("GroupMax = %d, want >= 2", s.GroupMax)
	}
	if s.Fsyncs < s.Groups {
		t.Fatalf("Fsyncs = %d < Groups = %d", s.Fsyncs, s.Groups)
	}
	if s.AckLagMaxNS <= 0 || s.AckLagSumNS <= 0 {
		t.Fatalf("ack lag not measured: sum=%d max=%d", s.AckLagSumNS, s.AckLagMaxNS)
	}
	if p := s.GroupP50(); p == 0 {
		t.Fatalf("GroupP50 = 0 with %d groups", s.Groups)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(got) != workers*each {
		t.Fatalf("replayed %d records, want %d", len(got), workers*each)
	}
}

// AppendAsync acks before durability; Barrier is the sync boundary after
// which everything staged must be on disk.
func TestAppendAsyncBarrier(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{})
	var want [][]byte
	for i := 0; i < 200; i++ {
		rec := []byte(fmt.Sprintf("async-%03d", i))
		want = append(want, rec)
		if err := l.AppendAsync(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Barrier(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Records != 200 {
		t.Fatalf("after Barrier, Records = %d, want 200", s.Records)
	}
	// The boundary is visible to cursors too: a ReadFrom after Barrier sees
	// every async record.
	var seen int
	if err := l.ReadFrom(0, func(_ uint64, rec []byte) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 200 {
		t.Fatalf("cursor after Barrier saw %d records, want 200", seen)
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

// Close drains the pipeline: async appends issued right before Close are
// never lost by an orderly shutdown.
func TestAppendAsyncSurvivesClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := replayAll(t, dir, Options{})
	for i := 0; i < 50; i++ {
		if err := l.AppendAsync([]byte(fmt.Sprintf("tail-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := replayAll(t, dir, Options{})
	defer l2.Close()
	if len(got) != 50 {
		t.Fatalf("replayed %d records after Close, want 50", len(got))
	}
}

// ReadRange consults the per-segment range index: a query for a recent
// window skips the cold segments entirely, and per-part ranges survive a
// reopen via the persisted segment trailers.
func TestReadRangeSkipsColdSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 512, TagOf: testTagOf}
	l, _ := replayAll(t, dir, opts)
	const n = 200
	for ts := uint64(1); ts <= n; ts++ {
		if err := l.Append(testRec(0, ts, "payload-padding-to-force-rolls")); err != nil {
			t.Fatal(err)
		}
	}

	// A window covering only the newest few timestamps must skip segments.
	var got []uint64
	skipped, err := l.ReadRange([]uint64{n - 5}, []uint64{n}, func(_ uint64, rec []byte) error {
		_, ts, _ := testTagOf(rec)
		got = append(got, ts)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("recent-window ReadRange skipped no segments")
	}
	found := map[uint64]bool{}
	for _, ts := range got {
		found[ts] = true
	}
	for ts := uint64(n - 4); ts <= n; ts++ {
		if !found[ts] {
			t.Fatalf("window record ts=%d missing from ReadRange", ts)
		}
	}

	// An unbounded window reads everything and skips nothing.
	count := 0
	skipped, err = l.ReadRange(nil, nil, func(_ uint64, rec []byte) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || count != n {
		t.Fatalf("unbounded ReadRange: skipped=%d count=%d, want 0/%d", skipped, count, n)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen WITHOUT TagOf: sealed segments still skip via their persisted
	// trailers (only the tail segment, which has no trailer, must be read).
	l2, recs := replayAll(t, dir, Options{SegmentBytes: 512})
	defer l2.Close()
	if len(recs) != n {
		t.Fatalf("reopen replayed %d records, want %d (trailers must be filtered)", len(recs), n)
	}
	skipped, err = l2.ReadRange([]uint64{n}, []uint64{n}, func(_ uint64, rec []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("after reopen, empty-window ReadRange skipped no sealed segments")
	}
}

// A checkpoint records the snapshot's range: windows above it skip the
// snapshot wholesale.
func TestReadRangeSkipsSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := Options{TagOf: testTagOf}
	l, _ := replayAll(t, dir, opts)
	var history [][]byte
	for ts := uint64(1); ts <= 100; ts++ {
		rec := testRec(1, ts, "x")
		history = append(history, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(emitAll(history)); err != nil {
		t.Fatal(err)
	}
	for ts := uint64(101); ts <= 110; ts++ {
		if err := l.Append(testRec(1, ts, "x")); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	skipped, err := l.ReadRange([]uint64{0, 100}, []uint64{0, 110}, func(_ uint64, rec []byte) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("post-checkpoint window did not skip the snapshot")
	}
	if count != 10 {
		t.Fatalf("post-checkpoint window read %d records, want 10", count)
	}
	// A window reaching below the checkpoint must still include the snapshot.
	count = 0
	if _, err := l.ReadRange([]uint64{0, 50}, []uint64{0, 110}, func(_ uint64, rec []byte) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 110 {
		t.Fatalf("deep window read %d records, want 110", count)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
