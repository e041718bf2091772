package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/item"
	"repro/internal/vclock"
)

func durableVersion(key string, src int, ut vclock.Timestamp, deps vclock.VC) *item.Version {
	return &item.Version{
		Key: key, Value: []byte(fmt.Sprintf("%s@%d", key, ut)),
		SrcReplica: src, UpdateTime: ut, Deps: deps,
	}
}

func TestDurableRecoversChainsAndFloor(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(durableVersion("a", 0, 10, vclock.VC{0, 0}))
	d.Insert(durableVersion("a", 1, 20, vclock.VC{10, 0}))
	d.InsertBatch([]*item.Version{
		durableVersion("b", 1, 30, vclock.VC{10, 20}),
		durableVersion("c", 0, 40, vclock.VC{0, 30}),
	})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Keys != 3 || st.Versions != 4 {
		t.Fatalf("recovered stats = %+v, want 3 keys / 4 versions", st)
	}
	if h := r.Head("a"); h == nil || h.UpdateTime != 20 || h.SrcReplica != 1 {
		t.Fatalf("recovered head of a = %+v", h)
	}
	if h := r.Head("a"); string(h.Value) != "a@20" {
		t.Fatalf("recovered value = %q", h.Value)
	}
	// Chain order survives: ReadWithin an old snapshot finds the old version.
	res := r.ReadWithin("a", vclock.VC{5, 0})
	if res.V == nil || res.V.UpdateTime != 10 {
		t.Fatalf("ReadWithin old snapshot = %+v", res.V)
	}
	want := vclock.VC{40, 30}
	if got := r.RecoveredVV(); !got.Equal(want) {
		t.Fatalf("RecoveredVV = %v, want %v", got, want)
	}
}

func TestDurableFreshEngineHasNilFloor(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.RecoveredVV(); got != nil {
		t.Fatalf("fresh engine floor = %v, want nil", got)
	}
}

func TestDurableTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		d.Insert(durableVersion("k", 0, vclock.Timestamp(i*10), vclock.VC{0}))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record: chop bytes off the only segment's tail.
	var seg string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			seg = filepath.Join(dir, e.Name())
		}
	}
	if seg == "" {
		t.Fatal("no segment on disk")
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer r.Close()
	// The torn record (ut=80) is gone; everything before it survived.
	if st := r.Stats(); st.Versions != 7 {
		t.Fatalf("versions after torn-tail recovery = %d, want 7", st.Versions)
	}
	if h := r.Head("k"); h == nil || h.UpdateTime != 70 {
		t.Fatalf("head after torn-tail recovery = %+v", h)
	}
	// And the engine accepts new writes on the truncated log.
	r.Insert(durableVersion("k", 0, 90, vclock.VC{0}))
	if err := r.Err(); err != nil {
		t.Fatalf("insert after torn-tail recovery: %v", err)
	}
}

func TestDurableCheckpointOnGC(t *testing.T) {
	dir := t.TempDir()
	// A tiny checkpoint threshold so the first GC pass snapshots.
	d, err := OpenDurable(dir, DurableOptions{CheckpointBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		d.Insert(durableVersion("hot", 0, vclock.Timestamp(i), vclock.VC{vclock.Timestamp(i - 1)}))
	}
	// GC with a covering vector prunes down to the head, then checkpoints.
	if removed := d.CollectGarbage(vclock.VC{100}); removed != 19 {
		t.Fatalf("CollectGarbage removed %d, want 19", removed)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot holds only the pruned state.
	var snaps, segs int
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".snap"):
			snaps++
		case strings.HasSuffix(e.Name(), ".wal"):
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("after checkpoint: %d snapshots, %d segments; want 1 and 1", snaps, segs)
	}

	r, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Keys != 1 || st.Versions != 1 {
		t.Fatalf("recovered stats after checkpoint = %+v, want 1/1", st)
	}
	if h := r.Head("hot"); h == nil || h.UpdateTime != 20 {
		t.Fatalf("recovered head = %+v", h)
	}
	if got := r.RecoveredVV(); !got.Equal(vclock.VC{20}) {
		t.Fatalf("RecoveredVV after checkpoint = %v", got)
	}
}

func TestDurableStickyErrorAfterClose(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Writing to a closed engine records the persistence failure, and the
	// un-logged local version is NOT installed: this node is its origin, so
	// exposing it to reads and replication before it exists anywhere
	// durable would let it vanish from every replica's causal past on the
	// next crash — the one loss no catch-up can repair.
	d.Insert(durableVersion("x", 0, 1, vclock.VC{0}))
	if d.Err() == nil {
		t.Fatal("insert after Close left no sticky error")
	}
	if h := d.Head("x"); h != nil {
		t.Fatalf("un-logged local version was installed: %+v", h)
	}
}

func TestDurableIdempotentReplay(t *testing.T) {
	// The same version logged twice (replication retries) must not duplicate
	// on recovery — Mem.Insert's idempotence carries through the replay.
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v := durableVersion("dup", 1, 5, vclock.VC{0, 0})
	d.Insert(v)
	d.Insert(durableVersion("dup", 1, 5, vclock.VC{0, 0}))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Versions != 1 {
		t.Fatalf("replayed %d versions for a duplicated record, want 1", st.Versions)
	}
}

// TestDurableForEachDurable: the catch-up feed streams every committed
// version in order — across a checkpoint (compacted history first, then the
// log tail, flagged as such) — while the engine keeps serving writes.
func TestDurableForEachDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{CheckpointBytes: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 1; i <= 20; i++ {
		// Distinct keys: GC prunes superseded same-key versions, and the
		// snapshot only carries survivors.
		d.Insert(durableVersion(fmt.Sprintf("k%02d", i), 0, vclock.Timestamp(i*10), vclock.VC{0, 0}))
	}
	// GC nothing (gv below every dep) but trigger the armed checkpoint.
	d.CollectGarbage(vclock.VC{0, 0})
	d.Insert(durableVersion("k99", 0, 999, vclock.VC{0, 0}))

	var got []vclock.Timestamp
	var tails int
	if err := d.ForEachDurable(nil, nil, func(v *item.Version, tail bool) error {
		got = append(got, v.UpdateTime)
		if tail {
			tails++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 20 pre-checkpoint versions (now snapshot records) + the post-one.
	if len(got) != 21 {
		t.Fatalf("streamed %d versions, want 21", len(got))
	}
	if got[len(got)-1] != 999 {
		t.Fatalf("tail version = %d, want the post-checkpoint 999", got[len(got)-1])
	}
	// The checkpoint compacted the 20 into the unordered snapshot; only the
	// version appended after it comes from the append-ordered live log.
	if tails != 1 {
		t.Fatalf("%d versions flagged tail, want only the post-checkpoint one", tails)
	}
	seen := make(map[vclock.Timestamp]bool, len(got))
	for _, ts := range got {
		seen[ts] = true
	}
	for i := 1; i <= 20; i++ {
		if !seen[vclock.Timestamp(i*10)] {
			t.Fatalf("version %d missing from the durable stream", i*10)
		}
	}
}

// TestDurableForEachDurableFirstPartNotTail: a never-checkpointed engine
// keeps every version in its one live segment, here out of timestamp order
// as a reshard copy leaves it. None may be flagged tail: a progress claim
// stamped on the first would be contradicted by the next.
func TestDurableForEachDurableFirstPartNotTail(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{CheckpointBytes: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 5; i >= 1; i-- {
		d.Insert(durableVersion(fmt.Sprintf("k%d", i), 0, vclock.Timestamp(i*10), vclock.VC{0, 0}))
	}
	var n, tails int
	if err := d.ForEachDurable(nil, nil, func(_ *item.Version, tail bool) error {
		n++
		if tail {
			tails++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 || tails != 0 {
		t.Fatalf("streamed %d versions, %d flagged tail; want 5 and 0", n, tails)
	}
}

// TestDurableForEachDurableRefusesAfterStickyError: once an append has
// failed, the log may be missing acknowledged versions, and the catch-up
// feed must fail (the sender then answers Unsupported) rather than stream a
// history it cannot prove complete.
func TestDurableForEachDurableRefusesAfterStickyError(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	d.Insert(durableVersion("a", 0, 10, vclock.VC{0, 0}))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Insert after Close: the append fails and the error sticks, while the
	// in-memory state still accepted the version.
	d.Insert(durableVersion("b", 0, 20, vclock.VC{0, 0}))
	if d.Err() == nil {
		t.Fatal("no sticky error after insert-on-closed; the scenario lost its teeth")
	}
	if err := d.ForEachDurable(nil, nil, func(*item.Version, bool) error { return nil }); err == nil {
		t.Fatal("ForEachDurable streamed from an engine with a sticky persistence error")
	}
}
