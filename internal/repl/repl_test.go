package repl

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// fakeTransport records every send.
type fakeTransport struct {
	id netemu.NodeID

	mu   sync.Mutex
	sent []struct {
		dst netemu.NodeID
		m   any
	}
}

func (t *fakeTransport) ID() netemu.NodeID { return t.id }

func (t *fakeTransport) SetHandler(netemu.Handler) {}

func (t *fakeTransport) Send(dst netemu.NodeID, m any) {
	t.mu.Lock()
	t.sent = append(t.sent, struct {
		dst netemu.NodeID
		m   any
	}{dst, m})
	t.mu.Unlock()
}

func (t *fakeTransport) msgs(dst netemu.NodeID) []any {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []any
	for _, s := range t.sent {
		if s.dst == dst {
			out = append(out, s.m)
		}
	}
	return out
}

// fakeBackend is a minimal server: a VV, an applied-version log, a clock.
type fakeBackend struct {
	clk *clock.Clock

	mu      sync.Mutex
	vv      []vclock.Timestamp
	applied []*item.Version
	stopped bool
	joined  bool
}

func newFakeBackend(dcs int) *fakeBackend {
	return &fakeBackend{clk: clock.New(0), vv: make([]vclock.Timestamp, dcs)}
}

func (b *fakeBackend) Joined() {
	b.mu.Lock()
	b.joined = true
	b.mu.Unlock()
}

func (b *fakeBackend) isJoined() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.joined
}

func (b *fakeBackend) PrepareLocal(v *item.Version) (vclock.Timestamp, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return 0, errors.New("fake backend stopped")
	}
	ut := b.clk.Now()
	v.UpdateTime = ut
	if ut > b.vv[v.SrcReplica] {
		b.vv[v.SrcReplica] = ut
	}
	return ut, nil
}

func (b *fakeBackend) ApplyRemote(vs []*item.Version, _ uint64) {
	b.mu.Lock()
	b.applied = append(b.applied, vs...)
	b.mu.Unlock()
}

func (b *fakeBackend) SlotEpoch() uint64 { return 0 }

func (b *fakeBackend) VVEntry(dc int) vclock.Timestamp {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.vv[dc]
}

func (b *fakeBackend) RaiseVV(dc int, t vclock.Timestamp) {
	b.mu.Lock()
	if t > b.vv[dc] {
		b.vv[dc] = t
	}
	b.mu.Unlock()
}

func (b *fakeBackend) DropAbove(dc int, after vclock.Timestamp) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept, dropped := b.applied[:0], 0
	for _, v := range b.applied {
		if v.SrcReplica == dc && v.UpdateTime > after {
			dropped++
			continue
		}
		kept = append(kept, v)
	}
	b.applied = kept
	return dropped
}

func (b *fakeBackend) appliedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.applied)
}

// fakeSource serves a fixed version list as the durable history — unordered
// and unindexed, like a snapshot: the window skips nothing and no version is
// flagged tail. floor is the checkpoint-compacted boundary
// (storage.Durable.CompactedFloor).
type fakeSource struct {
	vs    []*item.Version
	floor vclock.VC
}

func (s *fakeSource) ForEachDurable(_, _ vclock.VC, fn func(v *item.Version, tail bool) error) error {
	for _, v := range s.vs {
		if err := fn(v, false); err != nil {
			return err
		}
	}
	return nil
}

func (s *fakeSource) CompactedFloor() vclock.VC { return s.floor }

// flush hands the buffered updates to the transport now, as the heartbeat
// tick would (most managers here run without one).
func flush(m *Manager) {
	m.mu.Lock()
	m.flushLocked()
	m.mu.Unlock()
}

func newTestManager(t *testing.T, cfg Config) (*Manager, *fakeTransport, *fakeBackend) {
	t.Helper()
	return newServingManager(t, cfg, nil)
}

// newServingManager is newTestManager with a durable history to serve
// catch-up streams from.
func newServingManager(t *testing.T, cfg Config, src Source) (*Manager, *fakeTransport, *fakeBackend) {
	t.Helper()
	tr := &fakeTransport{id: cfg.ID}
	dcs := cfg.MaxDCs
	if dcs == 0 {
		dcs = cfg.NumDCs
	}
	be := newFakeBackend(dcs)
	cfg.Clock = be.clk
	cfg.Endpoint = tr
	m, err := NewManager(cfg, be, src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(false) })
	return m, tr, be
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return false
}

func ver(dc int, ts vclock.Timestamp, key string) *item.Version {
	return &item.Version{Key: key, Value: []byte("v"), SrcReplica: dc, UpdateTime: ts, Deps: vclock.New(3)}
}

// TestPublishSequencesBatches: flushed batches carry the incarnation epoch
// and gap-free sequence numbers, identically on every link.
func TestPublishSequencesBatches(t *testing.T) {
	m, tr, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
		HeartbeatInterval: time.Hour, // timed flushing effectively off: size-driven flushes only
	})
	for i := 0; i < 3*batchCap; i++ {
		if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
			t.Fatal("publish refused")
		}
	}
	for dc := 1; dc < 3; dc++ {
		got := tr.msgs(netemu.NodeID{DC: dc, Partition: 0})
		if len(got) != 3 {
			t.Fatalf("dc%d got %d messages, want 3 batches", dc, len(got))
		}
		for i, raw := range got {
			b, ok := raw.(*msg.ReplicateBatch)
			if !ok {
				t.Fatalf("dc%d message %d is %T", dc, i, raw)
			}
			if b.Epoch != m.Epoch() || b.Seq != uint64(i+1) {
				t.Fatalf("dc%d message %d: (epoch %d, seq %d), want (%d, %d)",
					dc, i, b.Epoch, b.Seq, m.Epoch(), i+1)
			}
			if len(b.Versions) != batchCap {
				t.Fatalf("batch of %d versions, want %d", len(b.Versions), batchCap)
			}
		}
	}
}

// TestInOrderBatchesAdvanceVV: an intact sequence applies and advances the
// VV; a duplicate redelivery does not regress anything.
func TestInOrderBatchesAdvanceVV(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	b1 := &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1}
	b2 := &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 200, "b")}, HBTime: 200, Epoch: 7, Seq: 2}
	m.handleBatch(src, b1)
	m.handleBatch(src, b2)
	m.handleBatch(src, b2) // at-least-once redelivery
	if got := be.VVEntry(1); got != 200 {
		t.Fatalf("VV[1] = %d, want 200", got)
	}
	if n := be.appliedCount(); n != 3 {
		t.Fatalf("applied %d versions, want 3 (dup re-applied idempotently)", n)
	}
	if reqs := tr.msgs(src); len(reqs) != 0 {
		t.Fatalf("unexpected outbound traffic %v", reqs)
	}
	m.handleHeartbeat(src, &msg.Heartbeat{Time: 500, Epoch: 7, Seq: 2})
	if got := be.VVEntry(1); got != 500 {
		t.Fatalf("VV[1] = %d after in-sequence heartbeat, want 500", got)
	}
}

// TestGapFreezesVVAndRequestsCatchUp: a sequence hole installs the versions
// but freezes the VV entry and asks the sender for the missing history;
// Done completes the round, raises the VV through the stream, and splices
// the batches that arrived meanwhile.
func TestGapFreezesVVAndRequestsCatchUp(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	// Seq 2 and 3 lost; 4 arrives.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d after a gap, want it frozen at 100", got)
	}
	out := tr.msgs(src)
	if len(out) != 1 {
		t.Fatalf("outbound = %v, want one CatchUpRequest", out)
	}
	req, ok := out[0].(msg.CatchUpRequest)
	if !ok || req.From != 100 {
		t.Fatalf("request = %#v, want From=100", out[0])
	}
	if st := m.Stats(); st.Requested != 1 || st.ActiveIn != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Batch 5 arrives during the round: applied, chained, VV still frozen.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 500, "e")}, HBTime: 500, Epoch: 7, Seq: 5})
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d during catch-up, want 100", got)
	}
	// The stream ships the missing seq 2-3 versions and resumes at seq 4.
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req.ReqID, Chunk: 1,
		Versions: []*item.Version{ver(1, 200, "b"), ver(1, 300, "c")},
	})
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
	})
	// Through=400 plus the chained seq-5 batch: VV lands at 500.
	if got := be.VVEntry(1); got != 500 {
		t.Fatalf("VV[1] = %d after catch-up, want 500 (Through + spliced chain)", got)
	}
	if st := m.Stats(); st.Completed != 1 || st.ActiveIn != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The link is resynced: seq 6 continues normally.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 600, "f")}, HBTime: 600, Epoch: 7, Seq: 6})
	if got := be.VVEntry(1); got != 600 {
		t.Fatalf("VV[1] = %d after resync, want 600", got)
	}
	if st := m.Stats(); st.Requested != 1 {
		t.Fatalf("resynced link re-requested: %+v", st)
	}
}

// TestNilVersionListDropped: the wire carries nil markers in a version list,
// so a peer can deliver a batch or a catch-up chunk holding a nil version.
// Nothing may read such a list — not the VV advance, not the store — so it is
// dropped unapplied and unacknowledged, without advancing the link: the
// batch's sequence number becomes a hole that catch-up repairs, as it does a
// lost batch.
func TestNilVersionListDropped(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	for _, vs := range [][]*item.Version{{nil}, {nil, ver(1, 90, "a")}, {ver(1, 90, "a"), nil}} {
		if !m.Handle(src, &msg.ReplicateBatch{Versions: vs, HBTime: 5, Epoch: 7, Seq: 1}) {
			t.Fatal("a batch is not the plane's")
		}
	}
	if n, vv := be.appliedCount(), be.VVEntry(1); n != 0 || vv != 0 {
		t.Fatalf("a batch holding a nil version was read: %d versions applied, VV[1] = %d", n, vv)
	}
	// Seq 1 never counted: seq 2 is a hole, repaired by catch-up.
	m.Handle(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 200, "b")}, HBTime: 200, Epoch: 7, Seq: 2})
	out := tr.msgs(src)
	if len(out) != 1 {
		t.Fatalf("outbound = %v, want one CatchUpRequest", out)
	}
	req, ok := out[0].(msg.CatchUpRequest)
	if !ok {
		t.Fatalf("outbound = %#v, want a CatchUpRequest", out[0])
	}
	if got := be.VVEntry(1); got != 0 {
		t.Fatalf("VV[1] = %d past the dropped batch, want it frozen at 0", got)
	}
	applied := be.appliedCount()
	m.Handle(src, msg.CatchUpReply{ReqID: req.ReqID, Chunk: 1, Versions: []*item.Version{ver(1, 100, "a"), nil}})
	m.Handle(src, msg.CatchUpReply{ReqID: req.ReqID, Done: true, Versions: []*item.Version{nil},
		ResumeEpoch: 7, ResumeSeq: 1, Through: 100})
	if n := be.appliedCount(); n != applied || len(tr.msgs(src)) != 1 {
		t.Fatalf("a chunk holding a nil version was read: %d versions applied (want %d), outbound %v", n, applied, tr.msgs(src))
	}
	if st := m.LinkStates()[1]; st != LinkCatchingUp {
		t.Fatalf("link state %v after a dropped Done, want still catching-up", st)
	}
	// The repaired round completes as usual.
	m.Handle(src, msg.CatchUpReply{ReqID: req.ReqID, Done: true, Versions: []*item.Version{ver(1, 100, "a")},
		ResumeEpoch: 7, ResumeSeq: 1, Through: 100})
	if got := be.VVEntry(1); got != 200 {
		t.Fatalf("VV[1] = %d after catch-up, want 200 (Through + spliced chain)", got)
	}
}

// TestCatchUpDeferredBatchOutlivesNextDecode: a batch parked while a round is
// pending outlives its lease. The TCP decoder lends a batch and its version
// list only until the next Decode, so the parked list must be a copy: batch
// A, decoded and parked, then batch B, decoded through the same decoder —
// the round's completion must apply A's versions, not whatever B left in
// the lent list.
func TestCatchUpDeferredBatchOutlivesNextDecode(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	if st := m.LinkStates()[1]; st != LinkCatchingUp {
		t.Fatalf("link state %v after a gap, want catching-up", st)
	}
	req := tr.msgs(src)[0].(msg.CatchUpRequest)

	var stream bytes.Buffer
	enc := wire.NewBinaryEncoder(&stream)
	for _, b := range []*msg.ReplicateBatch{
		{Versions: []*item.Version{ver(1, 500, "A1"), ver(1, 510, "A2")}, HBTime: 510, Epoch: 7, Seq: 5},
		{Versions: []*item.Version{ver(1, 600, "B1")}, HBTime: 600, Epoch: 7, Seq: 6},
	} {
		if err := enc.Encode(wire.Envelope{Src: src, Msg: b}); err != nil {
			t.Fatal(err)
		}
	}
	dec := wire.NewBinaryDecoder(&stream)
	env, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	before := be.appliedCount()
	if !m.Handle(env.Src, env.Msg) || m.Stats().Deferred != 1 || be.appliedCount() != before {
		t.Fatalf("batch A was not parked: stats %+v", m.Stats())
	}
	if _, err := dec.Decode(); err != nil { // batch B takes the lent list
		t.Fatal(err)
	}

	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
	})
	be.mu.Lock()
	defer be.mu.Unlock()
	applied := make(map[string]vclock.Timestamp)
	for _, v := range be.applied[before:] {
		if v != nil {
			applied[v.Key] = v.UpdateTime
		}
	}
	if applied["A1"] != 500 || applied["A2"] != 510 || len(applied) != 2 {
		t.Fatalf("the round applied %v, want batch A's versions A1@500 and A2@510", applied)
	}
}

// TestDoneWithHoleGoesAgain: a round whose resume point does not reach the
// chain observed meanwhile needs another one. The link never leaves
// catching-up in between — no flap through idle or active for LinkStates,
// CatchUpsActive or a join's "every link synced" test to see — and the
// follow-up starts from the first round's Through.
func TestDoneWithHoleGoesAgain(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	first := tr.msgs(src)[0].(msg.CatchUpRequest)
	// A second hole opens during the round: seq 5-6 are lost too, so the
	// chain restarts at 7 and cannot splice onto a resume point of 4.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 700, "g")}, HBTime: 700, Epoch: 7, Seq: 7})
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: first.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
	})
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d, want 400: Through is attested, the unspliced chain is not", got)
	}
	out := tr.msgs(src)
	if len(out) != 2 {
		t.Fatalf("outbound = %v, want a second CatchUpRequest", out)
	}
	second := out[1].(msg.CatchUpRequest)
	if second.ReqID == first.ReqID || second.From != 400 {
		t.Fatalf("follow-up = %#v, want a new round from 400", second)
	}
	if st := m.Stats(); st.Completed != 1 || st.Requested != 2 || st.ActiveIn != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := m.LinkStates()[1]; got != LinkCatchingUp {
		t.Fatalf("link = %v between the rounds, want catching-up", got)
	}
	// A duplicate of the first Done is stale now, not a second completion.
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: first.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
	})
	if st := m.Stats(); st.Completed != 1 || st.Requested != 2 {
		t.Fatalf("duplicate Done was not ignored: %+v", st)
	}
	// The second round covers the new hole and connects to the chain.
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: second.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 7, Through: 700,
		Versions: []*item.Version{ver(1, 500, "e"), ver(1, 600, "f")},
	})
	if got := be.VVEntry(1); got != 700 {
		t.Fatalf("VV[1] = %d after the second round, want 700", got)
	}
	if st := m.Stats(); st.Completed != 2 || st.ActiveIn != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := m.LinkStates()[1]; got != LinkActive {
		t.Fatalf("link = %v, want active", got)
	}
}

// TestEpochZeroIsNoBypass: epoch 0 used to mark an unsequenced sender whose
// messages raised the receiver's VV with no gap check. No sender stamps it —
// an epoch is a clock reading — so off the wire it is a corrupt or hostile
// frame, and it must not thaw a link a sequence hole has frozen.
func TestEpochZeroIsNoBypass(t *testing.T) {
	m, _, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	// Seq 2 and 3 lost; 4 arrives and freezes the entry at 100.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 900, "z")}, HBTime: 900})
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d after an epoch-0 batch on a frozen link, want 100", got)
	}
	m.handleHeartbeat(src, &msg.Heartbeat{Time: 950})
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d after an epoch-0 heartbeat on a frozen link, want 100", got)
	}
}

// TestEpochChangeTriggersCatchUp: a restarted sender (new epoch) is
// detected even when idle — on its first heartbeat.
func TestEpochChangeTriggersCatchUp(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	m.handleHeartbeat(src, &msg.Heartbeat{Time: 900, Epoch: 8, Seq: 0}) // new incarnation
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d, want the heartbeat of a new epoch held back", got)
	}
	out := tr.msgs(src)
	if len(out) != 1 {
		t.Fatalf("outbound = %v, want one CatchUpRequest", out)
	}
	if _, ok := out[0].(msg.CatchUpRequest); !ok {
		t.Fatalf("outbound = %#v, want CatchUpRequest", out[0])
	}
}

// TestFirstContactWithHistoryResyncs: a receiver that knows nothing about a
// link (it restarted) must resync when the sender's stream has history.
func TestFirstContactWithHistoryResyncs(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	be.RaiseVV(1, 250) // recovered floor from the WAL
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 900, "z")}, HBTime: 900, Epoch: 7, Seq: 9})
	if got := be.VVEntry(1); got != 250 {
		t.Fatalf("VV[1] = %d, want the floor held at 250", got)
	}
	out := tr.msgs(src)
	if len(out) != 1 {
		t.Fatalf("outbound = %v, want one CatchUpRequest", out)
	}
	if req := out[0].(msg.CatchUpRequest); req.From != 250 {
		t.Fatalf("From = %d, want the recovered floor 250", req.From)
	}
}

// TestResumableRoundPersistsChunkProgress: a catch-up stream that dies
// mid-round must not restart from scratch. Contiguously applied chunks
// carry Progress claims that persist as the link's resume floor; a chunk
// arriving out of order contributes versions but no claim (a gap in the
// stream means later claims cover history this node may not hold). The
// follow-up round then asks from max(VV, resume) — strictly past the dead
// round's applied prefix — instead of the frozen VV entry.
func TestResumableRoundPersistsChunkProgress(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	// Seq 2-3 lost; the gap opens round 1.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	out := tr.msgs(src)
	req1, ok := out[len(out)-1].(msg.CatchUpRequest)
	if !ok || req1.From != 100 {
		t.Fatalf("round 1 request = %#v, want From=100", out[len(out)-1])
	}
	// Chunk 1 applies contiguously: its claim (own history ≤ 250 delivered)
	// becomes the persisted resume floor.
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req1.ReqID, Chunk: 1,
		Versions: []*item.Version{ver(1, 200, "b")},
		Progress: vclock.VC{0, 250, 0},
	})
	// Chunk 3 arrives with chunk 2 missing: versions install, but the claim
	// must be ignored — it vouches for chunk 2's contents too.
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req1.ReqID, Chunk: 3,
		Versions: []*item.Version{ver(1, 380, "c2")},
		Progress: vclock.VC{0, 380, 0},
	})
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d mid-round, want it frozen at 100", got)
	}
	// The stream dies here (no Done). After the re-request interval the next
	// sequenced arrival re-opens the round from the resume floor.
	time.Sleep(120 * time.Millisecond)
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 500, "e")}, HBTime: 500, Epoch: 7, Seq: 5})
	out = tr.msgs(src)
	req2, ok := out[len(out)-1].(msg.CatchUpRequest)
	if !ok || req2.ReqID == req1.ReqID {
		t.Fatalf("round 2 never opened: %#v", out[len(out)-1])
	}
	if req2.From != 250 {
		t.Fatalf("round 2 From = %d, want 250 (chunk 1's claim, not the frozen VV 100, not the gapped chunk's 380)", req2.From)
	}
	if st := m.Stats(); st.Resumed != 1 {
		t.Fatalf("stats = %+v, want Resumed=1", st)
	}
	// Round 2 completes at the sender's live resume point (its stream is at
	// seq 5, everything through ts 500 streamed or previously delivered).
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req2.ReqID, Chunk: 1,
		Versions: []*item.Version{ver(1, 300, "c")},
	})
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req2.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 5, Through: 500,
	})
	if got := be.VVEntry(1); got != 500 {
		t.Fatalf("VV[1] = %d after resumed round, want 500", got)
	}
	// The link is healthy again: sequencing continues without a new round.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 600, "f")}, HBTime: 600, Epoch: 7, Seq: 6})
	if got := be.VVEntry(1); got != 600 {
		t.Fatalf("VV[1] = %d after resync, want 600", got)
	}
}

// TestServeCatchUpStreamsAndResumes: the serving side flushes, snapshots the
// resume point, streams the durable history filtered to (From, Through] and
// own-origin versions, and finishes with Done.
func TestServeCatchUpStreamsAndResumes(t *testing.T) {
	src := &fakeSource{vs: []*item.Version{
		ver(0, 50, "old"),     // ≤ From: receiver already has it
		ver(0, 150, "a"),      // shipped
		ver(0, 250, "b"),      // shipped
		ver(1, 180, "remote"), // other DC's origin: not ours to ship
	}}
	m, tr, be := newServingManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	}, src)
	be.RaiseVV(0, 300) // local progress; NewManager picked up 0, raise lastTS via publishes instead
	// Publish one version so lastTS covers the history (the manager's
	// resume floor was captured at construction, before RaiseVV above).
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	dst := netemu.NodeID{DC: 1, Partition: 0}
	m.handleCatchUpRequest(dst, msg.CatchUpRequest{ReqID: 42, From: 100})
	if !waitUntil(t, 2*time.Second, func() bool {
		msgs := tr.msgs(dst)
		if len(msgs) == 0 {
			return false
		}
		if rep, ok := msgs[len(msgs)-1].(msg.CatchUpReply); ok {
			return rep.Done
		}
		return false
	}) {
		t.Fatal("catch-up stream never finished")
	}
	var shipped []string
	var done msg.CatchUpReply
	for _, raw := range tr.msgs(dst) {
		rep, ok := raw.(msg.CatchUpReply)
		if !ok {
			continue // the publish's own batch
		}
		if rep.ReqID != 42 {
			t.Fatalf("reply for request %d, want 42", rep.ReqID)
		}
		for _, v := range rep.Versions {
			shipped = append(shipped, v.Key)
		}
		if rep.Done {
			done = rep
		}
	}
	want := []string{"a", "b"}
	if len(shipped) != len(want) || shipped[0] != "a" || shipped[1] != "b" {
		t.Fatalf("shipped %v, want %v", shipped, want)
	}
	if done.Unsupported || done.ResumeEpoch != m.Epoch() {
		t.Fatalf("done = %+v", done)
	}
	if st := m.Stats(); st.Served != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeCatchUpBackpressure: a stream larger than the in-flight window
// stalls once the window is full, and each ack lets more out.
func TestServeCatchUpBackpressure(t *testing.T) {
	// 40 KiB values → 2 versions per chunk; 4 windows' worth of them. The
	// versions share one value: the window counts wire bytes, not heap.
	big := bytes.Repeat([]byte("x"), 40<<10)
	const perChunk = 2
	chunkBytes := perChunk * versionBytes(&item.Version{Key: "k", Value: big, Deps: vclock.New(3)})
	chunks := 4 * catchUpWindow / chunkBytes
	fits := catchUpWindow / chunkBytes // chunks the window admits un-acked
	var vs []*item.Version
	for i := 0; i < perChunk*chunks; i++ {
		v := ver(0, vclock.Timestamp(100+i), "k")
		v.Value = big
		vs = append(vs, v)
	}
	m, tr, _ := newServingManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	}, &fakeSource{vs: vs})
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	dst := netemu.NodeID{DC: 1, Partition: 0}
	m.handleCatchUpRequest(dst, msg.CatchUpRequest{ReqID: 1, From: 0})

	replies := func() []msg.CatchUpReply {
		var out []msg.CatchUpReply
		for _, raw := range tr.msgs(dst) {
			if rep, ok := raw.(msg.CatchUpReply); ok {
				out = append(out, rep)
			}
		}
		return out
	}
	if !waitUntil(t, 2*time.Second, func() bool { return len(replies()) == fits }) {
		t.Fatalf("window never filled: %d replies, want %d", len(replies()), fits)
	}
	// No ack: the stream must stall on the window.
	time.Sleep(20 * time.Millisecond)
	if got := len(replies()); got != fits {
		t.Fatalf("%d replies without an ack, want the window to hold at %d", got, fits)
	}
	// Ack chunks until Done.
	for i := 0; i < 2*chunks; i++ {
		rs := replies()
		last := rs[len(rs)-1]
		if last.Done {
			if last.Unsupported {
				t.Fatalf("done = %+v", last)
			}
			return
		}
		m.handleCatchUpAck(dst, msg.CatchUpAck{ReqID: 1, Chunk: last.Chunk})
		if !waitUntil(t, 2*time.Second, func() bool { return len(replies()) > len(rs) }) {
			t.Fatalf("ack of chunk %d did not open the window", last.Chunk)
		}
	}
	t.Fatal("stream never finished")
}

// TestUnsupportedFallsBackOptimistically: a sender without a durable source
// answers Unsupported and the receiver resumes on the reply's word alone.
func TestUnsupportedFallsBackOptimistically(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 300, "c")}, HBTime: 300, Epoch: 7, Seq: 3})
	out := tr.msgs(src)
	req := out[0].(msg.CatchUpRequest)
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req.ReqID, Done: true, Unsupported: true, ResumeEpoch: 7, ResumeSeq: 3, Through: 300,
	})
	if got := be.VVEntry(1); got != 300 {
		t.Fatalf("VV[1] = %d, want the optimistic fallback advance to 300", got)
	}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d, want 400 (link resynced)", got)
	}
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

// TestJoinRequestExtendsFanout: a sibling that accepts a joiner starts
// replicating to it immediately — the joiner needs the live stream to
// splice onto its catch-up bootstrap — and answers with its merged view.
func TestJoinRequestExtendsFanout(t *testing.T) {
	m, tr, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2, MaxDCs: 3,
	})
	joiner := netemu.NodeID{DC: 2, Partition: 0}
	view := msg.Membership{Epoch: 1, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCJoining}}
	m.handleJoinRequest(joiner, msg.JoinRequest{DC: 2, View: view})

	out := tr.msgs(joiner)
	if len(out) != 1 {
		t.Fatalf("outbound to joiner = %v, want the merged view", out)
	}
	acc, ok := out[0].(msg.MembershipUpdate)
	if !ok {
		t.Fatalf("reply is %T, want MembershipUpdate", out[0])
	}
	if acc.View.Get(2) != msg.DCJoining || acc.View.Get(0) != msg.DCActive {
		t.Fatalf("accepted view = %+v", acc.View)
	}
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	flush(m)
	batches := 0
	for _, raw := range tr.msgs(joiner) {
		if _, ok := raw.(*msg.ReplicateBatch); ok {
			batches++
		}
	}
	if batches != 1 {
		t.Fatalf("joiner received %d batches after the accept, want 1", batches)
	}
	if len(tr.msgs(netemu.NodeID{DC: 1, Partition: 0})) == 0 {
		t.Fatal("existing sibling fell out of the fan-out")
	}
}

// TestLeaveFlushesThenNotifies: Leave sends the buffered tail first and the
// LeaveNotice second on the same link (the FIFO order the receiver's
// completeness claim rests on), then goes silent.
func TestLeaveFlushesThenNotifies(t *testing.T) {
	m, tr, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
		HeartbeatInterval: time.Hour,
	})
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	final := m.Leave()
	sib := netemu.NodeID{DC: 1, Partition: 0}
	out := tr.msgs(sib)
	if len(out) != 2 {
		t.Fatalf("outbound = %v, want [batch, notice]", out)
	}
	b, ok := out[0].(*msg.ReplicateBatch)
	if !ok {
		t.Fatalf("first message is %T, want the final flush", out[0])
	}
	n, ok := out[1].(msg.LeaveNotice)
	if !ok {
		t.Fatalf("second message is %T, want the LeaveNotice", out[1])
	}
	if n.DC != 0 || n.Final != final || n.Final < b.Versions[len(b.Versions)-1].UpdateTime {
		t.Fatalf("notice = %+v (final %d), must cover the flushed tail", n, final)
	}
	if n.View.Get(0) != msg.DCLeft {
		t.Fatalf("notice view = %+v, must mark the leaver departed", n.View)
	}
	// A departed node refuses new writes — an acked write after the notice
	// would replicate to nobody — and sends nothing more.
	if _, err := m.Publish(&item.Version{Key: "k2", SrcReplica: 0}); err == nil {
		t.Fatal("publish accepted after the leave announcement")
	}
	m.Close(true)
	if got := len(tr.msgs(sib)); got != 2 {
		t.Fatalf("outbound after leave = %d messages, want the original 2", got)
	}
}

// TestLeaveNoticeRetiresLink: a notice cancels the catch-up round pending
// on the link (nobody is left to answer it), raises the entry to the
// announced final timestamp, and drops the DC from the fan-out.
func TestLeaveNoticeRetiresLink(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	if st := m.Stats(); st.ActiveIn != 1 {
		t.Fatalf("stats = %+v, want one frozen link", st)
	}
	view := msg.Membership{Epoch: 2, Status: []uint8{msg.DCActive, msg.DCLeft, msg.DCActive}}
	m.handleLeaveNotice(src, msg.LeaveNotice{DC: 1, Final: 400, View: view})
	if st := m.Stats(); st.ActiveIn != 0 {
		t.Fatalf("stats = %+v, want the pending round cancelled", st)
	}
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d, want the final timestamp 400", got)
	}
	if m.View().Get(1) != msg.DCLeft {
		t.Fatalf("view = %+v, want dc1 departed", m.View())
	}
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	flush(m)
	for _, raw := range tr.msgs(src) {
		if _, ok := raw.(*msg.ReplicateBatch); ok {
			t.Fatal("batch sent to a departed DC")
		}
	}
	if got := len(tr.msgs(netemu.NodeID{DC: 2, Partition: 0})); got == 0 {
		t.Fatal("surviving sibling fell out of the fan-out")
	}
	// A straggler from the departed DC is applied but starts no round.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 380, "s")}, HBTime: 380, Epoch: 7, Seq: 3})
	if st := m.Stats(); st.ActiveIn != 0 {
		t.Fatalf("stats = %+v after a straggler, want no round toward the dead DC", st)
	}
}

// TestJoiningBootstrapAnnouncesActive walks a joiner through its whole
// bootstrap: JoinRequests at start, catch-up on the link with history,
// adoption on the fresh link, and — once both are synced — the Active
// announcement and the backend signal.
func TestJoiningBootstrapAnnouncesActive(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 2, Partition: 0}, NumDCs: 3, Joining: true,
		Membership: msg.Membership{Epoch: 1, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCJoining}},
	})
	sib0 := netemu.NodeID{DC: 0, Partition: 0}
	sib1 := netemu.NodeID{DC: 1, Partition: 0}
	for _, sib := range []netemu.NodeID{sib0, sib1} {
		out := tr.msgs(sib)
		if len(out) != 1 {
			t.Fatalf("outbound to %v = %v, want one JoinRequest", sib, out)
		}
		if req := out[0].(msg.JoinRequest); req.DC != 2 || req.View.Get(2) != msg.DCJoining {
			t.Fatalf("request = %+v", req)
		}
	}
	if m.Bootstrapped() || be.isJoined() {
		t.Fatal("joiner bootstrapped before hearing from anyone")
	}

	// dc0 has history (seq 5): the joiner must pull it via catch-up.
	m.handleHeartbeat(sib0, &msg.Heartbeat{Time: 500, Epoch: 7, Seq: 5, Floor: 0})
	var req msg.CatchUpRequest
	found := false
	for _, raw := range tr.msgs(sib0) {
		if r, ok := raw.(msg.CatchUpRequest); ok {
			req, found = r, true
		}
	}
	if !found || req.From != 0 {
		t.Fatalf("no full-history CatchUpRequest to dc0 (From must be 0), got %+v", tr.msgs(sib0))
	}
	if m.Bootstrapped() {
		t.Fatal("bootstrapped with a round in flight")
	}

	// dc1 is fresh (seq 0, floor 0): first contact adopts it outright.
	m.handleHeartbeat(sib1, &msg.Heartbeat{Time: 400, Epoch: 9, Seq: 0, Floor: 0})
	if m.Bootstrapped() {
		t.Fatal("bootstrapped while dc0's catch-up is still pending")
	}

	// dc0's stream arrives and completes.
	m.handleCatchUpReply(sib0, msg.CatchUpReply{
		ReqID: req.ReqID, Chunk: 1, Versions: []*item.Version{ver(0, 100, "a"), ver(0, 450, "b")},
	})
	m.handleCatchUpReply(sib0, msg.CatchUpReply{
		ReqID: req.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 5, Through: 500,
	})

	if !m.Bootstrapped() || !be.isJoined() {
		t.Fatal("joiner did not finish its bootstrap")
	}
	if got := m.View().Get(2); got != msg.DCActive {
		t.Fatalf("joiner's own status = %d, want Active", got)
	}
	for _, sib := range []netemu.NodeID{sib0, sib1} {
		announced := false
		for _, raw := range tr.msgs(sib) {
			if up, ok := raw.(msg.MembershipUpdate); ok && up.View.Get(2) == msg.DCActive {
				announced = true
			}
		}
		if !announced {
			t.Fatalf("no Active announcement reached %v", sib)
		}
	}
	if got := be.VVEntry(0); got != 500 {
		t.Fatalf("VV[0] = %d, want 500 (raised through the stream)", got)
	}
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d, want 400 (adopted heartbeat)", got)
	}
}

// TestEvictRoundExcusesDepartedSurvivor: a survivor that leaves while an
// eviction round is open — its LeaveNotice was in flight when the proposals
// went out — will never ack, and the round must not wait for it.
func TestEvictRoundExcusesDepartedSurvivor(t *testing.T) {
	m, tr, be := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 4})
	be.RaiseVV(1, 300)
	type verdict struct {
		final vclock.Timestamp
		err   error
	}
	done := make(chan verdict, 1)
	go func() {
		final, err := m.ProposeEvict(1, 2*time.Second)
		done <- verdict{final, err}
	}()
	sib2, sib3 := netemu.NodeID{DC: 2, Partition: 0}, netemu.NodeID{DC: 3, Partition: 0}
	var prop msg.EvictProposal
	if !waitUntil(t, time.Second, func() bool {
		for _, raw := range tr.msgs(sib3) {
			if p, ok := raw.(msg.EvictProposal); ok {
				prop = p
				return true
			}
		}
		return false
	}) {
		t.Fatal("no proposal reached the survivor that is about to leave")
	}
	m.handleEvictAck(sib2, msg.EvictAck{DC: 1, ReqID: prop.ReqID, Entry: 400})
	m.handleLeaveNotice(sib3, msg.LeaveNotice{DC: 3, Final: 900, View: msg.Membership{
		Epoch: 2, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCActive, msg.DCLeft},
	}})
	select {
	case v := <-done:
		if v.err != nil || v.final != 400 {
			t.Fatalf("round ended with (%d, %v), want the acked maximum 400", v.final, v.err)
		}
	case <-time.After(time.Second):
		t.Fatal("the round still awaits the departed survivor's ack")
	}
}
