package repl

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
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
	// onVVEntry, when set, runs once on the next VVEntry, before it reads:
	// a test's way into the middle of a handler.
	onVVEntry func()
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
	hook := b.onVVEntry
	b.onVVEntry = nil
	b.mu.Unlock()
	if hook != nil {
		hook()
	}
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

// fakeSource serves a fixed version list as the durable history, unindexed:
// the window skips nothing. floor is the checkpoint-compacted boundary
// (storage.Durable.CompactedFloor).
type fakeSource struct {
	vs    []*item.Version
	floor vclock.VC
}

func (s *fakeSource) ForEachDurable(_, _ vclock.VC, fn func(v *item.Version) error) error {
	for _, v := range s.vs {
		if err := fn(v); err != nil {
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
	m, err := NewManager(cfg, be, src, new(Counters))
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
		ReqID: req.ReqID, Chunk: 1, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
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
	m.Handle(src, msg.CatchUpReply{ReqID: req.ReqID, Chunk: 1, Done: true, Versions: []*item.Version{nil},
		ResumeEpoch: 7, ResumeSeq: 1, Through: 100})
	if n := be.appliedCount(); n != applied || len(tr.msgs(src)) != 1 {
		t.Fatalf("a chunk holding a nil version was read: %d versions applied (want %d), outbound %v", n, applied, tr.msgs(src))
	}
	if st := m.LinkStates()[1]; st != LinkCatchingUp {
		t.Fatalf("link state %v after a dropped Done, want still catching-up", st)
	}
	// The round's Done counts the dropped chunk: it raises nothing, and the
	// round goes again from the unraised floor.
	m.Handle(src, msg.CatchUpReply{ReqID: req.ReqID, Chunk: 1, Done: true,
		ResumeEpoch: 7, ResumeSeq: 1, Through: 100})
	if got := be.VVEntry(1); got != 0 {
		t.Fatalf("VV[1] = %d after a round missing its chunk, want it frozen at 0", got)
	}
	out = tr.msgs(src)
	again, ok := out[len(out)-1].(msg.CatchUpRequest)
	if !ok || again.ReqID == req.ReqID || again.From != 0 {
		t.Fatalf("last message = %#v, want a new round from 0", out[len(out)-1])
	}
	// The repaired round completes as usual.
	m.Handle(src, msg.CatchUpReply{ReqID: again.ReqID, Chunk: 1,
		Versions: []*item.Version{ver(1, 100, "a"), ver(1, 200, "b")}})
	m.Handle(src, msg.CatchUpReply{ReqID: again.ReqID, Chunk: 1, Done: true,
		ResumeEpoch: 7, ResumeSeq: 2, Through: 200})
	if got := be.VVEntry(1); got != 200 {
		t.Fatalf("VV[1] = %d after catch-up, want the repaired round's Through 200", got)
	}
}

// TestCatchUpBatchAppliedBeforeNextDecode: a batch arriving while a round is
// pending is applied inline, like one on an active link. The TCP decoder
// lends a batch and its version list only until the next Decode, so nothing
// may hold the list past the handler: batch A, decoded and handled, must be
// in the store before batch B is decoded through the same decoder, and the
// round's Done then raises through A's chain tip over versions already
// installed.
func TestCatchUpBatchAppliedBeforeNextDecode(t *testing.T) {
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
	appliedA := func() map[string]vclock.Timestamp {
		be.mu.Lock()
		defer be.mu.Unlock()
		out := make(map[string]vclock.Timestamp)
		for _, v := range be.applied[before:] {
			if v != nil {
				out[v.Key] = v.UpdateTime
			}
		}
		return out
	}
	if !m.Handle(env.Src, env.Msg) {
		t.Fatal("batch A not handled by the replication plane")
	}
	if got := appliedA(); got["A1"] != 500 || got["A2"] != 510 || len(got) != 2 {
		t.Fatalf("Handle applied %v, want batch A's versions A1@500 and A2@510 before the next decode", got)
	}
	if _, err := dec.Decode(); err != nil { // batch B takes the lent list
		t.Fatal(err)
	}
	if got := appliedA(); got["A1"] != 500 || got["A2"] != 510 || len(got) != 2 {
		t.Fatalf("after the next decode the store holds %v, want A1@500 and A2@510", got)
	}

	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
	})
	if got := be.VVEntry(1); got != 510 {
		t.Fatalf("VV[1] = %d after the Done, want batch A's chain tip 510", got)
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

// TestDoneOverLostChunkGoesAgain: a round is all or nothing. A Done whose
// chunk count shows a chunk missing (lost with a broken connection, or
// dropped unread) raises nothing: its Through and its departed-origin claims
// would vouch for the lost chunk's versions. The link stays catching-up and
// the next round asks from the floor held before the round.
func TestDoneOverLostChunkGoesAgain(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	first := tr.msgs(src)[0].(msg.CatchUpRequest)
	// Chunk 1 never arrives; chunk 2 and the Done counting both do.
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: first.ReqID, Chunk: 2, Versions: []*item.Version{ver(1, 300, "c")},
	})
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: first.ReqID, Chunk: 2, Done: true, ResumeEpoch: 7, ResumeSeq: 4, Through: 400,
		Departed: []msg.DepartedClaim{{DC: 2, Through: 300}},
	})
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d, want the floor 100: chunk 1 of the round never arrived", got)
	}
	if got := be.VVEntry(2); got != 0 {
		t.Fatalf("VV[2] = %d, want 0: the incomplete round's departed claim is not raised", got)
	}
	if got := m.LinkStates()[1]; got != LinkCatchingUp {
		t.Fatalf("link = %v after an incomplete round, want catching-up", got)
	}
	out := tr.msgs(src)
	again, ok := out[len(out)-1].(msg.CatchUpRequest)
	if !ok || again.ReqID == first.ReqID || again.From != 100 {
		t.Fatalf("last message = %#v, want a new round from the floor 100", out[len(out)-1])
	}
	if st := m.Stats(); st.Completed != 0 || st.Requested != 2 || st.ActiveIn != 1 {
		t.Fatalf("stats = %+v, want two rounds requested, none completed", st)
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
	var chunks uint64
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
		} else {
			chunks++
		}
	}
	want := []string{"a", "b"}
	if len(shipped) != len(want) || shipped[0] != "a" || shipped[1] != "b" {
		t.Fatalf("shipped %v, want %v", shipped, want)
	}
	if done.Unsupported || done.ResumeEpoch != m.Epoch() || done.Chunk != chunks {
		t.Fatalf("done = %+v, want the resume point after %d chunks", done, chunks)
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
			if last.Unsupported || last.Chunk != uint64(len(rs)-1) {
				t.Fatalf("done = %+v, want the count of the %d chunks before it", last, len(rs)-1)
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

// pipe connects managers directly: a send is handled at once by the manager
// at its destination, unless drop claims it (called under the pipe's lock).
type pipe struct {
	mu    sync.Mutex
	nodes map[netemu.NodeID]*Manager
	drop  func(m any) bool
}

// pipeEnd is one manager's transport on a pipe.
type pipeEnd struct {
	p  *pipe
	id netemu.NodeID
}

func (e pipeEnd) ID() netemu.NodeID { return e.id }

func (e pipeEnd) SetHandler(netemu.Handler) {}

func (e pipeEnd) Send(dst netemu.NodeID, m any) {
	e.p.mu.Lock()
	to := e.p.nodes[dst]
	lost := e.p.drop != nil && e.p.drop(m)
	e.p.mu.Unlock()
	if to != nil && !lost {
		to.Handle(e.id, m)
	}
}

// join starts a manager at id on the pipe.
func (p *pipe) join(t *testing.T, id netemu.NodeID, be *fakeBackend, src Source) *Manager {
	t.Helper()
	m, err := NewManager(Config{ID: id, NumDCs: 2, Clock: be.clk, Endpoint: pipeEnd{p, id}}, be, src, new(Counters))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(false) })
	p.mu.Lock()
	p.nodes[id] = m
	p.mu.Unlock()
	return m
}

// TestLostChunkCostsOneMoreRound: a chunk lost mid-stream costs exactly one
// more round, served whole, and nothing else. A recovered sender holds a
// backlog larger than the in-flight window that the receiver never saw; its
// first batch opens the round, and the wire loses chunk 3 of that round
// only. The receiver completes nothing over the hole, asks again from the
// floor, and the second round completes at the sender's Through with every
// version applied.
func TestLostChunkCostsOneMoreRound(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 40<<10)
	src := &fakeSource{}
	for i := 0; i < 2*catchUpWindow/len(big); i++ {
		v := ver(0, vclock.Timestamp(100+i), fmt.Sprintf("k%03d", i))
		v.Value = big
		src.vs = append(src.vs, v)
	}
	senderID, recvID := netemu.NodeID{DC: 0, Partition: 0}, netemu.NodeID{DC: 1, Partition: 0}
	lost := false
	p := &pipe{nodes: make(map[netemu.NodeID]*Manager), drop: func(m any) bool {
		if rep, ok := m.(msg.CatchUpReply); ok && !lost && !rep.Done && rep.Chunk == 3 {
			lost = true
			return true
		}
		return false
	}}
	senderBe, recvBe := newFakeBackend(2), newFakeBackend(2)
	senderBe.RaiseVV(0, src.vs[len(src.vs)-1].UpdateTime) // the recovered floor
	sender := p.join(t, senderID, senderBe, src)
	recv := p.join(t, recvID, recvBe, nil)

	v := &item.Version{Key: "fresh", Value: []byte("v"), SrcReplica: 0, Deps: vclock.New(2)}
	through, err := sender.Publish(v)
	if err != nil {
		t.Fatal(err)
	}
	src.vs = append(src.vs, v) // logged before it is flushed
	flush(sender)              // batch 1 above the receiver's floor: the round opens
	if !waitUntil(t, 10*time.Second, func() bool { return recvBe.VVEntry(0) == through }) {
		t.Fatalf("VV[0] = %d, want the sender's Through %d (stats %+v)", recvBe.VVEntry(0), through, recv.Stats())
	}
	p.mu.Lock()
	reached := lost
	p.mu.Unlock()
	if !reached {
		t.Fatal("the stream never reached chunk 3")
	}
	if st := recv.Stats(); st.Requested != 2 || st.Completed != 1 {
		t.Fatalf("receiver stats = %+v, want 2 rounds requested, 1 completed", st)
	}
	got := make(map[string]bool)
	recvBe.mu.Lock()
	for _, a := range recvBe.applied {
		got[a.Key] = true
	}
	recvBe.mu.Unlock()
	for _, w := range src.vs {
		if !got[w.Key] {
			t.Fatalf("version %s@%d never applied", w.Key, w.UpdateTime)
		}
	}
	if st := recv.LinkStates()[0]; st != LinkActive {
		t.Fatalf("link = %v, want active", st)
	}
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

// departResult is what a departure round returned.
type departResult struct {
	final vclock.Timestamp
	err   error
}

// goLeave starts m's Leave on its own goroutine: the call blocks until the
// survivors attest the final.
func goLeave(m *Manager, timeout time.Duration) <-chan departResult {
	done := make(chan departResult, 1)
	go func() {
		final, err := m.Leave(timeout)
		done <- departResult{final, err}
	}()
	return done
}

// proposalTo waits for the newest EvictProposal sent to dst.
func proposalTo(t *testing.T, tr *fakeTransport, dst netemu.NodeID) (prop msg.EvictProposal) {
	t.Helper()
	if !waitUntil(t, time.Second, func() bool {
		for _, raw := range tr.msgs(dst) {
			if p, ok := raw.(msg.EvictProposal); ok {
				prop = p
			}
		}
		return prop.ReqID != 0
	}) {
		t.Fatalf("no proposal reached %v", dst)
	}
	return prop
}

// TestLeaveFlushesThenProposes: Leave sends the buffered tail first and then
// proposes its own departure on the same link, with a final that covers the
// tail and a view that still counts the leaver Active (a survivor that saw
// it Left would cancel the round fetching its tail). Writes are refused from
// the start of the leave; the verdict, sent once the survivor attests the
// final, is the leaver's last message.
func TestLeaveFlushesThenProposes(t *testing.T) {
	m, tr, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
		HeartbeatInterval: time.Hour,
	})
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	done := goLeave(m, 5*time.Second)
	sib := netemu.NodeID{DC: 1, Partition: 0}
	prop := proposalTo(t, tr, sib)
	out := tr.msgs(sib)
	b, ok := out[0].(*msg.ReplicateBatch)
	if !ok {
		t.Fatalf("first message is %T, want the final flush", out[0])
	}
	if _, ok := out[1].(msg.EvictProposal); !ok {
		t.Fatalf("second message is %T, want the proposal", out[1])
	}
	if prop.DC != 0 || prop.Final < b.Versions[len(b.Versions)-1].UpdateTime {
		t.Fatalf("proposal = %+v, its final must cover the flushed tail", prop)
	}
	if prop.View.Get(0) != msg.DCActive {
		t.Fatalf("proposal view = %+v, must still count the leaver Active", prop.View)
	}
	// A leaving node refuses new writes: one acked after the final would
	// replicate to nobody.
	if _, err := m.Publish(&item.Version{Key: "k2", SrcReplica: 0}); err == nil {
		t.Fatal("publish accepted after the leave started")
	}
	m.handleEvictAck(sib, msg.EvictAck{DC: 0, ReqID: prop.ReqID, Entry: prop.Final})
	select {
	case res := <-done:
		if res.err != nil || res.final != prop.Final {
			t.Fatalf("Leave = (%d, %v), want the proposed final %d", res.final, res.err, prop.Final)
		}
	case <-time.After(time.Second):
		t.Fatal("Leave did not return after the survivor attested the final")
	}
	out = tr.msgs(sib)
	up, ok := out[len(out)-1].(msg.MembershipUpdate)
	if !ok || up.View.Get(0) != msg.DCLeft || up.View.FinalOf(0) != prop.Final {
		t.Fatalf("last message = %#v, want the verdict: dc0 Left at %d", out[len(out)-1], prop.Final)
	}
	m.Close(true)
	if got := len(tr.msgs(sib)); got != len(out) {
		t.Fatalf("outbound after the verdict = %d messages, want the %d before it", got, len(out))
	}
}

// TestLeaveProposalOpensRoundOnActiveLink: the leaver's tail batch was lost
// on a synced link, and no heartbeat follows it to expose the hole. The
// proposal's final does: the survivor opens a round toward the leaver and
// acks its short entry — which the leaver does not count.
func TestLeaveProposalOpensRoundOnActiveLink(t *testing.T) {
	m, tr, be := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3})
	leaver := netemu.NodeID{DC: 1, Partition: 0}
	m.handleBatch(leaver, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	view := msg.Membership{Epoch: 1, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCActive}}
	m.handleEvictProposal(leaver, msg.EvictProposal{DC: 1, ReqID: 9, Final: 400, View: view})
	var req msg.CatchUpRequest
	var ack msg.EvictAck
	for _, raw := range tr.msgs(leaver) {
		switch mm := raw.(type) {
		case msg.CatchUpRequest:
			req = mm
		case msg.EvictAck:
			ack = mm
		}
	}
	if req.ReqID == 0 || req.From != 100 || m.LinkStates()[1] != LinkCatchingUp {
		t.Fatalf("request %+v, link %v: want a round toward the leaver from 100", req, m.LinkStates()[1])
	}
	if ack.DC != 1 || ack.ReqID != 9 || ack.Entry != 100 {
		t.Fatalf("ack = %+v, want the entry 100", ack)
	}
	// The round completes at the leaver's Through; the next proposal finds
	// the entry at the final.
	m.handleCatchUpReply(leaver, msg.CatchUpReply{ReqID: req.ReqID, Done: true, ResumeEpoch: 7, ResumeSeq: 2, Through: 400})
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d after the round, want the final 400", got)
	}

	// The leaver's side: an ack below its final leaves the survivor awaited.
	l, ltr, _ := newTestManager(t, Config{ID: netemu.NodeID{DC: 1, Partition: 0}, NumDCs: 2, HeartbeatInterval: time.Hour})
	if _, err := l.Publish(&item.Version{Key: "k", SrcReplica: 1}); err != nil {
		t.Fatal(err)
	}
	done := goLeave(l, 5*time.Second)
	sv := netemu.NodeID{DC: 0, Partition: 0}
	prop := proposalTo(t, ltr, sv)
	l.handleEvictAck(sv, msg.EvictAck{DC: 1, ReqID: prop.ReqID, Entry: prop.Final - 1})
	select {
	case res := <-done:
		t.Fatalf("Leave returned (%d, %v) on an ack below its final", res.final, res.err)
	case <-time.After(50 * time.Millisecond):
	}
	l.handleEvictAck(sv, msg.EvictAck{DC: 1, ReqID: prop.ReqID, Entry: prop.Final})
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
	case <-time.After(time.Second):
		t.Fatal("Leave did not return on an ack at its final")
	}
}

// TestLeaveTimeoutNamesShortSurvivors: a survivor that never reaches the
// final holds the leave until its timeout, whose error names that DC. The
// leaver stays retired, and a second Leave resumes the round: the same final
// is proposed — the heartbeat loop, running throughout, moves nothing on a
// retired node — and once the survivor attests it, the leave completes.
func TestLeaveTimeoutNamesShortSurvivors(t *testing.T) {
	m, tr, _ := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3, HeartbeatInterval: time.Millisecond})
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal(err)
	}
	sib1, sib2 := netemu.NodeID{DC: 1, Partition: 0}, netemu.NodeID{DC: 2, Partition: 0}
	done := goLeave(m, 200*time.Millisecond)
	first := proposalTo(t, tr, sib1)
	m.handleEvictAck(sib1, msg.EvictAck{DC: 0, ReqID: first.ReqID, Entry: first.Final})
	m.handleEvictAck(sib2, msg.EvictAck{DC: 0, ReqID: first.ReqID, Entry: first.Final - 1})
	res := <-done
	if res.err == nil || !strings.Contains(res.err.Error(), "awaiting DCs [2]") {
		t.Fatalf("Leave = (%d, %v), want a timeout naming dc2 alone", res.final, res.err)
	}
	if _, err := m.Publish(&item.Version{Key: "k2", SrcReplica: 0}); !errors.Is(err, ErrRetired) {
		t.Fatalf("publish after a timed-out leave = %v, want ErrRetired", err)
	}
	if m.View().Get(0) != msg.DCActive {
		t.Fatalf("view = %+v, a timed-out leave must not mark itself Left", m.View())
	}

	done = goLeave(m, 5*time.Second)
	var again msg.EvictProposal
	if !waitUntil(t, time.Second, func() bool {
		again = proposalTo(t, tr, sib2)
		return again.ReqID != first.ReqID
	}) {
		t.Fatal("the second Leave sent no new proposal")
	}
	if again.Final != first.Final {
		t.Fatalf("resumed final %d, want the first round's %d", again.Final, first.Final)
	}
	m.handleEvictAck(sib1, msg.EvictAck{DC: 0, ReqID: again.ReqID, Entry: again.Final})
	m.handleEvictAck(sib2, msg.EvictAck{DC: 0, ReqID: again.ReqID, Entry: again.Final})
	select {
	case res := <-done:
		if res.err != nil || res.final != first.Final {
			t.Fatalf("resumed Leave = (%d, %v), want the final %d", res.final, res.err, first.Final)
		}
	case <-time.After(time.Second):
		t.Fatal("the resumed Leave did not complete")
	}
	if m.View().Get(0) != msg.DCLeft {
		t.Fatalf("view = %+v after the verdict, want dc0 Left", m.View())
	}
}

// TestLeaveVerdictRetiresLink: the verdict of dc1's leave cancels the
// catch-up round pending on the link (nobody is left to answer it) and drops
// the DC from the fan-out. The link has a hole below the final, so the entry
// is not raised over it: a gap-fill round toward the survivor fetches the
// departed history, and the survivor's Departed claim raises the entry.
func TestLeaveVerdictRetiresLink(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	survivor := netemu.NodeID{DC: 2, Partition: 0}
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 400, "d")}, HBTime: 400, Epoch: 7, Seq: 4})
	if st := m.Stats(); st.ActiveIn != 1 {
		t.Fatalf("stats = %+v, want one frozen link", st)
	}
	view := msg.Membership{Epoch: 2, Status: []uint8{msg.DCActive, msg.DCLeft, msg.DCActive}, Final: vclock.VC{0, 400, 0}}
	m.handleMembershipUpdate(src, msg.MembershipUpdate{View: view})
	if got := be.VVEntry(1); got != 100 {
		t.Fatalf("VV[1] = %d, want 100: seq 2-3 never arrived, so the final is not attested", got)
	}
	if m.View().Get(1) != msg.DCLeft {
		t.Fatalf("view = %+v, want dc1 departed", m.View())
	}
	var fill msg.CatchUpRequest
	var fills int
	for _, raw := range tr.msgs(survivor) {
		if req, ok := raw.(msg.CatchUpRequest); ok {
			fill, fills = req, fills+1
		}
	}
	if fills != 1 || fill.Have.Get(1) != 100 {
		t.Fatalf("%d gap-fill rounds toward dc2 (last %+v), want one with Have[1] = 100", fills, fill)
	}
	if st := m.Stats(); st.ActiveIn != 1 || m.LinkStates()[2] != LinkCatchingUp {
		t.Fatalf("stats = %+v, links %v: want the round toward dc1 cancelled and only the gap-fill open", st, m.LinkStates())
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
	if got := len(tr.msgs(survivor)); got == 0 {
		t.Fatal("surviving sibling fell out of the fan-out")
	}
	// A straggler from the departed DC is applied but raises nothing and
	// starts no round: the link it came on has a hole.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 380, "s")}, HBTime: 380, Epoch: 7, Seq: 3})
	if st := m.Stats(); st.ActiveIn != 1 || be.VVEntry(1) != 100 {
		t.Fatalf("stats = %+v, VV[1] = %d after a straggler, want no round toward the dead DC and no raise", st, be.VVEntry(1))
	}
	// The survivor's Done claims the departed DC through the final.
	m.handleCatchUpReply(survivor, msg.CatchUpReply{ReqID: fill.ReqID, Done: true,
		Through: be.VVEntry(2), Departed: []msg.DepartedClaim{{DC: 1, Through: 400}}})
	if got := be.VVEntry(1); got != 400 {
		t.Fatalf("VV[1] = %d after the survivor's claim, want the final 400", got)
	}
}

// TestEvictVerdictBelowEntryRaisesFinal: a survivor acks an eviction at its
// entry 100, and a straggler the dead DC flushed before it died lifts the
// entry to 200 before the verdict arrives with a lower final (150, or 0: no
// survivor attested anything). The survivor holds the prefix through 200, so
// the cut moves up to keep it: the entry and the version at 200 stay, the
// view's final becomes 200, and the raised view goes to the proposer.
func TestEvictVerdictBelowEntryRaisesFinal(t *testing.T) {
	for _, final := range []vclock.Timestamp{150, 0} {
		t.Run(fmt.Sprintf("final %d", final), func(t *testing.T) {
			m, tr, be := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3})
			dead, proposer := netemu.NodeID{DC: 1, Partition: 0}, netemu.NodeID{DC: 2, Partition: 0}
			m.handleBatch(dead, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
			view := msg.Membership{Epoch: 1, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCActive}}
			m.handleEvictProposal(proposer, msg.EvictProposal{DC: 1, ReqID: 5, View: view})
			out := tr.msgs(proposer)
			if ack, ok := out[len(out)-1].(msg.EvictAck); !ok || ack.Entry != 100 {
				t.Fatalf("answer to the proposal = %#v, want the ack of entry 100", out[len(out)-1])
			}
			m.handleBatch(dead, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 200, "b")}, HBTime: 200, Epoch: 7, Seq: 2})
			m.handleMembershipUpdate(proposer, msg.MembershipUpdate{View: msg.Membership{
				Epoch: 2, Status: []uint8{msg.DCActive, msg.DCLeft, msg.DCActive}, Final: vclock.VC{0, final, 0},
			}})
			if got := be.VVEntry(1); got != 200 {
				t.Fatalf("VV[1] = %d, want the straggler's 200 kept", got)
			}
			if got := be.appliedCount(); got != 2 {
				t.Fatalf("%d versions stored, want both: the seal is at the entry", got)
			}
			if f := m.View().FinalOf(1); f != 200 {
				t.Fatalf("final = %d, want it raised to the entry 200", f)
			}
			out = tr.msgs(proposer)
			if up, ok := out[len(out)-1].(msg.MembershipUpdate); !ok || up.View.FinalOf(1) != 200 || up.View.Get(1) != msg.DCLeft {
				t.Fatalf("last message to the proposer = %#v, want the view raised to 200", out[len(out)-1])
			}
		})
	}
}

// TestEvictVerdictRacesStraggler delivers a straggler batch (the dead DC's
// next in sequence, holding its version at 200) concurrently with a verdict
// at final 150, again and again. Whichever runs first, the entry never
// claims what the store lacks: at 200 the version is kept and the final is
// raised to it; otherwise the entry stays at or below the final.
func TestEvictVerdictRacesStraggler(t *testing.T) {
	dead := netemu.NodeID{DC: 1, Partition: 0}
	for i := range 200 {
		m, _, be := newTestManager(t, Config{ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3})
		m.handleBatch(dead, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 100, "a")}, HBTime: 100, Epoch: 7, Seq: 1})
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			m.handleBatch(dead, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 200, "b")}, HBTime: 200, Epoch: 7, Seq: 2})
		}()
		go func() {
			defer wg.Done()
			<-start
			m.handleMembershipUpdate(netemu.NodeID{DC: 2}, msg.MembershipUpdate{View: msg.Membership{
				Epoch: 2, Status: []uint8{msg.DCActive, msg.DCLeft, msg.DCActive}, Final: vclock.VC{0, 150, 0},
			}})
		}()
		close(start)
		wg.Wait()
		vv, final, held := be.VVEntry(1), m.View().FinalOf(1), be.appliedCount()
		if vv > final || (vv >= 200) != (held == 2) {
			t.Fatalf("run %d: VV[1] = %d, final %d, %d versions stored: the entry claims what the store lacks, or the reverse", i, vv, final, held)
		}
		m.Close(false)
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
		ReqID: req.ReqID, Chunk: 1, Done: true, ResumeEpoch: 7, ResumeSeq: 5, Through: 500,
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
// eviction round is open — its verdict was in flight when the proposals
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
	m.handleMembershipUpdate(sib3, msg.MembershipUpdate{View: msg.Membership{
		Epoch: 2, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCActive, msg.DCLeft}, Final: vclock.VC{0, 0, 0, 900},
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
