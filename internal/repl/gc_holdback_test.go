package repl

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// catchUpReplies filters a transport's sends to one destination down to the
// CatchUpReply stream.
func catchUpReplies(tr *fakeTransport, dst netemu.NodeID) []msg.CatchUpReply {
	var out []msg.CatchUpReply
	for _, raw := range tr.msgs(dst) {
		if rep, ok := raw.(msg.CatchUpReply); ok {
			out = append(out, rep)
		}
	}
	return out
}

// TestFullResyncBelowCompactedFloor: a catch-up request whose resume floor
// falls below the sender's checkpoint-compacted boundary cannot be served
// incrementally (superseded versions in the range are gone). The sender must
// restart the stream from zero and say so — never ship a silently
// incomplete range.
func TestFullResyncBelowCompactedFloor(t *testing.T) {
	src := &fakeSource{
		vs: []*item.Version{
			// Everything below 200 was compacted: only the surviving heads
			// remain in the log. 150's survival is incidental (it is a head);
			// other versions below 200 are gone for good.
			ver(0, 150, "head-a"),
			ver(0, 250, "b"),
			ver(0, 400, "c"),
		},
		floor: vclock.VC{200, 0},
	}
	m, tr, _ := newServingManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	}, src)
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	dst := netemu.NodeID{DC: 1, Partition: 0}
	// The requester resumes from 100 — below the compacted boundary 200.
	m.handleCatchUpRequest(dst, msg.CatchUpRequest{ReqID: 7, From: 100})
	if !waitUntil(t, 2*time.Second, func() bool {
		reps := catchUpReplies(tr, dst)
		return len(reps) > 0 && reps[len(reps)-1].Done
	}) {
		t.Fatal("catch-up stream never finished")
	}
	var shipped []string
	var done msg.CatchUpReply
	for _, rep := range catchUpReplies(tr, dst) {
		for _, v := range rep.Versions {
			shipped = append(shipped, v.Key)
		}
		if rep.Done {
			done = rep
		}
	}
	if !done.FullResync {
		t.Fatalf("done = %+v, want FullResync (floor 100 < compacted 200)", done)
	}
	if done.Unsupported {
		t.Fatalf("done = %+v, want a served stream", done)
	}
	// The stream restarted from zero: every surviving own-origin version is
	// shipped, including the one below the requested floor.
	want := map[string]bool{"head-a": true, "b": true, "c": true}
	if len(shipped) != len(want) {
		t.Fatalf("shipped %v, want all of %v (full restream)", shipped, want)
	}
	for _, k := range shipped {
		if !want[k] {
			t.Fatalf("shipped unexpected %q", k)
		}
	}
}

// TestIncrementalAboveCompactedFloor: a resume floor at or above the
// compacted boundary is served incrementally, no resync flag.
func TestIncrementalAboveCompactedFloor(t *testing.T) {
	src := &fakeSource{
		vs: []*item.Version{
			ver(0, 250, "b"),
			ver(0, 400, "c"),
		},
		floor: vclock.VC{200, 0},
	}
	m, tr, _ := newServingManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	}, src)
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	dst := netemu.NodeID{DC: 1, Partition: 0}
	m.handleCatchUpRequest(dst, msg.CatchUpRequest{ReqID: 8, From: 250})
	if !waitUntil(t, 2*time.Second, func() bool {
		reps := catchUpReplies(tr, dst)
		return len(reps) > 0 && reps[len(reps)-1].Done
	}) {
		t.Fatal("catch-up stream never finished")
	}
	var shipped []string
	var done msg.CatchUpReply
	for _, rep := range catchUpReplies(tr, dst) {
		for _, v := range rep.Versions {
			shipped = append(shipped, v.Key)
		}
		if rep.Done {
			done = rep
		}
	}
	if done.FullResync {
		t.Fatalf("done = %+v, want incremental (floor 250 ≥ compacted 200)", done)
	}
	if len(shipped) != 1 || shipped[0] != "c" {
		t.Fatalf("shipped %v, want [c]", shipped)
	}
}

// TestReceiverCountsFullResync: the receiving side surfaces a full resync in
// its stats — the regression is observable, not silent.
func TestReceiverCountsFullResync(t *testing.T) {
	m, tr, be := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	})
	src := netemu.NodeID{DC: 1, Partition: 0}
	// A gap starts a round: seq 5 with no history known resyncs.
	m.handleBatch(src, &msg.ReplicateBatch{Versions: []*item.Version{ver(1, 500, "z")}, HBTime: 500, Epoch: 3, Seq: 5})
	out := tr.msgs(src)
	if len(out) == 0 {
		t.Fatal("no catch-up request sent")
	}
	req, ok := out[len(out)-1].(msg.CatchUpRequest)
	if !ok {
		t.Fatalf("outbound = %#v, want CatchUpRequest", out[len(out)-1])
	}
	m.handleCatchUpReply(src, msg.CatchUpReply{
		ReqID: req.ReqID, Done: true, FullResync: true,
		ResumeEpoch: 3, ResumeSeq: 5, Through: 500,
	})
	st := m.Stats()
	if st.FullResyncs != 1 {
		t.Fatalf("FullResyncs = %d, want 1 (stats %+v)", st.FullResyncs, st)
	}
	if got := be.VVEntry(1); got != 500 {
		t.Fatalf("VV[1] = %d, want 500 (round completed)", got)
	}
}

// TestGCHoldbackPinsAndReleases: a lagging catch-up requester pins the GC
// contribution at what it actually holds; the GCMaxHoldback escape hatch
// releases the pin so one wedged replica cannot hold the deployment's
// garbage forever.
func TestGCHoldbackPinsAndReleases(t *testing.T) {
	m, _, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3, GCMaxHoldback: -1,
	})
	dst := netemu.NodeID{DC: 1, Partition: 0}
	m.handleCatchUpRequest(dst, msg.CatchUpRequest{
		ReqID: 1, From: 60, Have: vclock.VC{50, 80, 120},
	})
	// The laggard holds (60, 80, 120): our own entry is its request floor
	// (From > Have[0] of the snapshot it sent).
	gv := m.ClampGC(vclock.VC{500, 500, 500})
	want := vclock.VC{60, 80, 120}
	if !gv.Equal(want) {
		t.Fatalf("ClampGC = %v, want pinned at %v", gv, want)
	}
	if m.HoldbackAge() <= 0 {
		t.Fatal("HoldbackAge = 0, want a live holdback")
	}
	// Floors only rise: a second request after partial progress.
	m.handleCatchUpRequest(dst, msg.CatchUpRequest{
		ReqID: 2, From: 90, Have: vclock.VC{90, 200, 100},
	})
	gv = m.ClampGC(vclock.VC{500, 500, 500})
	want = vclock.VC{90, 200, 120}
	if !gv.Equal(want) {
		t.Fatalf("ClampGC after progress = %v, want %v", gv, want)
	}
	// The escape hatch: a holdback older than GCMaxHoldback no longer pins GC.
	time.Sleep(2 * time.Millisecond)
	m.cfg.GCMaxHoldback = time.Millisecond
	gv = m.ClampGC(vclock.VC{500, 500, 500})
	if !gv.Equal(vclock.VC{500, 500, 500}) {
		t.Fatalf("ClampGC past GCMaxHoldback = %v, want released to 500s", gv)
	}
}

// TestClampGCJoinerPinsZero: a DC mid-bootstrap needs the full history — its
// presence zeroes the GC contribution entirely until it announces Active.
func TestClampGCJoinerPinsZero(t *testing.T) {
	m, _, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3, MaxDCs: 3, GCMaxHoldback: -1,
		Membership: msg.Membership{
			Epoch:  4,
			Status: []uint8{msg.DCActive, msg.DCActive, msg.DCJoining},
		},
	})
	gv := m.ClampGC(vclock.VC{500, 500, 500})
	if !gv.Equal(vclock.VC{0, 0, 0}) {
		t.Fatalf("ClampGC with a joiner = %v, want all-zero", gv)
	}
	if m.HoldbackAge() <= 0 {
		t.Fatal("HoldbackAge = 0, want the joiner accounted")
	}
}

// TestClampGCNeverPrunesBelowResumeFloor is the satellite property test:
// across randomized membership views and laggard populations, the clamped
// GC vector never passes any live laggard's catch-up resume floor (per
// entry, for every origin it still needs), never rises above the input, and
// zeroes out while any DC is still joining. Pruning above a resume floor
// would make the laggard's next incremental catch-up silently incomplete —
// exactly the regression the holdback exists to prevent.
func TestClampGCNeverPrunesBelowResumeFloor(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x6c0, 0x5eed))
	for iter := 0; iter < 40; iter++ {
		maxDCs := 3 + rng.IntN(4)
		status := make([]uint8, maxDCs)
		status[0] = msg.DCActive // self
		joining := false
		for dc := 1; dc < maxDCs; dc++ {
			switch rng.IntN(4) {
			case 0:
				status[dc] = msg.DCJoining
				joining = true
			case 1:
				status[dc] = msg.DCLeft
			default:
				status[dc] = msg.DCActive
			}
		}
		m, _, _ := newTestManager(t, Config{
			ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: maxDCs, MaxDCs: maxDCs, GCMaxHoldback: -1,
			Membership: msg.Membership{Epoch: uint64(iter), Status: append([]uint8(nil), status...)},
		})

		// A random population of laggards, each with a random snapshot of
		// what it holds; repeat requests merge (floors only rise).
		floors := make(map[int]vclock.VC)
		for n := 0; n < 1+rng.IntN(4); n++ {
			dc := 1 + rng.IntN(maxDCs-1)
			if status[dc] == msg.DCLeft {
				continue // nothing is owed to a departed DC
			}
			have := make(vclock.VC, maxDCs)
			for i := range have {
				have[i] = vclock.Timestamp(rng.IntN(1000))
			}
			from := vclock.Timestamp(rng.IntN(1000))
			m.handleCatchUpRequest(netemu.NodeID{DC: dc, Partition: 0},
				msg.CatchUpRequest{ReqID: uint64(n + 1), From: from, Have: have.Clone()})
			want := have.Clone()
			if from > want[0] {
				want[0] = from // our own entry: the laggard's resume floor
			}
			if prev, ok := floors[dc]; ok {
				prev.MaxInPlace(want)
			} else {
				floors[dc] = want
			}
		}

		gv := make(vclock.VC, maxDCs)
		for i := range gv {
			gv[i] = vclock.Timestamp(rng.IntN(2000))
		}
		orig := gv.Clone()
		got := m.ClampGC(gv)

		for i := range got {
			if got[i] > orig[i] {
				t.Fatalf("iter %d: ClampGC raised entry %d: %v -> %v", iter, i, orig, got)
			}
		}
		if joining {
			for i := range got {
				if got[i] != 0 {
					t.Fatalf("iter %d: joiner present but ClampGC = %v, want all-zero (status %v)",
						iter, got, status)
				}
			}
			continue
		}
		for dc, f := range floors {
			for i := range got {
				if got[i] > f.Get(i) {
					t.Fatalf("iter %d: prune point %v passes laggard dc%d's resume floor %v at entry %d (status %v)",
						iter, got, dc, f, i, status)
				}
			}
		}
	}
}
