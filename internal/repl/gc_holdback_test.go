package repl

import (
	"fmt"
	"math/rand/v2"
	"sync"
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

// serveOnce hands m one catch-up request from dst and waits until the
// served stream's Done is out, returning the keys shipped and the Done.
func serveOnce(t *testing.T, m *Manager, tr *fakeTransport, dst netemu.NodeID, req msg.CatchUpRequest) ([]string, msg.CatchUpReply) {
	t.Helper()
	served := m.Stats().Served
	m.handleCatchUpRequest(dst, req)
	if !waitUntil(t, 2*time.Second, func() bool { return m.Stats().Served > served }) {
		t.Fatal("catch-up stream never finished")
	}
	var shipped []string
	var done msg.CatchUpReply
	for _, rep := range catchUpReplies(tr, dst) {
		if rep.ReqID != req.ReqID {
			continue
		}
		for _, v := range rep.Versions {
			shipped = append(shipped, v.Key)
		}
		if rep.Done {
			done = rep
		}
	}
	return shipped, done
}

// TestCatchUpBelowCompactedFloorShipsFromFloor: a request whose floor lies
// under the sender's checkpoint-compacted boundary is served like any other,
// (From, Through], and the sender counts the GC overrun. A surviving head
// below the floor is not shipped: the requester's VV entry already covers it.
func TestCatchUpBelowCompactedFloorShipsFromFloor(t *testing.T) {
	src := &fakeSource{
		vs: []*item.Version{
			// Everything at or below 200 was compacted: only the surviving
			// heads remain in the log.
			ver(0, 50, "head-a"),
			ver(0, 150, "head-b"),
			ver(0, 250, "c"),
			ver(0, 400, "d"),
		},
		floor: vclock.VC{200, 0},
	}
	m, tr, _ := newServingManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2,
	}, src)
	if _, err := m.Publish(&item.Version{Key: "k", SrcReplica: 0}); err != nil {
		t.Fatal("publish refused")
	}
	// The requester resumes from 100, under the compacted boundary 200.
	shipped, done := serveOnce(t, m, tr, netemu.NodeID{DC: 1, Partition: 0},
		msg.CatchUpRequest{ReqID: 7, From: 100})
	if done.Unsupported {
		t.Fatalf("done = %+v, want a served stream", done)
	}
	if want := []string{"head-b", "c", "d"}; fmt.Sprint(shipped) != fmt.Sprint(want) {
		t.Fatalf("shipped %v, want %v: the range (100, Through]", shipped, want)
	}
	if st := m.Stats(); st.GCOverruns != 1 {
		t.Fatalf("GCOverruns = %d, want 1 (floor 100 < compacted 200; stats %+v)", st.GCOverruns, st)
	}
}

// TestIncrementalAboveCompactedFloor: a resume floor at or above the
// compacted boundary is served from the floor, and no overrun is counted.
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
	shipped, _ := serveOnce(t, m, tr, netemu.NodeID{DC: 1, Partition: 0},
		msg.CatchUpRequest{ReqID: 8, From: 250})
	if len(shipped) != 1 || shipped[0] != "c" {
		t.Fatalf("shipped %v, want [c]", shipped)
	}
	if st := m.Stats(); st.GCOverruns != 0 {
		t.Fatalf("GCOverruns = %d, want 0 (floor 250 >= compacted 200)", st.GCOverruns)
	}
}

// TestCatchUpGCOverrunCountsNonzeroFloors: the sender counts a round as a GC
// overrun when a nonzero floor it ships from — its own origin's From, or a
// claimed departed origin's Have entry — lies under the compacted boundary.
// A floor of zero is a bootstrap (a joiner's first round), never an overrun.
func TestCatchUpGCOverrunCountsNonzeroFloors(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  msg.CatchUpRequest
		want uint64
	}{
		{"bootstrap", msg.CatchUpRequest{From: 0, Have: vclock.VC{0, 0, 0}}, 0},
		{"own floor under", msg.CatchUpRequest{From: 100, Have: vclock.VC{0, 0, 300}}, 1},
		{"departed bootstrap", msg.CatchUpRequest{From: 300, Have: vclock.VC{0, 0, 0}}, 0},
		{"departed floor under", msg.CatchUpRequest{From: 300, Have: vclock.VC{0, 0, 100}}, 1},
		{"both above", msg.CatchUpRequest{From: 300, Have: vclock.VC{0, 0, 300}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &fakeSource{
				vs:    []*item.Version{ver(0, 150, "a"), ver(2, 150, "x"), ver(2, 400, "y")},
				floor: vclock.VC{200, 0, 200},
			}
			// DC2 has left with final 500, which this node holds: its
			// history rides along under a Departed claim.
			m, tr, be := newServingManager(t, Config{
				ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
				Membership: msg.Membership{
					Epoch:  2,
					Status: []uint8{msg.DCActive, msg.DCActive, msg.DCLeft},
					Final:  vclock.VC{0, 0, 500},
				},
			}, src)
			be.RaiseVV(2, 500)
			req := tc.req
			req.ReqID = 1
			_, done := serveOnce(t, m, tr, netemu.NodeID{DC: 1, Partition: 0}, req)
			if len(done.Departed) != 1 || done.Departed[0].DC != 2 {
				t.Fatalf("done.Departed = %v, want a claim for dc2", done.Departed)
			}
			if got := m.Stats().GCOverruns; got != tc.want {
				t.Fatalf("GCOverruns = %d, want %d", got, tc.want)
			}
		})
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

// TestClampGCJoinerHeldByItsRequest: a joining DC is held back like any
// laggard, by what it asks for. Before its first request it pins nothing;
// its first request pins the GC contribution at its Have.
func TestClampGCJoinerHeldByItsRequest(t *testing.T) {
	m, _, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3, MaxDCs: 3, GCMaxHoldback: -1,
		Membership: msg.Membership{
			Epoch:  4,
			Status: []uint8{msg.DCActive, msg.DCActive, msg.DCJoining},
		},
	})
	if gv := m.ClampGC(vclock.VC{500, 500, 500}); !gv.Equal(vclock.VC{500, 500, 500}) {
		t.Fatalf("ClampGC with a joiner that never asked = %v, want unclamped", gv)
	}
	if age := m.HoldbackAge(); age != 0 {
		t.Fatalf("HoldbackAge = %v before the joiner asked, want 0", age)
	}
	// The joiner has bootstrapped dc1's history through 70 and asks this
	// link from zero.
	m.handleCatchUpRequest(netemu.NodeID{DC: 2, Partition: 0},
		msg.CatchUpRequest{ReqID: 1, From: 0, Have: vclock.VC{0, 70, 0}})
	if gv := m.ClampGC(vclock.VC{500, 500, 500}); !gv.Equal(vclock.VC{0, 70, 0}) {
		t.Fatalf("ClampGC after the joiner's request = %v, want pinned at its Have [0 70 0]", gv)
	}
	if m.HoldbackAge() <= 0 {
		t.Fatal("HoldbackAge = 0, want the joiner's holdback accounted")
	}
}

// TestGCHoldbackOutlivesReaskBackoff: a laggard whose request or Done was
// lost waits up to maxReRequestInterval before it asks again (nextWait). Its
// holdback must outlast that wait with no stream in flight, and be dropped
// once the laggard has been quiet past holdbackGrace.
func TestGCHoldbackOutlivesReaskBackoff(t *testing.T) {
	m, _, _ := newTestManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 2, GCMaxHoldback: -1,
	})
	// No durable history: the serve answers Unsupported and ends at once.
	m.handleCatchUpRequest(netemu.NodeID{DC: 1, Partition: 0},
		msg.CatchUpRequest{ReqID: 1, From: 60, Have: vclock.VC{50, 80}})
	if !waitUntil(t, 2*time.Second, func() bool { return !m.servingTo(1) }) {
		t.Fatal("serve never ended")
	}
	age := func(d time.Duration) {
		m.holdMu.Lock()
		m.holdbacks[1].lastReq = time.Now().Add(-d)
		m.holdMu.Unlock()
	}
	age(maxReRequestInterval - 100*time.Millisecond)
	if gv := m.ClampGC(vclock.VC{500, 500}); !gv.Equal(vclock.VC{60, 80}) {
		t.Fatalf("ClampGC %v after the last request = %v, want still pinned at [60 80] (reRequest %v)",
			maxReRequestInterval-100*time.Millisecond, gv, m.reRequest)
	}
	age(holdbackGrace + time.Second)
	if gv := m.ClampGC(vclock.VC{500, 500}); !gv.Equal(vclock.VC{500, 500}) {
		t.Fatalf("ClampGC past holdbackGrace = %v, want the holdback dropped", gv)
	}
	if age := m.HoldbackAge(); age != 0 {
		t.Fatalf("HoldbackAge = %v after the drop, want 0", age)
	}
}

// TestHoldbackConcurrentClamp runs the holdback table's readers — ClampGC,
// which the GC exchange calls from core's goroutines and which nests serveMu
// under holdMu, and HoldbackAge — against its writers: catch-up requests
// (with the serve goroutines they start) and a link retiring. Run under
// -race.
func TestHoldbackConcurrentClamp(t *testing.T) {
	src := &fakeSource{vs: []*item.Version{ver(0, 150, "a"), ver(0, 250, "b")}, floor: vclock.VC{200, 0, 0}}
	m, _, _ := newServingManager(t, Config{
		ID: netemu.NodeID{DC: 0, Partition: 0}, NumDCs: 3,
	}, src)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.ClampGC(vclock.VC{500, 500, 500})
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.HoldbackAge()
		}
	}()
	for i := 0; i < 200; i++ {
		dc := 1 + i%2
		m.handleCatchUpRequest(netemu.NodeID{DC: dc, Partition: 0}, msg.CatchUpRequest{
			ReqID: uint64(i + 1), From: vclock.Timestamp(i), Have: vclock.VC{0, vclock.Timestamp(i), 0},
		})
		if i == 100 {
			m.retireLink(2)
		}
	}
	close(stop)
	wg.Wait()
}

// TestClampGCNeverPrunesBelowResumeFloor is the holdback's property test:
// across randomized membership views and laggard populations, Joining DCs
// included, the clamped GC vector never passes any live requester's
// catch-up resume floor (per entry, for every origin it still needs) and
// never rises above the input. Pruning above a resume floor would make the
// laggard's next catch-up silently incomplete — exactly the regression the
// holdback exists to prevent.
func TestClampGCNeverPrunesBelowResumeFloor(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x6c0, 0x5eed))
	for iter := 0; iter < 40; iter++ {
		maxDCs := 3 + rng.IntN(4)
		status := make([]uint8, maxDCs)
		status[0] = msg.DCActive // self
		for dc := 1; dc < maxDCs; dc++ {
			switch rng.IntN(4) {
			case 0:
				status[dc] = msg.DCJoining
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
