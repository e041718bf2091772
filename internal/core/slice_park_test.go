package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// sibling starts a real server as partition 1 of the rig's DC, on the fake
// endpoint registered there. Its own siblings in DC 1 and DC 2 are fakes that
// never send, so its entries for those DCs move only when a test moves them.
func (r *rig) sibling(cfg Config) *Server {
	r.t.Helper()
	id := netemu.NodeID{DC: 0, Partition: 1}
	r.registerFake(netemu.NodeID{DC: 1, Partition: 1})
	r.registerFake(netemu.NodeID{DC: 2, Partition: 1})
	cfg.ID, cfg.NumDCs, cfg.NumPartitions = id, 3, 2
	cfg.Clock, cfg.Endpoint, cfg.DefaultMode, cfg.Metrics = clock.New(0), r.fakeEP[id], Optimistic, &Metrics{}
	cfg.SlotMap = allSlotsTo(2, 1)
	s, err := NewServer(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(s.Close)
	return s
}

// startParkedTx has the rig's server coordinate a transaction over both
// partitions whose snapshot is ahead of the sibling on DC 1's entry, and
// returns once the sibling has parked its slice.
func (r *rig) startParkedTx(sib *Server, dc1 vclock.Timestamp) <-chan txResult {
	r.t.Helper()
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: dc1})
	if !waitUntil(r.t, 2*time.Second, func() bool { return r.srv.VV()[1] >= dc1 }) {
		r.t.Fatal("coordinator never applied the heartbeat")
	}
	parked := sib.mx.TxParkRemote.Load()
	done := startROTx(r.srv, []string{"p0/k", "p1/k"}, vclock.VC{0, dc1, 0})
	if !waitUntil(r.t, 2*time.Second, func() bool { return sib.mx.TxParkRemote.Load() == parked+1 }) {
		r.t.Fatal("the sibling's slice never parked on the remote entry")
	}
	return done
}

func awaitTx(t *testing.T, done <-chan txResult) txResult {
	t.Helper()
	select {
	case out := <-done:
		return out
	case <-time.After(time.Second):
		t.Fatal("the transaction is still waiting for the parked slice")
		return txResult{}
	}
}

// TestParkedSliceAllocs: a slice that has to wait costs the serving server
// nothing but the wait — no goroutine while it is parked, and after warm-up no
// allocation for parking it, for waking it or for its reply: the waiter, the
// request with its keys and TV and the reply with its items are pooled, each
// round hands over a fresh request as a coordinator or a decoder would, and
// whoever advances the vector reads, answers and releases it. (Before: a
// goroutine and its closure per parked slice, an items array and a boxed
// reply per slice.)
func TestParkedSliceAllocs(t *testing.T) {
	skipUnderRace(t)
	r := newRig(t, Config{HeartbeatInterval: time.Hour})
	if _, err := r.srv.Put("k", []byte("value"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	// The coordinator's side of the reply's life: fold in, release.
	peer := netemu.NodeID{DC: 0, Partition: 1}
	replied := make(chan bool, 1)
	r.fakeEP[peer].SetHandler(func(_ netemu.NodeID, m any) {
		resp := m.(*msg.SliceResp)
		replied <- len(resp.Items) == 1 && string(resp.Items[0].Value) == "value"
		resp.Release()
	})
	tv := r.srv.VV()
	goroutines := -1
	parkAndServe := func() {
		tv[1]++ // ahead on DC 1's entry, which only its link can advance
		r.srv.handle(peer, sliceReq(uint64(tv[1]), peer, tv, "k"))
		if r.srv.vvWaiters.active.Load() != 1 {
			t.Fatal("the slice did not park")
		}
		if n := runtime.NumGoroutine(); goroutines >= 0 && n != goroutines {
			t.Fatalf("%d goroutines with a slice parked, %d without", n, goroutines)
		}
		(*replBackend)(r.srv).RaiseVV(1, tv[1])
		if !<-replied {
			t.Fatal("the woken slice did not read the stored value")
		}
	}
	parkAndServe() // warm-up: pooled waiter and reply, the list's capacity, the link
	goroutines = runtime.NumGoroutine()
	if n := testing.AllocsPerRun(1000, parkAndServe); n != 0 {
		t.Fatalf("a parked slice allocates %v times from arrival to reply, want 0", n)
	}
	if got := r.mx.TxBlocking.Snapshot(); got.Ops != got.Blocked || r.mx.TxParkRemote.Load() != got.Ops {
		t.Fatalf("blocking %+v, parked on a remote entry %d: want every slice counted once in each", got, r.mx.TxParkRemote.Load())
	}
}

// TestHeartbeatsSurviveSliceTraffic: slices raise the local version-vector
// entry without telling anyone, so the heartbeat rule must look at what the
// links last carried, not at that entry — or a partition that serves RO-TX
// and takes no PUT would never broadcast again, and every remote read and
// reshard drain waiting on this DC's entry would hang.
func TestHeartbeatsSurviveSliceTraffic(t *testing.T) {
	const delta = 10 * time.Millisecond
	r := newRig(t, Config{HeartbeatInterval: delta, Clock: clock.NewHLC(0)})
	peer, remote := netemu.NodeID{DC: 0, Partition: 1}, netemu.NodeID{DC: 1, Partition: 0}
	heartbeats := func() (times []vclock.Timestamp) {
		for _, m := range r.received(remote) {
			if hb, ok := m.(*msg.Heartbeat); ok {
				times = append(times, hb.Time)
			}
		}
		return times
	}
	start := time.Now()
	for i := uint64(1); time.Since(start) < 40*delta; i++ {
		tv := r.srv.VV()
		tv[0] = r.srv.clk.Now() // newer than anything VV[0] has been raised to
		r.inject(peer, sliceReq(i, peer, tv, "k"))
		if !waitUntil(t, 2*time.Second, func() bool { return r.srv.VV()[0] >= tv[0] }) {
			t.Fatal("a slice ahead on the local entry did not raise it")
		}
		time.Sleep(delta / 4)
	}
	elapsed := time.Since(start)
	// Ticks out of phase with the clock qualify every other time at worst:
	// one heartbeat per 2Δ. Half of that again is left to a busy host.
	times := heartbeats()
	if want := int(elapsed / (4 * delta)); len(times) < want {
		t.Fatalf("%d heartbeats in %v of slice traffic at Δ = %v, want at least %d", len(times), elapsed, delta, want)
	}
	t.Logf("%d heartbeats in %v of slice traffic at Δ = %v", len(times), elapsed, delta)
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("heartbeat %d carries %d after %d", i, times[i], times[i-1])
		}
	}
	// And the remote side learns what the slices raised locally.
	raised := r.srv.VV()[0]
	if !waitUntil(t, 2*time.Second, func() bool { ts := heartbeats(); return ts[len(ts)-1] >= raised }) {
		t.Fatalf("no heartbeat ever covered the local entry %d the slices raised", raised)
	}
	if n := r.mx.TxParkLocal.Load(); n != 0 {
		t.Fatalf("%d slices parked on the local entry under a hybrid clock", n)
	}
}

// TestCrashFailsParkedSlices: a parked slice has no goroutine watching the
// stop channel, so shutdown itself answers it — a live coordinator's
// transaction on a crashed sibling fails instead of hanging.
func TestCrashFailsParkedSlices(t *testing.T) {
	r := newRig(t, Config{HeartbeatInterval: time.Hour})
	sib := r.sibling(Config{HeartbeatInterval: time.Hour})
	done := r.startParkedTx(sib, 5)
	sib.Crash()
	if out := awaitTx(t, done); !errors.Is(out.err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", out.err)
	}
	if n := sib.vvWaiters.active.Load(); n != 0 {
		t.Fatalf("%d waiters left on the crashed server's list", n)
	}
}

// TestBlockTimeoutFailsParkedSlice: HA-POCC's partition suspicion reaches a
// parked slice through its own timer — and only then: one served first stops
// its timer, so nothing is suspected later on its behalf.
func TestBlockTimeoutFailsParkedSlice(t *testing.T) {
	const timeout = 100 * time.Millisecond // a stall that long between park and wake fails the first half
	r := newRig(t, Config{HeartbeatInterval: time.Hour})
	sib := r.sibling(Config{HeartbeatInterval: time.Hour, BlockTimeout: timeout})

	done := r.startParkedTx(sib, 5)
	(*replBackend)(sib).RaiseVV(1, 5)
	if out := awaitTx(t, done); out.err != nil || len(out.items) != 2 {
		t.Fatalf("a slice served before its timeout: %d items, %v", len(out.items), out.err)
	}
	time.Sleep(2 * timeout)
	if sib.Suspected() {
		t.Fatal("the timer of a slice that was served still fired")
	}

	done = r.startParkedTx(sib, 6)
	if out := awaitTx(t, done); !errors.Is(out.err, ErrSessionClosed) {
		t.Fatalf("err = %v, want ErrSessionClosed", out.err)
	}
	if !sib.Suspected() {
		t.Fatal("a slice timed out and the server suspects nothing")
	}
	if n := sib.vvWaiters.active.Load(); n != 0 {
		t.Fatalf("%d waiters left on the list", n)
	}
	if got := sib.mx.TxBlocking.Snapshot(); got.Ops != 2 || got.Blocked != 2 {
		t.Fatalf("blocking %+v, want both slices counted once, as blocked", got)
	}
}

// TestRawClockSliceParksOnLocalEntry: a raw physical clock absorbs nothing, so
// a sibling whose clock is behind the coordinator's cannot vouch for TV[m] on
// arrival — raising VV[m] to it anyway would claim local versions it may yet
// create. The slice parks (the cost of skew, counted in TxParkLocal) without
// holding up its link, and the tick that carries the clock past TV[m] serves
// it, with everything written in between inside the snapshot.
func TestRawClockSliceParksOnLocalEntry(t *testing.T) {
	r := newRig(t, Config{HeartbeatInterval: 5 * time.Millisecond}) // a raw clock
	peer := netemu.NodeID{DC: 0, Partition: 1}
	ahead := r.srv.clk.Now() + vclock.Timestamp(250*time.Millisecond)
	tv := r.srv.VV()
	tv[0] = ahead
	r.inject(peer, sliceReq(1, peer, tv, "k"))
	if !waitUntil(t, 2*time.Second, func() bool { return r.mx.TxParkLocal.Load() == 1 }) {
		t.Fatal("the slice did not park on the local entry")
	}
	if got := r.srv.VV()[0]; got >= ahead {
		t.Fatalf("VV[0] = %d vouches for a timestamp (%d) the clock has not reached", got, ahead)
	}
	ut, err := r.srv.Put("k", []byte("inside"), vclock.New(3), Optimistic)
	if err != nil || ut >= ahead {
		t.Fatalf("Put = %d, %v; want a timestamp below the parked snapshot's %d", ut, err, ahead)
	}
	// The link is not blocked: a covered slice behind the parked one on the
	// same link is answered first.
	r.inject(peer, sliceReq(2, peer, r.srv.VV(), "k"))
	replies := func() (out []*msg.SliceResp) {
		for _, m := range r.received(peer) {
			if resp, ok := m.(*msg.SliceResp); ok {
				out = append(out, resp)
			}
		}
		return out
	}
	if !waitUntil(t, 2*time.Second, func() bool { return len(replies()) == 2 }) {
		t.Fatalf("%d of 2 slices answered", len(replies()))
	}
	got := replies()
	if got[0].TxID != 2 || got[1].TxID != 1 {
		t.Fatalf("replies in order %d, %d: the parked slice held up its link", got[0].TxID, got[1].TxID)
	}
	for _, resp := range got {
		if resp.Err != "" || len(resp.Items) != 1 || string(resp.Items[0].Value) != "inside" {
			t.Fatalf("slice %d read %+v, want the version written below its snapshot", resp.TxID, resp)
		}
	}
	if got := r.srv.VV()[0]; got < ahead {
		t.Fatalf("the slice was served at VV[0] = %d, below its snapshot's %d", got, ahead)
	}
	if local, remote := r.mx.TxParkLocal.Load(), r.mx.TxParkRemote.Load(); local != 1 || remote != 0 {
		t.Fatalf("parked on the local entry %d times, on a remote one %d; want 1 and 0", local, remote)
	}
}
