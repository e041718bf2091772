package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/vclock"
)

// byPrefix routes a key "p<n>/..." to partition n.
func byPrefix(k string) int { return int(k[1] - '0') }

type txResult struct {
	items []msg.ItemReply
	err   error
}

func startROTx(s *Server, keys []string, rdv vclock.VC) <-chan txResult {
	done := make(chan txResult, 1)
	go func() {
		items, err := s.ROTx(keys, rdv, Optimistic, byPrefix)
		done <- txResult{items, err}
	}()
	return done
}

// sliceReq draws a request from msg's pool, as a coordinator does, with
// copies of tv and keys: handing it over gives away nothing the test keeps.
func sliceReq(txID uint64, coord netemu.NodeID, tv vclock.VC, keys ...string) *msg.SliceReq {
	req := msg.NewSliceReq(txID, coord)
	req.Keys = append(req.Keys, keys...)
	req.TV = append(req.TV, tv...)
	return req
}

// sliceReqs returns the slice requests a fake peer has received so far.
func (r *rig) sliceReqs(id netemu.NodeID) []*msg.SliceReq {
	var out []*msg.SliceReq
	for _, m := range r.received(id) {
		if req, ok := m.(*msg.SliceReq); ok {
			out = append(out, req)
		}
	}
	return out
}

func (r *rig) awaitSliceReq(id netemu.NodeID, n int) *msg.SliceReq {
	r.t.Helper()
	if !waitUntil(r.t, 2*time.Second, func() bool { return len(r.sliceReqs(id)) >= n }) {
		r.t.Fatalf("%v never received slice request %d", id, n)
	}
	return r.sliceReqs(id)[n-1]
}

// TestROTxGroupsKeysByPartition: one request per owning partition, carrying
// that partition's keys in request order, repeated keys included.
func TestROTxGroupsKeysByPartition(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, NumPartitions: 4})
	keys := []string{"p2/a", "p0/a", "p1/a", "p2/b", "p0/b", "p2/a"}
	done := startROTx(r.srv, keys, vclock.New(3))
	want := map[int][]string{1: {"p1/a"}, 2: {"p2/a", "p2/b", "p2/a"}}
	var txID uint64
	for p, ks := range want {
		peer := netemu.NodeID{DC: 0, Partition: p}
		req := r.awaitSliceReq(peer, 1)
		if fmt.Sprint(req.Keys) != fmt.Sprint(ks) {
			t.Fatalf("partition %d was asked for %v, want %v", p, req.Keys, ks)
		}
		txID = req.TxID
		items := make([]msg.ItemReply, len(ks))
		for i, k := range ks {
			items[i].Key = k
		}
		r.inject(peer, &msg.SliceResp{TxID: txID, Items: items})
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	got := map[string]int{}
	for _, it := range out.items {
		got[it.Key]++
	}
	if len(out.items) != len(keys) || got["p2/a"] != 2 || got["p0/a"] != 1 || got["p0/b"] != 1 || got["p1/a"] != 1 || got["p2/b"] != 1 {
		t.Fatalf("replies %v for keys %v: want one per requested key", got, keys)
	}
	if n := len(r.sliceReqs(netemu.NodeID{DC: 0, Partition: 3})); n != 0 {
		t.Fatalf("partition 3 owns no key but received %d slice requests", n)
	}
	if _, err := r.srv.ROTx([]string{"p7/x"}, vclock.New(3), Optimistic, byPrefix); err == nil {
		t.Fatal("a key routed outside the layout must fail the transaction")
	}
}

// TestROTxFirstErrorCompletesFanIn: a failed slice (here the redirect of a
// reshard) fails the transaction at once, although another slice is parked —
// partition 1 is a real server whose source of DC 1's heartbeats is severed,
// so it can never cover the snapshot. Waiting for it would hold the client's
// retry back for as long as the partition lasts.
func TestROTxFirstErrorCompletesFanIn(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}, NumPartitions: 3})
	// Replace the fake partition 1 with a real server on the same network; its
	// siblings in the other DCs are fakes that never send.
	id1 := netemu.NodeID{DC: 0, Partition: 1}
	r.registerFake(netemu.NodeID{DC: 1, Partition: 1})
	r.registerFake(netemu.NodeID{DC: 2, Partition: 1})
	mx := &Metrics{}
	blocked, err := NewServer(Config{
		Config: repl.Config{
			ID: id1, NumDCs: 3, Clock: clock.New(0),
			Endpoint: r.fakeEP[id1], HeartbeatInterval: time.Millisecond,
		},
		NumPartitions: 3, DefaultMode: Optimistic, Metrics: mx, SlotMap: allSlotsTo(3, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer blocked.Close()

	// The client has seen DC 1 at time 5; the coordinator has too.
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: 5})
	if !waitUntil(t, 2*time.Second, func() bool { return r.srv.VV()[1] >= 5 }) {
		t.Fatal("coordinator never applied the heartbeat")
	}
	rdv := vclock.VC{0, 5, 0}
	done := startROTx(r.srv, []string{"p0/k", "p1/k", "p2/k"}, rdv)

	failing := netemu.NodeID{DC: 0, Partition: 2}
	req := r.awaitSliceReq(failing, 1)
	if !waitUntil(t, 2*time.Second, func() bool { return blocked.vvWaiters.active.Load() == 1 }) {
		t.Fatal("partition 1's slice never parked")
	}
	r.inject(failing, &msg.SliceResp{TxID: req.TxID, Err: ErrWrongSlotEpoch.Error()})
	select {
	case out := <-done:
		if !errors.Is(out.err, ErrWrongSlotEpoch) {
			t.Fatalf("err = %v, want ErrWrongSlotEpoch", out.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the failed transaction waited for the parked slice")
	}
	if blocked.vvWaiters.active.Load() != 1 {
		t.Fatal("the severed partition's slice should still be parked")
	}
	r.srv.txMu.Lock()
	n := len(r.srv.inflight)
	r.srv.txMu.Unlock()
	if n != 0 {
		t.Fatalf("%d transactions still in flight after the failure", n)
	}
}

// TestParkedSliceOutlivesFailedTx: a slice request owns its keys and its
// snapshot. One parks at a fake sibling (held, unanswered), its transaction
// fails fast on another slice's error, and the coordinator runs fifty more
// over other keys and vectors — recycling the same fan-in state, its snapshot
// vector and the pooled requests, which the siblings answer and release. The
// parked request must then still hold exactly the keys and TV it arrived
// with: one that aliased coordinator scratch would read another
// transaction's. Run under -race.
func TestParkedSliceOutlivesFailedTx(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, NumPartitions: 3})
	coord := r.srv.ID()
	p1, p2 := netemu.NodeID{DC: 0, Partition: 1}, netemu.NodeID{DC: 0, Partition: 2}
	// answer serves req as a sibling would — an item per key, or the error —
	// and releases it.
	answer := func(from netemu.NodeID, req *msg.SliceReq, err error) {
		resp := msg.NewSliceResp(req.TxID)
		if err != nil {
			resp.Err = err.Error()
		} else {
			for _, k := range req.Keys {
				resp.Items = append(resp.Items, msg.ItemReply{Key: k})
			}
		}
		req.Release()
		r.fakeEP[from].Send(coord, resp)
	}
	var parked *msg.SliceReq
	var parkedKeys []string
	var parkedTV vclock.VC
	arrived := make(chan struct{})
	r.fakeEP[p1].SetHandler(func(_ netemu.NodeID, m any) {
		req := m.(*msg.SliceReq)
		if parked == nil {
			parked, parkedKeys, parkedTV = req, slices.Clone(req.Keys), req.TV.Clone()
			close(arrived)
			return
		}
		answer(p1, req, nil)
	})
	var failed atomic.Bool
	r.fakeEP[p2].SetHandler(func(_ netemu.NodeID, m any) {
		if failed.CompareAndSwap(false, true) {
			answer(p2, m.(*msg.SliceReq), ErrWrongSlotEpoch)
			return
		}
		answer(p2, m.(*msg.SliceReq), nil)
	})

	for round := 0; round <= 50; round++ {
		// A vector of the round's own, which the coordinator covers: its own
		// slice never parks.
		rdv := vclock.VC{0, vclock.Timestamp(10 + round), vclock.Timestamp(20 + 2*round)}
		r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: rdv[1]})
		r.inject(netemu.NodeID{DC: 2, Partition: 0}, &msg.Heartbeat{Time: rdv[2]})
		if !waitUntil(t, 2*time.Second, func() bool { return rdv.LessEq(r.srv.VV()) }) {
			t.Fatalf("round %d: the coordinator never applied the heartbeats", round)
		}
		keys := []string{fmt.Sprintf("p0/%d", round), fmt.Sprintf("p2/%d", round)}
		for i := 0; i <= round%3; i++ {
			keys = append(keys, fmt.Sprintf("p1/%d.%d", round, i))
		}
		items, err := r.srv.ROTx(keys, rdv, Optimistic, byPrefix)
		if round == 0 {
			if !errors.Is(err, ErrWrongSlotEpoch) {
				t.Fatalf("the transaction with a parked slice returned %v, want partition 2's error", err)
			}
			<-arrived
			continue
		}
		if err != nil || len(items) != len(keys) {
			t.Fatalf("round %d: %d items for %d keys, %v", round, len(items), len(keys), err)
		}
		for _, it := range items {
			if !slices.Contains(keys, it.Key) {
				t.Fatalf("round %d: a reply for %q, which it never asked for", round, it.Key)
			}
		}
	}
	if !slices.Equal(parked.Keys, parkedKeys) || !parked.TV.Equal(parkedTV) || parkedTV[1] != 10 || parkedTV[2] != 20 {
		t.Fatalf("the parked slice now reads %v within %v; it arrived with %v within %v", parked.Keys, parked.TV, parkedKeys, parkedTV)
	}
	parked.Release()
}

// TestShortSnapshotVectorIsServed: the decoder accepts a snapshot vector
// shorter than the serving DC's index, and a shorter vector asks for nothing
// on the entries it lacks (vectors of different lengths meet when
// deployments change size), so the slice is answered — where it used to
// panic the goroutine delivering it.
func TestShortSnapshotVectorIsServed(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	peer := netemu.NodeID{DC: 0, Partition: 1}
	r.srv.handle(peer, &msg.SliceReq{TxID: 5, Coordinator: peer, Keys: []string{"k"}, TV: vclock.VC{}})
	if !waitUntil(t, 2*time.Second, func() bool {
		for _, m := range r.received(peer) {
			if resp, ok := m.(*msg.SliceResp); ok && resp.TxID == 5 {
				return resp.Err == "" && len(resp.Items) == 1
			}
		}
		return false
	}) {
		t.Fatal("the slice with a short snapshot vector was not answered")
	}
}

// TestROTxPendingReuseIgnoresLateReply: fan-in state is recycled, and replies
// find it by txID under txMu only — so a duplicate or post-completion reply
// of an earlier transaction never reaches the transaction now using the same
// state. The replies are recycled too: each comes from msg's pool, as a
// sibling's would, and the coordinator releases it whatever it does with it —
// so a late or duplicate one is, more often than not, an object an earlier
// reply already travelled in. Run under -race.
func TestROTxPendingReuseIgnoresLateReply(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, NumPartitions: 3})
	p1 := netemu.NodeID{DC: 0, Partition: 1}
	p2 := netemu.NodeID{DC: 0, Partition: 2}
	keys := []string{"p0/k", "p1/k", "p2/k"}
	reply := func(txID uint64, key string) *msg.SliceResp {
		resp := msg.NewSliceResp(txID)
		resp.Items = append(resp.Items[:0], msg.ItemReply{Key: key})
		return resp
	}
	failure := func(txID uint64) *msg.SliceResp {
		resp := msg.NewSliceResp(txID)
		resp.Items, resp.Err = nil, ErrSessionClosed.Error()
		return resp
	}
	var earlier []uint64
	for round := 1; round <= 50; round++ {
		done := startROTx(r.srv, keys, vclock.New(3))
		txID := r.awaitSliceReq(p1, round).TxID
		r.awaitSliceReq(p2, round)
		// Replies to finished transactions: with items, and with an error.
		for _, old := range earlier {
			r.inject(p1, reply(old, "stale"))
			r.inject(p2, failure(old))
		}
		r.inject(p1, reply(txID, "p1/k"))
		r.inject(p1, reply(txID, "p1/k")) // duplicate before completion
		select {
		case <-done:
			t.Fatalf("round %d completed without partition 2's reply", round)
		case <-time.After(time.Millisecond):
		}
		r.inject(p2, reply(txID, "p2/k"))
		out := <-done
		if out.err != nil {
			t.Fatalf("round %d: %v", round, out.err)
		}
		got := map[string]int{}
		for _, it := range out.items {
			got[it.Key]++
		}
		if len(out.items) != 3 || got["p0/k"] != 1 || got["p1/k"] != 1 || got["p2/k"] != 1 {
			t.Fatalf("round %d: replies %v, want exactly the three requested keys", round, got)
		}
		r.inject(p2, reply(txID, "p2/k")) // duplicate after completion
		earlier = append(earlier[max(0, len(earlier)-3):], txID)
	}
}

// TestWaiterRecycleNoStaleWake: a waiter goes back to the pool empty even
// when its BlockTimeout fires while wake is signalling it. Each round races
// the two, then parks on an unsatisfiable vector from the same goroutine (so
// the pool hands the same waiter back): a token left over from the race would
// release that wait at once instead of letting it time out. Between the two
// sits a parked slice that needs the same advance, so its timer races the
// wake as well and its waiter — which has no goroutine and takes no token —
// is recycled into the blocked callers' pool and back: it must be answered
// exactly once, and a timer outliving its slice must never reach the waiter's
// next user. Run under -race.
func TestWaiterRecycleNoStaleWake(t *testing.T) {
	const timeout = time.Millisecond
	const rounds = 200
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, BlockTimeout: timeout})
	peer := netemu.NodeID{DC: 0, Partition: 1}
	never := vclock.VC{0, 0, 1 << 60}
	for round := 1; round <= rounds; round++ {
		need := vclock.VC{0, vclock.Timestamp(round), 0}
		raised := make(chan struct{})
		go func() {
			defer close(raised)
			time.Sleep(timeout - 50*time.Microsecond)
			(*replBackend)(r.srv).RaiseVV(1, vclock.Timestamp(round))
		}()
		r.srv.handle(peer, sliceReq(uint64(round), peer, need, "k"))
		if _, err := r.srv.waitVV(need, 0); err != nil && !errors.Is(err, ErrSessionClosed) {
			t.Fatal(err)
		}
		blocked, err := r.srv.waitVV(never, 0)
		if !errors.Is(err, ErrSessionClosed) || blocked < timeout {
			t.Fatalf("round %d: an unsatisfiable wait returned (%v, %v): woken by a stale token", round, blocked, err)
		}
		<-raised
		if n := r.srv.vvWaiters.active.Load(); n != 0 {
			t.Fatalf("round %d: %d waiters left on the list", round, n)
		}
	}
	answered := func() map[uint64]int {
		got := map[uint64]int{}
		for _, m := range r.received(peer) {
			if resp, ok := m.(*msg.SliceResp); ok && (resp.Err == "" || resp.Err == ErrSessionClosed.Error()) {
				got[resp.TxID]++
			}
		}
		return got
	}
	if !waitUntil(t, 2*time.Second, func() bool { return len(answered()) == rounds }) {
		t.Fatalf("%d of %d parked slices were answered", len(answered()), rounds)
	}
	time.Sleep(2 * timeout) // a second answer would come from a timer still armed
	for txID, n := range answered() {
		if n != 1 {
			t.Fatalf("slice %d was answered %d times", txID, n)
		}
	}
}
