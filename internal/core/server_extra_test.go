package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/vclock"
)

// TestGCSparesActiveTransactionSnapshot: with a long-running RO-TX holding
// an old snapshot, the GC vector must not overtake it, so versions the
// transaction can still read survive.
func TestGCSparesActiveTransactionSnapshot(t *testing.T) {
	r := newRig(t, Config{
		Config:        repl.Config{HeartbeatInterval: time.Millisecond},
		GCInterval:    2 * time.Millisecond,
		NumPartitions: 2,
	})
	// Three versions of k0 with growing dependency vectors.
	if _, err := r.srv.Put("k0", []byte("v0"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	tvOld := r.srv.VV() // snapshot that can only see v0

	// Hold a transaction open at the old snapshot by blocking its slice on
	// a key of the fake peer partition... simpler: register the snapshot the
	// way ROTx would, via a slow transaction against the local partition.
	// We emulate "active" by injecting the snapshot directly through a
	// long-running ROTx on another goroutine whose SliceReq to the fake
	// peer never gets answered.
	txDone := make(chan error, 1)
	go func() {
		// "k1p1" maps to partition 1 (the fake peer) by construction below.
		_, err := r.srv.ROTx([]string{"k0", "peer-key"}, tvOld, Optimistic,
			func(k string) int {
				if k == "peer-key" {
					return 1
				}
				return 0
			})
		txDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // transaction is now registered

	// Newer versions arrive; their deps exceed the old snapshot.
	later := r.srv.VV()
	for i := 0; i < 3; i++ {
		if _, err := r.srv.Put("k0", []byte{byte('a' + i)}, later, Optimistic); err != nil {
			t.Fatal(err)
		}
	}
	// Peer contributes a huge GC vector; without the active-tx guard the
	// chain would be pruned down to the head.
	r.inject(netemu.NodeID{DC: 0, Partition: 1},
		msg.GCExchange{Partition: 1, TV: vclock.VC{1 << 40, 1 << 40, 1 << 40}})
	time.Sleep(20 * time.Millisecond) // several GC rounds

	// The version readable at the old snapshot must still exist.
	res := r.srv.Store().ReadWithin("k0", tvOld)
	if res.V == nil || string(res.V.Value) != "v0" {
		t.Fatalf("GC pruned a version an active transaction still needs: %+v", res)
	}

	// Unblock the transaction and let GC finish its work. The TxID comes
	// from the SliceReq the fake peer captured (IDs are clock-seeded per
	// server incarnation, not 1-based).
	var txID uint64
	for _, m := range r.received(netemu.NodeID{DC: 0, Partition: 1}) {
		if req, ok := m.(*msg.SliceReq); ok {
			txID = req.TxID
		}
	}
	if txID == 0 {
		t.Fatal("fake peer never received the SliceReq")
	}
	r.inject(netemu.NodeID{DC: 0, Partition: 1},
		&msg.SliceResp{TxID: txID, Items: []msg.ItemReply{{Key: "peer-key"}}})
	if err := <-txDone; err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		return r.srv.Store().ReadVisible("k0", func(*item.Version) bool { return true }).ChainLen == 1
	})
}

// TestHeartbeatSuppressedByPuts: while PUTs keep advancing VV[m], the
// heartbeat loop must not broadcast (Algorithm 2 line 21's condition).
func TestHeartbeatSuppressedByPuts(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: 3 * time.Millisecond}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.srv.Put("hot", []byte("x"), vclock.New(3), Optimistic); err != nil {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	hb, repl := 0, 0
	for _, m := range r.received(netemu.NodeID{DC: 1, Partition: 0}) {
		switch mm := m.(type) {
		case *msg.Heartbeat:
			hb++
		case *msg.ReplicateBatch:
			repl += len(mm.Versions)
		}
	}
	if repl == 0 {
		t.Fatal("no replication observed")
	}
	// A put lands every ~200µs << Δ=3ms, so heartbeats must be (almost)
	// fully suppressed; allow a couple from scheduling hiccups.
	if hb > 3 {
		t.Fatalf("heartbeats = %d despite continuous puts (replications = %d)", hb, repl)
	}
}

// TestGSSMonotonic: the GSS never goes backwards, even when peers report
// stale VVs out of order.
func TestGSSMonotonic(t *testing.T) {
	r := newRig(t, Config{
		Config:                repl.Config{HeartbeatInterval: time.Hour},
		StabilizationInterval: time.Millisecond,
		NumPartitions:         2,
	})
	// The GSS is the minimum over the DC, including this node's own VV, so
	// advance the local VV on every entry first.
	if _, err := r.srv.Put("k", []byte("v"), vclock.New(3), Pessimistic); err != nil {
		t.Fatal(err)
	}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.Heartbeat{Time: 100})
	r.inject(netemu.NodeID{DC: 2, Partition: 0}, &msg.Heartbeat{Time: 100})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(2) >= 100 }) {
		t.Fatal("heartbeats not applied")
	}
	peer := netemu.NodeID{DC: 0, Partition: 1}
	r.inject(peer, msg.VVExchange{Partition: 1, VV: vclock.VC{100, 100, 100}})
	if !waitUntil(t, time.Second, func() bool { return r.srv.GSS().Get(1) > 0 }) {
		t.Fatal("GSS never advanced")
	}
	high := r.srv.GSS()
	// A stale (lower) report must not pull the GSS back.
	r.inject(peer, msg.VVExchange{Partition: 1, VV: vclock.VC{1, 1, 1}})
	time.Sleep(10 * time.Millisecond)
	if got := r.srv.GSS(); !high.LessEq(got) {
		t.Fatalf("GSS went backwards: %v -> %v", high, got)
	}
}

// TestDuplicateSliceRespIgnored: at-least-once transports may replay a
// SliceResp; the coordinator must not double-count it.
func TestDuplicateSliceRespIgnored(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}, NumPartitions: 2})
	peer := netemu.NodeID{DC: 0, Partition: 1}
	type res struct {
		items []msg.ItemReply
		err   error
	}
	done := make(chan res, 1)
	go func() {
		items, err := r.srv.ROTx([]string{"local", "remote"}, vclock.New(3), Optimistic,
			func(k string) int {
				if k == "remote" {
					return 1
				}
				return 0
			})
		done <- res{items, err}
	}()
	// Wait for the SliceReq to reach the fake peer, grab its TxID.
	var txID uint64
	if !waitUntil(t, 2*time.Second, func() bool {
		for _, m := range r.received(peer) {
			if req, ok := m.(*msg.SliceReq); ok {
				txID = req.TxID
				return true
			}
		}
		return false
	}) {
		t.Fatal("SliceReq never sent")
	}
	// Two objects: the coordinator recycles each reply it is handed, and a
	// transport's redelivery is a second decode, not the same pointer.
	reply := func() *msg.SliceResp {
		return &msg.SliceResp{TxID: txID, Items: []msg.ItemReply{{Key: "remote"}}}
	}
	r.inject(peer, reply())
	r.inject(peer, reply()) // duplicate
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.items) != 2 {
			t.Fatalf("items = %d (duplicate response double-counted?)", len(out.items))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("transaction never completed")
	}
}

// TestVVNeverRegresses: version vectors are monotone under any interleaving
// of replication, heartbeats and puts.
func TestVVNeverRegresses(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Feed replication and heartbeats from two fake DCs.
	for dc := 1; dc <= 2; dc++ {
		wg.Add(1)
		go func(dc int) {
			defer wg.Done()
			ts := vclock.Timestamp(1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ts += vclock.Timestamp(i%3 + 1)
				if i%2 == 0 {
					r.inject(netemu.NodeID{DC: dc, Partition: 0}, &msg.Heartbeat{Time: ts})
				} else {
					r.inject(netemu.NodeID{DC: dc, Partition: 0}, &msg.ReplicateBatch{Versions: []*item.Version{{
						Key: fmt.Sprintf("k%d", i%4), Value: []byte("x"),
						SrcReplica: dc, UpdateTime: ts, Deps: vclock.New(3),
					}}})
				}
				time.Sleep(50 * time.Microsecond)
			}
		}(dc)
	}
	prev := r.srv.VV()
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		cur := r.srv.VV()
		if !prev.LessEq(cur) {
			close(stop)
			wg.Wait()
			t.Fatalf("VV regressed: %v -> %v", prev, cur)
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

// TestDoubleCloseIsSafe: Close must be idempotent.
func TestDoubleCloseIsSafe(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Millisecond}})
	r.srv.Close()
	r.srv.Close()
}

// TestPessimisticROTxExcludesUnstable: the pessimistic transactional
// snapshot hides received-but-unstable versions, unlike the optimistic one
// (the Fig. 3d mechanism).
func TestPessimisticROTxExcludesUnstable(t *testing.T) {
	r := newRig(t, Config{
		Config:                repl.Config{HeartbeatInterval: time.Millisecond},
		DefaultMode:           Pessimistic,
		StabilizationInterval: time.Millisecond,
		NumPartitions:         2,
	})
	r.srv.Store().Insert(&item.Version{Key: "a", Value: []byte("stable"),
		SrcReplica: 1, UpdateTime: 1, Deps: vclock.VC{0, 0, 0}})
	fresh := &item.Version{Key: "a", Value: []byte("fresh"), SrcReplica: 1,
		UpdateTime: 50000, Deps: vclock.VC{0, 40000, 0}}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.ReplicateBatch{Versions: []*item.Version{fresh}})
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(1) >= 50000 }) {
		t.Fatal("replication not applied")
	}

	// Optimistic transaction sees the fresh version (its deps are covered
	// by the coordinator's VV).
	opt, err := r.srv.ROTx([]string{"a"}, vclock.New(3), Optimistic, func(string) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if string(opt[0].Value) != "fresh" {
		t.Fatalf("optimistic tx read %q", opt[0].Value)
	}

	// Pessimistic transaction hides it: GSS[1] is stuck at 0 because the
	// fake peer partition never stabilizes.
	pess, err := r.srv.ROTx([]string{"a"}, vclock.New(3), Pessimistic, func(string) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if string(pess[0].Value) != "stable" {
		t.Fatalf("pessimistic tx read %q, want the stable version", pess[0].Value)
	}
	if pess[0].Fresher != 1 {
		t.Fatalf("staleness not recorded: %+v", pess[0])
	}
}
