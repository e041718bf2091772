package core

import (
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// TestReplicationBatchFlushOnSize: once the replication plane's batch cap
// (128 updates) is buffered, a batch goes out immediately — no heartbeat tick
// needed.
func TestReplicationBatchFlushOnSize(t *testing.T) {
	r := newRig(t, Config{
		HeartbeatInterval: time.Hour, // timed flush effectively disabled
	})
	const puts = 2 * 128
	for i := 0; i < puts; i++ {
		if _, err := r.srv.Put("k0", []byte{byte(i)}, vclock.New(3), Optimistic); err != nil {
			t.Fatal(err)
		}
	}
	id := netemu.NodeID{DC: 1, Partition: 0}
	if !waitUntil(t, time.Second, func() bool {
		total := 0
		for _, m := range r.received(id) {
			if b, ok := m.(*msg.ReplicateBatch); ok {
				total += len(b.Versions)
			}
		}
		return total == puts
	}) {
		t.Fatalf("sibling received %d messages, want %d versions in batches", len(r.received(id)), puts)
	}
	// Versions inside each batch must be in update-timestamp order.
	var prev vclock.Timestamp
	for _, m := range r.received(id) {
		b, ok := m.(*msg.ReplicateBatch)
		if !ok {
			t.Fatalf("unexpected message %T", m)
		}
		for _, v := range b.Versions {
			if v.UpdateTime <= prev {
				t.Fatal("batched replication not in timestamp order")
			}
			prev = v.UpdateTime
		}
		if b.HBTime < prev {
			t.Fatalf("HBTime %d below last version %d", b.HBTime, prev)
		}
	}
}

// TestReplicationBatchFlushOnHeartbeatTick: below the size threshold, the
// buffer drains on the heartbeat tick (Δ), bounding the added replication
// delay by one heartbeat period.
func TestReplicationBatchFlushOnHeartbeatTick(t *testing.T) {
	r := newRig(t, Config{HeartbeatInterval: time.Millisecond})
	for i := 0; i < 3; i++ {
		if _, err := r.srv.Put("k0", []byte{byte(i)}, vclock.New(3), Optimistic); err != nil {
			t.Fatal(err)
		}
	}
	id := netemu.NodeID{DC: 2, Partition: 0}
	if !waitUntil(t, time.Second, func() bool {
		total := 0
		for _, m := range r.received(id) {
			switch mm := m.(type) {
			case *msg.ReplicateBatch:
				total += len(mm.Versions)
			}
		}
		return total == 3
	}) {
		t.Fatal("buffered updates never flushed on the heartbeat tick")
	}
}

// TestReplicationFlushIntervalKnob: the flush cadence is Δ and nothing else,
// pinned from both sides. A buffer short of the batch cap waits for the tick
// — a quarter-full one used to drain at the next quarter-Δ — and a buffer
// that reaches the cap is shipped at once.
func TestReplicationFlushIntervalKnob(t *testing.T) {
	const delta = 2 * time.Second
	const batchCap = 128 // repl's inline-flush threshold
	r := newRig(t, Config{HeartbeatInterval: delta})
	start := time.Now()
	put := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := r.srv.Put("k0", []byte("v"), vclock.New(3), Optimistic); err != nil {
				t.Fatal(err)
			}
		}
	}
	id := netemu.NodeID{DC: 1, Partition: 0}
	put(batchCap / 4)
	time.Sleep(delta/4 + 100*time.Millisecond) // past the quarter-Δ, well short of the tick
	if got, took := len(r.received(id)), time.Since(start); got != 0 && took < delta {
		t.Fatalf("%d message(s) shipped %v after a quarter-full buffer, before the Δ tick (%v)", got, took, delta)
	}
	put(batchCap - batchCap/4)
	if !waitUntil(t, delta/4, func() bool { return len(r.received(id)) >= 1 }) {
		t.Fatal("a buffer at the batch cap was not flushed inline")
	}
	if b, ok := r.received(id)[0].(*msg.ReplicateBatch); !ok || len(b.Versions) != batchCap {
		t.Fatalf("first message = %T, want one batch of %d versions", r.received(id)[0], batchCap)
	}
}

// TestApplyReplicateBatchAdvancesVVAndServesVersions: the receive side
// installs every version of a batch and advances the sender's VV entry to
// the covering heartbeat timestamp.
func TestApplyReplicateBatchAdvancesVVAndServesVersions(t *testing.T) {
	r := newRig(t, Config{HeartbeatInterval: time.Hour})
	batch := &msg.ReplicateBatch{
		Versions: []*item.Version{
			{Key: "a", Value: []byte("v1"), SrcReplica: 1, UpdateTime: 100, Deps: vclock.New(3)},
			{Key: "b", Value: []byte("v2"), SrcReplica: 1, UpdateTime: 200, Deps: vclock.New(3)},
			{Key: "a", Value: []byte("v3"), SrcReplica: 1, UpdateTime: 300, Deps: vclock.New(3)},
		},
		HBTime: 350, // covering heartbeat beyond the last version
	}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, batch)
	if !waitUntil(t, time.Second, func() bool { return r.srv.VV().Get(1) == 350 }) {
		t.Fatalf("VV[1] = %d, want the covering HBTime 350", r.srv.VV().Get(1))
	}
	got, err := r.srv.Get("a", vclock.New(3), Optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "v3" {
		t.Fatalf("read %q, want the freshest batched version", got.Value)
	}
	if r.srv.Store().Stats().Versions != 3 {
		t.Fatalf("stored %d versions, want 3", r.srv.Store().Stats().Versions)
	}
}

// TestBatchUnblocksWaitingGet: a GET blocked on a missing dependency is
// released when the dependency arrives inside a batch.
func TestBatchUnblocksWaitingGet(t *testing.T) {
	r := newRig(t, Config{HeartbeatInterval: time.Hour})
	rdv := vclock.VC{0, 5000, 0}
	done := make(chan error, 1)
	go func() {
		_, err := r.srv.Get("k0", rdv, Optimistic)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("GET returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.inject(netemu.NodeID{DC: 1, Partition: 0}, &msg.ReplicateBatch{
		Versions: []*item.Version{
			{Key: "k0", Value: []byte("dep"), SrcReplica: 1, UpdateTime: 5000, Deps: vclock.New(3)},
		},
		HBTime: 5000,
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("batch did not release the blocked GET")
	}
}

// TestCloseFlushesBufferedReplication: updates still sitting in the batch
// buffer are handed to the transport on Close, so siblings do not lose the
// tail of the update stream.
func TestCloseFlushesBufferedReplication(t *testing.T) {
	r := newRig(t, Config{HeartbeatInterval: time.Hour})
	if _, err := r.srv.Put("k0", []byte("tail"), vclock.New(3), Optimistic); err != nil {
		t.Fatal(err)
	}
	id := netemu.NodeID{DC: 1, Partition: 0}
	if len(r.received(id)) != 0 {
		t.Skip("flush raced ahead; nothing buffered to observe")
	}
	r.srv.Close()
	if !waitUntil(t, time.Second, func() bool { return len(r.received(id)) >= 1 }) {
		t.Fatal("Close dropped the buffered update")
	}
}
