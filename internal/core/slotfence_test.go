package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/vclock"
)

// TestInstallSlotMapIsWriteFence pins the reshard drain's soundness
// invariant: once InstallSlotMap returns, no write admitted under the
// replaced table can still commit, so a version-vector mark captured after
// the install covers every version the old layout will ever produce. The
// check must hold under concurrent writers whose lock-free ownsKey fast
// path raced the install — the authoritative recheck in PrepareLocal runs
// under the outbound lock the install serializes on. A regression here
// shows up as a version above the mark: exactly the write that would
// escape a reshard's drain and copy, stranding it on a donor forever.
func TestInstallSlotMapIsWriteFence(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, SlotMap: keyspace.DefaultMap(2)})

	// Keys this server (partition 0 of 2) owns under the default layout.
	var keys []string
	for i := 0; len(keys) < 4; i++ {
		k := fmt.Sprintf("fence-%d", i)
		if keyspace.DefaultMap(2).Owner[keyspace.SlotOf(k)] == 0 {
			keys = append(keys, k)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// ErrWrongSlotEpoch while fenced is the expected refusal;
				// anything may race, only commits above the mark are bugs.
				_, _ = r.srv.Put(keys[(w+i)%len(keys)], []byte("v"), nil, Optimistic)
			}
		}(w)
	}

	base := keyspace.DefaultMap(2)
	for round := 0; round < 50; round++ {
		// Fence: move every slot to partition 1 under the next epoch.
		fence := base.Clone()
		fence.Epoch = uint64(2*round + 1)
		for s := 0; s < keyspace.NumSlots; s++ {
			fence.Owner[s] = 1
			fence.Stamp[s] = fence.Epoch
		}
		r.srv.InstallSlotMap(fence)
		mark := r.srv.VV().Get(0)

		var maxTS vclock.Timestamp
		r.srv.Store().ForEachVersion(func(v *item.Version) {
			if v.UpdateTime > maxTS {
				maxTS = v.UpdateTime
			}
		})
		if maxTS > mark {
			t.Fatalf("round %d: version committed at %d after the fence installed (mark %d) — it would escape a reshard's drain",
				round, maxTS, mark)
		}

		// Unfence: hand the slots back so the writers make progress again.
		unfence := fence.Clone()
		unfence.Epoch = uint64(2*round + 2)
		for s := 0; s < keyspace.NumSlots; s++ {
			unfence.Owner[s] = 0
			unfence.Stamp[s] = unfence.Epoch
		}
		r.srv.InstallSlotMap(unfence)
	}
	close(stop)
	wg.Wait()

	// The authoritative recheck, deterministically: PrepareLocal — the
	// under-lock half a raced writer reaches after its stale fast-path check
	// passed — must itself refuse a fenced key, not just Put's front door.
	final := base.Clone()
	final.Epoch = 1000
	for s := 0; s < keyspace.NumSlots; s++ {
		final.Owner[s] = 1
		final.Stamp[s] = final.Epoch
	}
	r.srv.InstallSlotMap(final)
	mark := r.srv.VV().Get(0)
	v := &item.Version{Key: keys[0], Value: []byte("v"), SrcReplica: 0}
	if _, err := (*replBackend)(r.srv).PrepareLocal(v); err != ErrWrongSlotEpoch {
		t.Fatalf("PrepareLocal on a fenced key: err = %v, want ErrWrongSlotEpoch", err)
	}
	if got := r.srv.VV().Get(0); got != mark {
		t.Fatalf("refused write moved VV[0] %d -> %d", mark, got)
	}
}

// TestOwnershipEnforcedFromEpochZero: a server serves a key iff its table
// says so, and the epoch-0 table is a table. A GET, a PUT and an RO-TX slice
// for a key it assigns to the other partition are each refused with the
// redirect a reshard's fence uses.
func TestOwnershipEnforcedFromEpochZero(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}, SlotMap: keyspace.DefaultMap(2)})
	if e := r.srv.SlotEpoch(); e != 0 {
		t.Fatalf("slot epoch = %d, want 0", e)
	}
	key := keyspace.Build(2, 1).Key(1, 0)
	if _, err := r.srv.Get(key, vclock.New(3), Optimistic); err != ErrWrongSlotEpoch {
		t.Fatalf("GET of partition 1's key: err = %v, want ErrWrongSlotEpoch", err)
	}
	if _, err := r.srv.Put(key, []byte("v"), vclock.New(3), Optimistic); err != ErrWrongSlotEpoch {
		t.Fatalf("PUT of partition 1's key: err = %v, want ErrWrongSlotEpoch", err)
	}
	if r.srv.Store().Head(key) != nil {
		t.Fatal("the refused PUT was stored")
	}
	peer := netemu.NodeID{DC: 0, Partition: 1}
	r.inject(peer, sliceReq(9, peer, vclock.New(3), key))
	if !waitUntil(t, 2*time.Second, func() bool {
		for _, m := range r.received(peer) {
			if resp, ok := m.(*msg.SliceResp); ok && resp.TxID == 9 {
				return resp.Err == ErrWrongSlotEpoch.Error()
			}
		}
		return false
	}) {
		t.Fatal("the slice for partition 1's key was not refused with ErrWrongSlotEpoch")
	}
}
