package core

import (
	"testing"

	"repro/internal/msg"
)

// TestApplySliceRespDeduplicatesPartitions pins the at-least-once guard: a
// redelivered slice reply (TCP reconnects duplicate messages) must not
// decrement the fan-in counter, or the transaction would complete with
// another partition's items missing.
func TestApplySliceRespDeduplicatesPartitions(t *testing.T) {
	r := newRig(t, Config{})
	s := r.srv

	// Two partitions with a key each, sized and positioned as ROTxAppend
	// leaves the state it registers.
	p := &txPending{remaining: 2, seen: make([]bool, 2), done: make(chan struct{}, 1),
		items: make([]msg.ItemReply, 2), pos: [][]int{{0}, {1}}}
	s.txMu.Lock()
	s.inflight[99] = p
	s.txMu.Unlock()
	defer func() {
		s.txMu.Lock()
		delete(s.inflight, 99)
		s.txMu.Unlock()
	}()

	reply := func(from int, key string) {
		s.applySliceResp(from, &msg.SliceResp{TxID: 99, Items: []msg.ItemReply{{Key: key}}})
	}
	reply(0, "a")
	reply(0, "a again") // duplicate delivery from partition 0
	select {
	case <-p.done:
		t.Fatal("duplicate reply completed the fan-in early")
	default:
	}
	if p.remaining != 1 || p.items[0].Key != "a" || p.items[1].Key != "" {
		t.Fatalf("after duplicate: remaining=%d items=%+v, want 1 and only a", p.remaining, p.items)
	}

	reply(1, "b")
	select {
	case <-p.done:
	default:
		t.Fatal("fan-in did not complete after both partitions replied")
	}
	if p.items[0].Key != "a" || p.items[1].Key != "b" {
		t.Fatalf("items=%+v, want a and b", p.items)
	}
	// The coordinator takes the entry off the table; until then a completed
	// fan-in ignores late duplicates and is never signalled a second time.
	reply(1, "late")
	s.txMu.Lock()
	second := p.items[1].Key
	s.txMu.Unlock()
	if second != "b" || len(p.done) != 0 {
		t.Fatalf("late duplicate reached a completed fan-in: item 1=%q tokens=%d", second, len(p.done))
	}
}
