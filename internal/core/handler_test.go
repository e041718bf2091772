package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// wireMessages returns one value of every message type the inter-node codec
// carries, found from outside: for each tag a frame of that tag and an
// all-zero body (every field empty) of the length its decoder wants. A type
// added to wire shows up here with no list to extend.
func wireMessages(t *testing.T) []any {
	t.Helper()
	var out []any
	for tag := 0; tag < 256; tag++ {
		for n := 0; n < 64; n++ {
			frame := append([]byte{byte(3 + n), byte(tag), 1, 0}, make([]byte, n)...)
			env, err := wire.NewBinaryDecoder(bytes.NewReader(frame)).Decode()
			if err == nil {
				out = append(out, env.Msg)
				break
			}
		}
	}
	return out
}

// TestEveryMessageHasOneHandler: every message type the wire carries has
// exactly one home. Server.handle serves six itself — each observed here by
// its effect — and leaves the rest to the replication plane's door, which
// takes exactly those: a type neither serves, or both would, fails here
// rather than as a silently dropped message in a soak.
func TestEveryMessageHasOneHandler(t *testing.T) {
	r := newRig(t, Config{Config: repl.Config{HeartbeatInterval: time.Hour}})
	s := r.srv
	sibling := netemu.NodeID{DC: 1, Partition: 0}
	peer := netemu.NodeID{DC: 0, Partition: 1}

	msgs := wireMessages(t)
	own, plane := 0, 0
	for _, m := range msgs {
		src, mine := sibling, false
		switch m.(type) {
		case msg.VVExchange, msg.GCExchange, msg.SlotMapUpdate, msg.SlotHandoff, *msg.SliceReq, *msg.SliceResp:
			src, mine = peer, true
			own++
		}
		switch inPlane := s.repl.Handle(src, m); {
		case inPlane && mine:
			t.Errorf("%T has two homes: a case in Server.handle and one behind repl's door", m)
		case !inPlane && !mine:
			t.Errorf("%T has no home: neither Server.handle nor repl's door serves it", m)
		case inPlane:
			plane++
		}
		s.handle(src, m) // and an empty message of any type goes through unharmed
	}
	if own != 6 || own+plane != len(msgs) || len(msgs) < 15 {
		t.Fatalf("%d wire types found (15 when this was written): %d the server's (want 6), %d the plane's", len(msgs), own, plane)
	}

	// The six, through handle, each by what it does.
	s.handle(peer, msg.VVExchange{Partition: 1, VV: vclock.VC{5, 6, 7}})
	s.gssMu.Lock()
	if got := s.peerVV[1]; !got.Equal(vclock.VC{5, 6, 7}) {
		t.Errorf("VVExchange: peer vector = %v", got)
	}
	s.gssMu.Unlock()
	s.handle(peer, msg.GCExchange{Partition: 1, TV: vclock.VC{1, 1, 1}})
	s.gcMu.Lock()
	if s.gcContrib[1] == nil {
		t.Error("GCExchange: no contribution recorded")
	}
	s.gcMu.Unlock()
	s.handle(peer, msg.SlotMapUpdate{Map: keyspace.DefaultMap(2)})
	if s.SlotTable() == nil {
		t.Error("SlotMapUpdate: no table installed")
	}
	handoff := []*item.Version{{Key: "h", Value: []byte("v"), SrcReplica: 1, UpdateTime: 9, Deps: vclock.New(3)}, nil}
	s.handle(peer, msg.SlotHandoff{Versions: handoff}) // a nil marker: dropped unread
	s.handle(peer, msg.SlotHandoff{Versions: handoff[:1]})
	if got := s.Store().Stats().Versions; got != 1 {
		t.Errorf("SlotHandoff: %d versions stored, want 1", got)
	}
	s.handle(peer, sliceReq(77, peer, nil, "h"))
	if !waitUntil(t, time.Second, func() bool {
		for _, raw := range r.received(peer) {
			if resp, ok := raw.(*msg.SliceResp); ok && resp.TxID == 77 {
				return true
			}
		}
		return false
	}) {
		t.Error("SliceReq: no reply reached the coordinator")
	}
	p := txPendingPool.Get().(*txPending)
	p.remaining, p.seen, p.pos = 1, make([]bool, 2), make([][]int, 2)
	s.txMu.Lock()
	s.inflight[78] = p
	s.txMu.Unlock()
	s.handle(peer, msg.NewSliceResp(78))
	select {
	case <-p.done:
	default:
		t.Error("SliceResp: the fan-in it completes never fired")
	}
	s.txMu.Lock()
	delete(s.inflight, 78)
	s.txMu.Unlock()
}
