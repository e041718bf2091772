package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

func roundTrip(t *testing.T, m any) any {
	t.Helper()
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf)
	src := netemu.NodeID{DC: 1, Partition: 3}
	if err := enc.Encode(Envelope{Src: src, Msg: m}); err != nil {
		t.Fatal(err)
	}
	dec := NewBinaryDecoder(&buf)
	env, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if env.Src != src {
		t.Fatalf("src = %v", env.Src)
	}
	return env.Msg
}

func TestRoundTripReplicateBatch(t *testing.T) {
	in := &msg.ReplicateBatch{Versions: []*item.Version{{
		Key: "k", Value: []byte("v"), SrcReplica: 2, UpdateTime: 42,
		Deps: vclock.VC{1, 2, 3}, Optimistic: true,
	}}, HBTime: 50, Epoch: 7, Seq: 1}
	out, ok := roundTrip(t, in).(*msg.ReplicateBatch)
	if !ok || !reflect.DeepEqual(in, out) {
		t.Fatalf("decoded %+v", out)
	}
}

func TestRoundTripHeartbeat(t *testing.T) {
	out, ok := roundTrip(t, &msg.Heartbeat{Time: 7}).(*msg.Heartbeat)
	if !ok || out.Time != 7 {
		t.Fatalf("decoded %+v", out)
	}
}

// The slice pair travels as pointers; nil and empty lists stay distinct. A
// decoded request comes from msg's pool; each is released here so the next
// row decodes into a recycled one that carried more keys and a longer TV,
// which must not show: no stale tail, and a nil TV stays nil.
func TestRoundTripSliceReq(t *testing.T) {
	for _, in := range []*msg.SliceReq{
		{TxID: 8, Coordinator: netemu.NodeID{DC: 4, Partition: 3}, Keys: []string{"a", "b", "c", "d"}, TV: vclock.VC{1, 2, 3, 4, 5}},
		{TxID: 9, Coordinator: netemu.NodeID{DC: 2, Partition: 1}, Keys: []string{"a", "b"}, TV: vclock.VC{4, 5, 6}},
		{TxID: 9, Keys: []string{}, TV: vclock.VC{}},
		{TxID: 10, Keys: []string{"x", "y", "z"}, TV: vclock.VC{7, 8, 9, 10}},
		{TxID: 9},
		{TxID: 11, Keys: []string{"k"}, TV: vclock.VC{3}},
	} {
		out, ok := roundTrip(t, in).(*msg.SliceReq)
		if !ok || !reflect.DeepEqual(in, out) {
			t.Fatalf("decoded %+v, want %+v", out, in)
		}
		out.Release()
	}
}

// A decoded reply comes from msg's pool; each is released here so the next
// row decodes into a recycled reply (and item buffer), which must not show.
func TestRoundTripSliceResp(t *testing.T) {
	item := msg.ItemReply{
		Key: "a", Exists: true, Value: []byte("x"), SrcReplica: 1,
		UpdateTime: 11, Deps: vclock.VC{1, 0, 0}, Fresher: 2, Invisible: 1,
	}
	for _, in := range []*msg.SliceResp{
		{TxID: 9, Items: []msg.ItemReply{item, item, item}, Err: "boom"},
		{TxID: 10},
		{TxID: 11, Items: []msg.ItemReply{}},
		{TxID: 12, Items: []msg.ItemReply{item}},
		{TxID: 13, Err: "core: server stopped"},
	} {
		out, ok := roundTrip(t, in).(*msg.SliceResp)
		if !ok || !reflect.DeepEqual(in, out) {
			t.Fatalf("decoded %+v, want %+v", out, in)
		}
		out.Release()
	}
}

func TestRoundTripExchanges(t *testing.T) {
	vv, ok := roundTrip(t, msg.VVExchange{Partition: 3, VV: vclock.VC{9, 9}}).(msg.VVExchange)
	if !ok || vv.Partition != 3 || !vv.VV.Equal(vclock.VC{9, 9}) {
		t.Fatalf("decoded %+v", vv)
	}
	gc, ok := roundTrip(t, msg.GCExchange{Partition: 1, TV: vclock.VC{5}}).(msg.GCExchange)
	if !ok || gc.Partition != 1 || !gc.TV.Equal(vclock.VC{5}) {
		t.Fatalf("decoded %+v", gc)
	}
}

func TestStreamMultipleEnvelopes(t *testing.T) {
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf)
	for i := 0; i < 10; i++ {
		if err := enc.Encode(Envelope{
			Src: netemu.NodeID{DC: 0, Partition: i},
			Msg: &msg.Heartbeat{Time: vclock.Timestamp(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewBinaryDecoder(&buf)
	for i := 0; i < 10; i++ {
		env, err := dec.Decode()
		if err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		if env.Src.Partition != i {
			t.Fatalf("envelope %d out of order: %+v", i, env)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	dec := NewBinaryDecoder(bytes.NewReader([]byte("not a frame at all")))
	if _, err := dec.Decode(); err == nil || err == io.EOF {
		t.Fatalf("garbage must fail with a real error, got %v", err)
	}
}
