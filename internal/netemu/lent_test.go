package netemu_test

import (
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
)

// TestLentReleasedAfterHandler: a link releases its reference to a pooled
// replication message once the handler has returned — the handler reads it
// intact — and never releases a slice request or reply, which the receiver
// owns from delivery on.
func TestLentReleasedAfterHandler(t *testing.T) {
	n := netemu.New(netemu.Config{})
	defer n.Close()
	src := n.Register(netemu.NodeID{DC: 0}, nil)
	v := item.New(2, "", nil)
	type seen struct {
		refs     int32
		versions int
	}
	got := make(chan seen, 1)
	owned := make(chan any, 2)
	n.Register(netemu.NodeID{DC: 1}, func(_ netemu.NodeID, m any) {
		switch mm := m.(type) {
		case *msg.ReplicateBatch:
			got <- seen{mm.Refs(), len(mm.Versions)}
		case *msg.Heartbeat:
			got <- seen{mm.Refs(), 0}
		default:
			owned <- m
		}
	})
	b := msg.NewReplicateBatch(2) // a second link's reference stays held
	b.Versions = append(b.Versions, v)
	src.Send(netemu.NodeID{DC: 1}, b)
	if s := <-got; s.refs != 2 || s.versions != 1 {
		t.Fatalf("handler saw refs %d and %d versions, want 2 and 1: released before the call", s.refs, s.versions)
	}
	waitRefs(t, b.Refs, 1)
	if b.Versions[0] != v {
		t.Fatal("the batch was recycled while another link held it")
	}
	h := msg.NewHeartbeat(1)
	src.Send(netemu.NodeID{DC: 1}, h)
	if s := <-got; s.refs != 1 {
		t.Fatalf("handler saw a heartbeat with refs %d, want 1", s.refs)
	}

	req, resp := msg.NewSliceReq(1, netemu.NodeID{}), msg.NewSliceResp(1)
	req.Keys = append(req.Keys, "k")
	resp.Items = append(resp.Items, msg.ItemReply{Key: "k"})
	src.Send(netemu.NodeID{DC: 1}, req)
	src.Send(netemu.NodeID{DC: 1}, resp)
	if m := <-owned; m != req {
		t.Fatalf("delivered %T, want the slice request", m)
	}
	if m := <-owned; m != resp {
		t.Fatalf("delivered %T, want the slice reply", m)
	}
	// A later delivery on the same link proves the link has moved past both.
	src.Send(netemu.NodeID{DC: 1}, msg.NewHeartbeat(1))
	<-got
	if len(req.Keys) != 1 || req.Keys[0] != "k" || len(resp.Items) != 1 {
		t.Fatal("the link released a slice request or reply the receiver owns")
	}
}

func waitRefs(t *testing.T, refs func() int32, want int32) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); refs() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("refs stuck at %d, want %d", refs(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
