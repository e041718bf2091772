package msg

import (
	"testing"

	"repro/internal/item"
)

// TestReplicateBatchRefs: a batch drawn with n references is recycled on the
// n-th release and not before — its version slots stay set while any link
// still holds it — and release n+1 panics.
func TestReplicateBatchRefs(t *testing.T) {
	const links = 3
	v := item.New(2)
	b := NewReplicateBatch(links)
	b.Versions = append(b.Versions, v, v)
	vs := b.Versions
	for i := 1; i < links; i++ {
		b.Release()
		if b.Refs() != int32(links-i) || vs[0] != v || vs[1] != v {
			t.Fatalf("after %d of %d releases: refs %d, versions %v", i, links, b.Refs(), vs)
		}
	}
	b.Release()
	if b.Refs() != 0 || vs[0] != nil || vs[1] != nil {
		t.Fatalf("the last release left refs %d, versions %v: not recycled", b.Refs(), vs)
	}
	if len(b.Versions) != 0 || cap(b.Versions) != cap(vs) {
		t.Fatalf("a recycled batch keeps its list empty at its capacity: len %d cap %d, want 0, %d",
			len(b.Versions), cap(b.Versions), cap(vs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an over-release did not panic")
		}
	}()
	b.Release()
}

func TestHeartbeatRefs(t *testing.T) {
	h := NewHeartbeat(2)
	h.Release()
	if h.Refs() != 1 {
		t.Fatalf("after 1 of 2 releases: refs %d", h.Refs())
	}
	h.Release()
	if h.Refs() != 0 {
		t.Fatalf("the last release left refs %d", h.Refs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an over-release did not panic")
		}
	}()
	h.Release()
}

// TestUnpooledReleaseIsNoop: a decoder-lent or literal message is nobody's to
// recycle — Release leaves it intact however often it is called.
func TestUnpooledReleaseIsNoop(t *testing.T) {
	v := item.New(2)
	var dec struct { // the TCP decoder lends messages it holds by value
		batch ReplicateBatch
		hb    Heartbeat
	}
	dec.batch.Versions, dec.hb.Time = []*item.Version{v}, 9
	for _, b := range []*ReplicateBatch{{Versions: []*item.Version{v}}, &dec.batch} {
		vs := b.Versions
		b.Release()
		b.Release()
		if b.Refs() != 0 || len(b.Versions) != 1 || vs[0] != v {
			t.Fatalf("an unpooled batch was recycled: refs %d, versions %v", b.Refs(), vs)
		}
	}
	for _, h := range []*Heartbeat{{Time: 9}, &dec.hb} {
		h.Release()
		h.Release()
		if h.Refs() != 0 || h.Time != 9 {
			t.Fatalf("an unpooled heartbeat was recycled: refs %d, time %d", h.Refs(), h.Time)
		}
	}
}
