package netemu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/racedetect"
)

func collect(t *testing.T, n *Network, id NodeID) (*Endpoint, func() []any) {
	t.Helper()
	var mu sync.Mutex
	var got []any
	ep := n.Register(id, func(_ NodeID, m any) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	return ep, func() []any {
		mu.Lock()
		defer mu.Unlock()
		out := make([]any, len(got))
		copy(out, got)
		return out
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition not reached within timeout")
}

func TestDeliveryBasic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	_, got := collect(t, n, NodeID{1, 0})
	a.Send(NodeID{1, 0}, "hello")
	waitFor(t, time.Second, func() bool { return len(got()) == 1 })
	if got()[0] != "hello" {
		t.Fatalf("got %v", got()[0])
	}
}

func TestFIFOOrderPerLink(t *testing.T) {
	n := New(Config{Latency: func(_, _ NodeID) time.Duration { return time.Millisecond }, JitterFrac: 0.5, Seed: 42})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	_, got := collect(t, n, NodeID{1, 0})
	const count = 200
	for i := 0; i < count; i++ {
		a.Send(NodeID{1, 0}, i)
	}
	waitFor(t, 5*time.Second, func() bool { return len(got()) == count })
	for i, m := range got() {
		if m.(int) != i {
			t.Fatalf("message %d arrived at position %d: FIFO violated", m, i)
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	const lat = 20 * time.Millisecond
	n := New(Config{Latency: func(_, _ NodeID) time.Duration { return lat }})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	var deliveredAt atomic.Value
	n.Register(NodeID{1, 0}, func(_ NodeID, _ any) { deliveredAt.Store(time.Now()) })
	start := time.Now()
	a.Send(NodeID{1, 0}, 1)
	waitFor(t, time.Second, func() bool { return deliveredAt.Load() != nil })
	elapsed := deliveredAt.Load().(time.Time).Sub(start)
	if elapsed < lat {
		t.Fatalf("delivered after %v, want >= %v", elapsed, lat)
	}
	if elapsed > lat*4 {
		t.Fatalf("delivered after %v, far above injected latency %v", elapsed, lat)
	}
}

func TestHandlerSource(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 3}, nil)
	var src atomic.Value
	n.Register(NodeID{2, 1}, func(s NodeID, _ any) { src.Store(s) })
	a.Send(NodeID{2, 1}, struct{}{})
	waitFor(t, time.Second, func() bool { return src.Load() != nil })
	if got := src.Load().(NodeID); got != (NodeID{0, 3}) {
		t.Fatalf("handler saw src %v", got)
	}
}

func TestPartitionBuffersAndHeals(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	_, got := collect(t, n, NodeID{1, 0})

	// Prime the link, then cut it.
	a.Send(NodeID{1, 0}, "pre")
	waitFor(t, time.Second, func() bool { return len(got()) == 1 })
	n.PartitionDCs(0, 1, true)
	for i := 0; i < 5; i++ {
		a.Send(NodeID{1, 0}, i)
	}
	time.Sleep(20 * time.Millisecond)
	if len(got()) != 1 {
		t.Fatalf("messages leaked through a downed link: %v", got())
	}

	n.PartitionDCs(0, 1, false)
	waitFor(t, time.Second, func() bool { return len(got()) == 6 })
	for i, m := range got()[1:] {
		if m.(int) != i {
			t.Fatalf("post-heal delivery out of order: %v", got())
		}
	}
}

func TestPartitionLeavesIntraDCLinks(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	_, got01 := collect(t, n, NodeID{0, 1})
	_, got10 := collect(t, n, NodeID{1, 0})
	// Create both links first.
	a.Send(NodeID{0, 1}, "x")
	a.Send(NodeID{1, 0}, "x")
	waitFor(t, time.Second, func() bool { return len(got01()) == 1 && len(got10()) == 1 })

	n.PartitionDCs(0, 1, true)
	a.Send(NodeID{0, 1}, "intra")
	a.Send(NodeID{1, 0}, "inter")
	waitFor(t, time.Second, func() bool { return len(got01()) == 2 })
	time.Sleep(10 * time.Millisecond)
	if len(got10()) != 1 {
		t.Fatal("inter-DC message crossed a partition")
	}
}

func TestSetLinkDownBeforeTraffic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	_, got := collect(t, n, NodeID{1, 0})
	n.SetLinkDown(NodeID{0, 0}, NodeID{1, 0}, true)
	a.Send(NodeID{1, 0}, 7)
	time.Sleep(10 * time.Millisecond)
	if len(got()) != 0 {
		t.Fatal("downed link delivered a message")
	}
	n.SetLinkDown(NodeID{0, 0}, NodeID{1, 0}, false)
	waitFor(t, time.Second, func() bool { return len(got()) == 1 })
}

func TestMessageCount(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	_, got := collect(t, n, NodeID{1, 0})
	for i := 0; i < 10; i++ {
		a.Send(NodeID{1, 0}, i)
	}
	waitFor(t, time.Second, func() bool { return len(got()) == 10 })
	if c := n.MessageCount(); c != 10 {
		t.Fatalf("MessageCount = %d, want 10", c)
	}
}

func TestSendAfterCloseIsDropped(t *testing.T) {
	n := New(Config{})
	a := n.Register(NodeID{0, 0}, nil)
	n.Register(NodeID{1, 0}, func(_ NodeID, _ any) { t.Error("delivered after close") })
	n.Close()
	a.Send(NodeID{1, 0}, 1) // must not panic nor deliver
	time.Sleep(5 * time.Millisecond)
}

func TestDuplicateRegisterPanics(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	n.Register(NodeID{0, 0}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register must panic")
		}
	}()
	n.Register(NodeID{0, 0}, nil)
}

func TestSendToUnknownPanics(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("send to unregistered endpoint must panic")
		}
	}()
	a.Send(NodeID{9, 9}, 1)
}

func TestConcurrentSendersFIFOPerLink(t *testing.T) {
	n := New(Config{Latency: func(_, _ NodeID) time.Duration { return 100 * time.Microsecond }})
	defer n.Close()
	const senders = 4
	const per = 100
	eps := make([]*Endpoint, senders)
	for i := 0; i < senders; i++ {
		eps[i] = n.Register(NodeID{0, i}, nil)
	}
	var mu sync.Mutex
	perSrc := make(map[NodeID][]int)
	n.Register(NodeID{1, 0}, func(src NodeID, m any) {
		mu.Lock()
		perSrc[src] = append(perSrc[src], m.(int))
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				eps[i].Send(NodeID{1, 0}, j)
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, v := range perSrc {
			total += len(v)
		}
		return total == senders*per
	})
	mu.Lock()
	defer mu.Unlock()
	for src, seq := range perSrc {
		for j, v := range seq {
			if v != j {
				t.Fatalf("link from %v violated FIFO at %d: %v", src, j, v)
			}
		}
	}
}

// TestQueueRingOrderAcrossWrapAndGrowth drives the link's ring through wrapped
// heads and two growths: entries come out in push order, the buffer is reused
// while the backlog fits, and a backlog above maxIdleQueue is released once
// drained.
func TestQueueRingOrderAcrossWrapAndGrowth(t *testing.T) {
	var q queue
	next, want := 0, 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.push(envelope{msg: next})
			next++
		}
	}
	pop := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if got := q.pop().msg.(int); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(5)
	pop(3) // head = 3
	push(6)
	if len(q.buf) != 8 {
		t.Fatalf("8 queued entries grew the buffer to %d", len(q.buf))
	}
	push(9) // grows with a wrapped head
	pop(10)
	push(20)
	pop(q.n)
	if len(q.buf) == 0 || q.n != 0 {
		t.Fatalf("a small drained queue must keep its buffer: len=%d n=%d", len(q.buf), q.n)
	}
	push(maxIdleQueue + 1)
	pop(q.n)
	if q.buf != nil {
		t.Fatalf("a drained queue kept a %d-entry buffer", len(q.buf))
	}
}

// TestLinkDrainedHoldsNoMessages is tcpnet's retention rule on the emulated
// link: once everything sent has been delivered, no slot of the queue's
// buffer references a message (a whole ReplicateBatch on replication links,
// pinned until the slot is overwritten).
func TestLinkDrainedHoldsNoMessages(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	var received atomic.Int64
	n.Register(NodeID{1, 0}, func(NodeID, any) { received.Add(1) })
	const sent = 200
	for i := 0; i < sent; i++ {
		a.Send(NodeID{1, 0}, &[64]byte{})
		if i%16 == 0 {
			time.Sleep(200 * time.Microsecond) // let the link take a few partial backlogs
		}
	}
	n.mu.Lock()
	l := n.links[linkKey{NodeID{0, 0}, NodeID{1, 0}}]
	n.mu.Unlock()
	waitFor(t, 5*time.Second, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return received.Load() == sent && l.q.n == 0
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.q.buf) == 0 {
		t.Fatal("a drained link dropped its queue buffer")
	}
	for i, e := range l.q.buf {
		if e.msg != nil {
			t.Fatalf("drained link still references a delivered message at slot %d: %T", i, e.msg)
		}
	}
}

// TestNetemuSendAllocs: a link in steady state reuses its queue buffer, so a
// send — enqueue, hand-off to the link goroutine, delivery — allocates
// nothing. (Before the ring, popping with q = q[1:] gave up the buffer's
// capacity and a near-empty link reallocated on nearly every message.)
func TestNetemuSendAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := New(Config{})
	defer n.Close()
	a := n.Register(NodeID{0, 0}, nil)
	var received atomic.Int64
	n.Register(NodeID{1, 0}, func(NodeID, any) { received.Add(1) })
	var m any = &[64]byte{} // boxed once: the message is the caller's allocation
	send := func(k int) {
		target := received.Load() + int64(k)
		for i := 0; i < k; i++ {
			a.Send(NodeID{1, 0}, m)
		}
		for received.Load() != target {
			runtime.Gosched()
		}
	}
	send(1000) // creates the link and sizes its buffer
	if avg := testing.AllocsPerRun(10, func() { send(1000) }); avg != 0 {
		t.Fatalf("1000 sends through a draining link allocate %v times, want 0", avg)
	}
}
