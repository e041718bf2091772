package tcpnet

import (
	"bytes"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/racedetect"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func pair(t *testing.T) (*Node, *Node) {
	t.Helper()
	a, err := Listen(netemu.NodeID{DC: 0, Partition: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(netemu.NodeID{DC: 1, Partition: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dir := map[netemu.NodeID]string{a.ID(): a.Addr(), b.ID(): b.Addr()}
	a.Connect(dir)
	b.Connect(dir)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func waitCond(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(500 * time.Microsecond)
	}
	return false
}

func TestSendReceive(t *testing.T) {
	a, b := pair(t)
	var mu sync.Mutex
	var got []msg.Heartbeat
	var srcs []netemu.NodeID
	b.SetHandler(func(src netemu.NodeID, m any) {
		mu.Lock()
		got = append(got, *m.(*msg.Heartbeat)) // lent for the call: keep a copy
		srcs = append(srcs, src)
		mu.Unlock()
	})
	a.Send(b.ID(), &msg.Heartbeat{Time: 42})
	if !waitCond(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}) {
		t.Fatal("message never delivered over TCP")
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].Time != 42 || srcs[0] != a.ID() {
		t.Fatalf("got %+v from %v", got[0], srcs[0])
	}
}

func TestFIFOOrder(t *testing.T) {
	a, b := pair(t)
	const count = 500
	var mu sync.Mutex
	var got []vclock.Timestamp
	b.SetHandler(func(_ netemu.NodeID, m any) {
		mu.Lock()
		got = append(got, m.(*msg.Heartbeat).Time)
		mu.Unlock()
	})
	for i := 1; i <= count; i++ {
		a.Send(b.ID(), &msg.Heartbeat{Time: vclock.Timestamp(i)})
	}
	if !waitCond(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == count
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d of %d", len(got), count)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, ts := range got {
		if ts != vclock.Timestamp(i+1) {
			t.Fatalf("position %d holds %d: FIFO violated", i, ts)
		}
	}
}

func TestBidirectional(t *testing.T) {
	a, b := pair(t)
	gotA := make(chan vclock.Timestamp, 1)
	gotB := make(chan vclock.Timestamp, 1)
	a.SetHandler(func(_ netemu.NodeID, m any) { gotA <- m.(*msg.Heartbeat).Time })
	b.SetHandler(func(_ netemu.NodeID, m any) { gotB <- m.(*msg.Heartbeat).Time })
	a.Send(b.ID(), &msg.Heartbeat{Time: 1})
	b.Send(a.ID(), &msg.Heartbeat{Time: 2})
	select {
	case ts := <-gotB:
		if ts != 1 {
			t.Fatalf("b got %d", ts)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("b never received")
	}
	select {
	case ts := <-gotA:
		if ts != 2 {
			t.Fatalf("a got %d", ts)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a never received")
	}
}

func TestSendBeforePeerListensRetries(t *testing.T) {
	a, err := Listen(netemu.NodeID{DC: 0, Partition: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Reserve an address, close it, and point a's directory at it before the
	// real peer binds — the outbound link must retry until the peer is up.
	probe, err := Listen(netemu.NodeID{DC: 9, Partition: 9}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	bID := netemu.NodeID{DC: 1, Partition: 0}
	a.Connect(map[netemu.NodeID]string{bID: addr})
	a.Send(bID, &msg.Heartbeat{Time: 99})

	time.Sleep(20 * time.Millisecond) // let a few dial attempts fail
	got := make(chan vclock.Timestamp, 1)
	bl, err := net0Listen(addr)
	if err != nil {
		t.Skipf("could not rebind reserved address %s: %v", addr, err)
	}
	b := bl
	defer b.Close()
	b.SetHandler(func(_ netemu.NodeID, m any) { got <- m.(*msg.Heartbeat).Time })
	select {
	case ts := <-got:
		if ts != 99 {
			t.Fatalf("got %d", ts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued message never delivered after peer came up")
	}
}

// net0Listen binds the real peer of TestSendBeforePeerListensRetries.
func net0Listen(addr string) (*Node, error) {
	return Listen(netemu.NodeID{DC: 1, Partition: 0}, addr)
}

func TestSendToUnknownPanics(t *testing.T) {
	a, _ := pair(t)
	defer func() {
		if recover() == nil {
			t.Fatal("send to unknown node must panic")
		}
	}()
	a.Send(netemu.NodeID{DC: 9, Partition: 9}, &msg.Heartbeat{})
}

// TestHostileSourceIsDropped: what an accepted connection decodes is outside
// input, and the handlers answer it with Send(src, …), which panics on a node
// outside the directory. A frame whose envelope names such a source — here a
// CatchUpRequest with a plausible DC and an absent partition, which repl's
// own DC-range check lets through, and a SliceReq, which nothing checks —
// must never reach the handler; the connection then carries on, and the next
// frame from a real peer is answered.
func TestHostileSourceIsDropped(t *testing.T) {
	a, b := pair(t)
	answered := make(chan any, 1)
	a.SetHandler(func(_ netemu.NodeID, m any) { answered <- m })
	b.SetHandler(func(src netemu.NodeID, m any) {
		if hb, ok := m.(*msg.Heartbeat); ok {
			b.Send(src, msg.CatchUpAck{ReqID: uint64(hb.Time)}) // as repl and core do
			return
		}
		b.Send(src, msg.CatchUpAck{})
	})

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	enc := wire.NewBinaryEncoder(conn)
	stranger := netemu.NodeID{DC: 0, Partition: 9}
	for _, env := range []wire.Envelope{
		{Src: stranger, Msg: msg.CatchUpRequest{ReqID: 1, From: 5}},
		{Src: stranger, Msg: &msg.SliceReq{TxID: 2, Coordinator: stranger, Keys: []string{"k"}}},
		{Src: a.ID(), Msg: &msg.Heartbeat{Time: 77}},
	} {
		if err := enc.Encode(env); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case m := <-answered:
		if ack, ok := m.(msg.CatchUpAck); !ok || ack.ReqID != 77 {
			t.Fatalf("first answer = %#v, want the reply to the valid frame", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the valid frame behind two hostile ones was never answered")
	}
}

// TestRetransmittedSliceReqIntact: a pooled slice request is the link's from
// Send until a flush of it succeeds, and released only then. The peer here
// resets the first connection, so the batch holding the request fails to
// flush and is re-encoded on a second connection — which must carry the
// request exactly as it was sent, not one already released (and zeroed, or
// drawn by someone else) after the failed attempt.
func TestRetransmittedSliceReqIntact(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	a, err := Listen(netemu.NodeID{DC: 0, Partition: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	peer := netemu.NodeID{DC: 0, Partition: 1}
	a.Connect(map[netemu.NodeID]string{peer: ln.Addr().String()})
	accept := func() (net.Conn, *wire.BinaryDecoder) {
		t.Helper()
		_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		return c, wire.NewBinaryDecoder(c)
	}

	// The link is up; then the peer resets it, and the writer learns of it
	// only from its next flush.
	a.Send(peer, &msg.Heartbeat{Time: 1})
	first, dec := accept()
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	_ = first.(*net.TCPConn).SetLinger(0)
	_ = first.Close()
	time.Sleep(50 * time.Millisecond) // let the reset reach the writer's socket

	req := msg.NewSliceReq(7, a.ID())
	req.Keys = append(req.Keys, "k1", "k2")
	req.TV = append(req.TV, 3, 4, 5)
	a.Send(peer, req)

	second, dec := accept()
	defer func() { _ = second.Close() }()
	env, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Msg.(*msg.SliceReq)
	want := &msg.SliceReq{TxID: 7, Coordinator: a.ID(), Keys: []string{"k1", "k2"}, TV: vclock.VC{3, 4, 5}}
	if !ok || got.TxID != want.TxID || got.Coordinator != want.Coordinator ||
		!slices.Equal(got.Keys, want.Keys) || !got.TV.Equal(want.TV) {
		t.Fatalf("retransmitted %#v, want %#v", env.Msg, want)
	}
}

func TestSentCounterAndCloseIdempotent(t *testing.T) {
	a, b := pair(t)
	b.SetHandler(func(netemu.NodeID, any) {})
	for i := 0; i < 5; i++ {
		a.Send(b.ID(), &msg.Heartbeat{Time: vclock.Timestamp(i + 1)})
	}
	if got := a.Sent(); got != 5 {
		t.Fatalf("Sent = %d", got)
	}
	a.Close()
	a.Close() // must not panic or deadlock
	a.Send(b.ID(), &msg.Heartbeat{Time: 6})
	if got := a.Sent(); got != 5 {
		t.Fatalf("send after close must be dropped, Sent = %d", got)
	}
}

func TestManySendersOneReceiver(t *testing.T) {
	recv, err := Listen(netemu.NodeID{DC: 2, Partition: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var mu sync.Mutex
	perSrc := map[netemu.NodeID][]vclock.Timestamp{}
	recv.SetHandler(func(src netemu.NodeID, m any) {
		mu.Lock()
		perSrc[src] = append(perSrc[src], m.(*msg.Heartbeat).Time)
		mu.Unlock()
	})

	const senders = 4
	const per = 100
	nodes := make([]*Node, senders)
	for i := range nodes {
		n, errL := Listen(netemu.NodeID{DC: 0, Partition: i}, "127.0.0.1:0")
		if errL != nil {
			t.Fatal(errL)
		}
		n.Connect(map[netemu.NodeID]string{recv.ID(): recv.Addr()})
		nodes[i] = n
		defer n.Close()
	}
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for j := 1; j <= per; j++ {
				n.Send(recv.ID(), &msg.Heartbeat{Time: vclock.Timestamp(j)})
			}
		}(i, n)
	}
	wg.Wait()
	if !waitCond(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, v := range perSrc {
			total += len(v)
		}
		return total == senders*per
	}) {
		t.Fatal("not all messages delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	for src, seq := range perSrc {
		for j, ts := range seq {
			if ts != vclock.Timestamp(j+1) {
				t.Fatalf("src %v: FIFO violated at %d", src, j)
			}
		}
	}
}

// TestBurstDrainsInBatches floods one link with a burst far larger than any
// single write: the batched drain must deliver every message, in order,
// payloads intact. The burst is enqueued as fast as possible so the writer
// observes multi-message backlogs (the batch path), including while it is
// still dialing.
func TestBurstDrainsInBatches(t *testing.T) {
	a, b := pair(t)
	const count = 3000
	var mu sync.Mutex
	var got []msg.ReplicateBatch
	b.SetHandler(func(_ netemu.NodeID, m any) {
		// The batch and its list are lent for the call, its versions are not.
		kept := *m.(*msg.ReplicateBatch)
		kept.Versions = slices.Clone(kept.Versions)
		mu.Lock()
		got = append(got, kept)
		mu.Unlock()
	})
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 1; i <= count; i++ {
		a.Send(b.ID(), &msg.ReplicateBatch{
			Seq: uint64(i),
			Versions: []*item.Version{{
				Key: "burst", Value: payload, UpdateTime: vclock.Timestamp(i),
			}},
		})
	}
	if !waitCond(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == count
	}) {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d of %d", len(got), count)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.Seq != uint64(i+1) {
			t.Fatalf("position %d holds seq %d: FIFO violated", i, m.Seq)
		}
		if len(m.Versions) != 1 || !bytes.Equal(m.Versions[0].Value, payload) {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

// TestOutLinkQueueSwapsBuffers drives the out-queue by hand: once both
// buffers have grown to the burst size, enqueue/take/recycle swaps between
// the same two backing arrays and allocates nothing, and a recycled buffer
// holds no reference to what it carried.
func TestOutLinkQueueSwapsBuffers(t *testing.T) {
	l := &outLink{}
	l.cond = sync.NewCond(&l.mu)
	var m any = &msg.Heartbeat{Time: 42} // one message for every send, as repl's flush does
	round := func() []any {
		for i := 0; i < 8; i++ {
			l.enqueue(m)
		}
		batch := l.take()
		if len(batch) != 8 {
			t.Fatalf("take returned %d messages, want 8", len(batch))
		}
		l.recycle(batch)
		return batch[:cap(batch)]
	}
	first, second := round(), round() // each buffer grows once
	for i := 0; i < 4; i++ {
		b := round()
		if want := []*any{&first[0], &second[0]}[i%2]; &b[0] != want {
			t.Fatalf("round %d used a new backing array", i)
		}
		for j, slot := range b {
			if slot != nil {
				t.Fatalf("recycled buffer still references a sent message at slot %d", j)
			}
		}
	}
	if !racedetect.Enabled {
		if n := testing.AllocsPerRun(100, func() { round() }); n != 0 {
			t.Fatalf("steady-state enqueue/take/recycle allocates %v times per round, want 0", n)
		}
	}
	l.close()
	if l.take() != nil {
		t.Fatal("take on a closed, drained link returned a batch")
	}
}

// TestOutLinkDrainedHoldsNoMessages is the same retention rule on a live
// link: once everything sent has arrived, neither queue buffer references a
// sent batch (which would pin its versions until the slot is overwritten).
func TestOutLinkDrainedHoldsNoMessages(t *testing.T) {
	a, b := pair(t)
	var received atomic.Int64
	b.SetHandler(func(netemu.NodeID, any) { received.Add(1) })
	const sent = 200
	for i := 0; i < sent; i++ {
		a.Send(b.ID(), &msg.ReplicateBatch{HBTime: 7, Versions: []*item.Version{{Key: "k", Deps: vclock.New(3)}}})
		if i%16 == 0 {
			time.Sleep(200 * time.Microsecond) // let the writer take a few partial backlogs
		}
	}
	a.mu.Lock()
	link := a.outs[b.ID()]
	a.mu.Unlock()
	var q, spare []any
	if !waitCond(t, 5*time.Second, func() bool {
		link.mu.Lock()
		defer link.mu.Unlock()
		q, spare = link.q[:cap(link.q)], link.spare[:cap(link.spare)]
		return received.Load() == sent && len(link.q) == 0 && link.spare != nil
	}) {
		t.Fatalf("link did not drain: %d of %d received", received.Load(), sent)
	}
	for _, buf := range [][]any{q, spare} {
		for i, m := range buf {
			if m != nil {
				t.Fatalf("drained link still references a sent message at slot %d: %T", i, m)
			}
		}
	}
}

// TestSharedBatchRecycledAfterEveryFlush: one pooled batch sent to two links
// holds a reference per link, and each link's writer releases its own once
// the batch is flushed (outLink.recycle) — so the batch is recycled only
// after both flushes. The second destination is not listening at first: its
// writer keeps redialing and holds its reference until it gets through.
func TestSharedBatchRecycledAfterEveryFlush(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := ln.Addr().String()
	_ = ln.Close() // reserved for the late receiver
	s, err := Listen(netemu.NodeID{DC: 0}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	early, err := Listen(netemu.NodeID{DC: 1}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	late := netemu.NodeID{DC: 2}
	s.Connect(map[netemu.NodeID]string{early.ID(): early.Addr(), late: lateAddr})
	got := make(chan int, 1)
	early.SetHandler(func(_ netemu.NodeID, m any) { got <- len(m.(*msg.ReplicateBatch).Versions) })

	b := msg.NewReplicateBatch(2)
	b.Versions = append(b.Versions, &item.Version{Key: "k", UpdateTime: 1})
	s.Send(early.ID(), b)
	s.Send(late, b)
	if n := <-got; n != 1 {
		t.Fatalf("receiver got %d versions, want 1", n)
	}
	if !waitCond(t, 2*time.Second, func() bool { return b.Refs() == 1 }) {
		t.Fatalf("refs = %d after the first flush, want 1", b.Refs())
	}
	time.Sleep(50 * time.Millisecond) // the late link redials meanwhile
	if r := b.Refs(); r != 1 {
		t.Fatalf("refs = %d while the late link holds the batch unflushed, want 1", r)
	}

	r, err := Listen(late, lateAddr)
	if err != nil {
		t.Skipf("the reserved port was taken meanwhile: %v", err)
	}
	defer r.Close()
	if !waitCond(t, 2*time.Second, func() bool { return b.Refs() == 0 }) {
		t.Fatalf("refs = %d after both flushes, want 0", b.Refs())
	}
}
