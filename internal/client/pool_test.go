package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/racedetect"
	"repro/internal/wire"
)

// frontDoorStub speaks just enough of the binary front door to drive a Pool
// without a deployment behind it — and without allocating per request, so
// allocation counts taken around a client call are the client's own. Every
// request is answered with reply(op, id, rest), rest being the frame after
// its session id (for the keyed ops: uvarint(len(key)) || key ...).
func frontDoorStub(t testing.TB, reply func(op byte, id uint64, rest []byte) wire.FrontDoorResponse) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go stubConn(conn, reply)
		}
	}()
	return ln.Addr().String()
}

// echoServer is the stub that answers a GET with its key as the value and
// everything else with OK.
func echoServer(t testing.TB) string { return frontDoorStub(t, echoReply) }

func echoReply(op byte, id uint64, rest []byte) wire.FrontDoorResponse {
	if op != wire.FDGet {
		return wire.FrontDoorResponse{Kind: wire.FDOK, ID: id}
	}
	klen, n := binary.Uvarint(rest)
	return wire.FrontDoorResponse{Kind: wire.FDValue, ID: id, Exists: true, Value: rest[n : n+int(klen)]}
}

func stubConn(conn net.Conn, reply func(op byte, id uint64, rest []byte) wire.FrontDoorResponse) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	if magic, err := br.ReadByte(); err != nil || magic != wire.FrontDoorMagic {
		return
	}
	var buf, out []byte
	for {
		frame, err := wire.ReadFrontDoorFrame(br, buf)
		if err != nil || len(frame) == 0 {
			return
		}
		buf = frame[:0]
		// op || uvarint(id) || uvarint(session) || ...
		op, rest := frame[0], frame[1:]
		id, n := binary.Uvarint(rest)
		rest = rest[n:]
		_, n = binary.Uvarint(rest)
		resp := reply(op, id, rest[n:])
		out = wire.AppendFrontDoorResponse(out[:0], &resp)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func dialEcho(t testing.TB, addr string) *Pool {
	t.Helper()
	pool, err := DialPool(PoolConfig{Addr: addr, Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// TestRemoteSessionAllocs: a synchronous round trip reuses the session's
// call — no Call, no channel per request. What is left on the client side is
// the copy of a GET's value out of the read buffer.
func TestRemoteSessionAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sess := dialEcho(t, echoServer(t)).Session()
	key, value := "p0-k000042", []byte("12345678")
	if v, err := sess.Get(key); err != nil || string(v) != key {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := sess.Get(key); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("RemoteSession.Get allocates %v times per call on the client side, want <= 1 (the value)", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := sess.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("RemoteSession.Put allocates %v times per call on the client side, want 0", n)
	}
}

// TestFrontDoorPoolSurfacesWrongSlotEpoch: by the time a reshard rejection
// reaches the wire, the server-side session has retried it for its whole
// budget — so the pool does not start a second one. The operation is one
// request, and the caller gets the canonical error at once.
func TestFrontDoorPoolSurfacesWrongSlotEpoch(t *testing.T) {
	ops := map[string]func(*RemoteSession) error{
		"Put":  func(s *RemoteSession) error { return s.Put("k", []byte("v")) },
		"Get":  func(s *RemoteSession) error { _, err := s.Get("k"); return err },
		"ROTx": func(s *RemoteSession) error { _, err := s.ROTx([]string{"k"}); return err },
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			var requests atomic.Int32
			// Rejects the first request only: a retry would succeed.
			addr := frontDoorStub(t, func(op byte, id uint64, rest []byte) wire.FrontDoorResponse {
				if requests.Add(1) == 1 {
					return wire.FrontDoorResponse{Kind: wire.FDErr, ID: id,
						Code: wire.FDCodeWrongSlotEpoch, Text: "slot moved"}
				}
				return echoReply(op, id, rest)
			})
			err := op(dialEcho(t, addr).Session())
			if !errors.Is(err, core.ErrWrongSlotEpoch) {
				t.Fatalf("err = %v, want core.ErrWrongSlotEpoch", err)
			}
			if n := requests.Load(); n != 1 {
				t.Fatalf("the stub saw %d requests, want 1", n)
			}
		})
	}
}

// TestFrontDoorPoolDeliveredHoldsNoResponses is the client-side retention
// rule: a delivered response belongs to its caller, so once a run of
// responses has been handed out the reader's run buffer references none of
// them — a long run followed by short ones must not pin its values until a
// run of the same length overwrites the slots.
func TestFrontDoorPoolDeliveredHoldsNoResponses(t *testing.T) {
	pc := &poolConn{inflight: make(map[uint64]*Call)}
	var calls []*Call
	run := func(n int) *bufio.Reader {
		var stream []byte
		for i := 0; i < n; i++ {
			id := uint64(len(calls) + 1)
			c := &Call{done: make(chan struct{})}
			c.state.Store(id)
			pc.inflight[id] = c
			calls = append(calls, c)
			stream = wire.AppendFrontDoorResponse(stream, &wire.FrontDoorResponse{
				Kind: wire.FDValue, ID: id, Exists: true, Value: []byte(fmt.Sprintf("value-%d", id)),
			})
		}
		return bufio.NewReader(bytes.NewReader(stream))
	}
	for _, n := range []int{100, 3} {
		if err := pc.readRun(run(n)); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range calls {
		if resp, err := c.Wait(); err != nil || string(resp.Value) != fmt.Sprintf("value-%d", i+1) {
			t.Fatalf("call %d = %q, %v", i+1, resp.Value, err)
		}
	}
	if cap(pc.arrivals) < 100 {
		t.Fatalf("the run buffer holds %d slots, want the long run's 100", cap(pc.arrivals))
	}
	for i, a := range pc.arrivals[:cap(pc.arrivals)] {
		if a.call != nil || a.resp.Value != nil || a.resp.Items != nil || a.resp.Text != "" {
			t.Fatalf("slot %d still references a delivered response: %+v", i, a.resp)
		}
	}
}

// TestFrontDoorCallReuseIgnoresStaleCompletion: completion is tied to the
// request id the call is armed with, so a party that still holds an earlier
// request's id — a connection teardown that lost the race against the
// response — cannot complete the call's next use.
func TestFrontDoorCallReuseIgnoresStaleCompletion(t *testing.T) {
	c := &Call{reuse: true, done: make(chan struct{}, 1)}
	c.state.Store(5)
	c.complete(5, wire.FrontDoorResponse{Kind: wire.FDOK, ID: 5}, nil)
	c.complete(5, wire.FrontDoorResponse{}, errors.New("teardown, late")) // duplicate: dropped
	if resp, err := c.Wait(); err != nil || resp.ID != 5 {
		t.Fatalf("first use: %+v, %v", resp, err)
	}
	c.state.Store(6) // re-armed for the next request
	c.complete(5, wire.FrontDoorResponse{}, errors.New("teardown, later still"))
	select {
	case <-c.done:
		t.Fatal("a stale completion was delivered to the call's next use")
	default:
	}
	c.complete(6, wire.FrontDoorResponse{Kind: wire.FDOK, ID: 6}, nil)
	if resp, err := c.Wait(); err != nil || resp.ID != 6 {
		t.Fatalf("second use: %+v, %v", resp, err)
	}
}

// TestFrontDoorCallReuseNoStaleResponse races connection failure against
// completion on a session's reused call: whatever the interleaving, every
// round trip returns either an error or the answer to its own request, and
// once the connection is dead every call fails.
func TestFrontDoorCallReuseNoStaleResponse(t *testing.T) {
	addr := echoServer(t)
	rng := rand.New(rand.NewPCG(7, 7))
	for iter := 0; iter < 200; iter++ {
		pool := dialEcho(t, addr)
		sess := pool.Session()
		stopped := make(chan int)
		go func() {
			i := 0
			for ; ; i++ {
				key := fmt.Sprintf("k-%d-%d", iter, i)
				v, err := sess.Get(key)
				if err != nil {
					break
				}
				if string(v) != key {
					t.Errorf("iteration %d: Get(%q) returned %q: a response to another request", iter, key, v)
					break
				}
			}
			for j := 0; j < 3; j++ {
				if v, err := sess.Get("after"); err == nil {
					t.Errorf("iteration %d: Get on a dead connection returned %q", iter, v)
				}
			}
			stopped <- i
		}()
		time.Sleep(time.Duration(rng.IntN(300)) * time.Microsecond)
		pool.conns[0].fail(errors.New("injected failure"))
		<-stopped
		pool.Close()
	}
}
