package client

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/racedetect"
	"repro/internal/wire"
)

// stubReply answers one request: rest is the frame after its session id (for
// the keyed ops: uvarint(len(key)) || key ...), and items the connection's
// list for an FDTx answer, empty and reused from one request to the next.
type stubReply func(op byte, id uint64, rest []byte, items []wire.FrontDoorTxItem) wire.FrontDoorResponse

// frontDoorStub speaks just enough of the binary front door to drive a Pool
// without a deployment behind it — and without allocating per request, so
// allocation counts taken around a client call are the client's own. Every
// request is answered with reply.
func frontDoorStub(t testing.TB, reply stubReply) string {
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

// echoServer is the stub that answers a GET with its key as the value, a
// RO-TX with one item per key, each key its value (the item's key is left
// empty: a reply answers by position), and everything else with OK.
func echoServer(t testing.TB) string { return frontDoorStub(t, echoReply) }

func echoReply(op byte, id uint64, rest []byte, items []wire.FrontDoorTxItem) wire.FrontDoorResponse {
	// key reads uvarint(len(key)) || key off the front of rest.
	key := func() []byte {
		klen, n := binary.Uvarint(rest)
		k := rest[n : n+int(klen)]
		rest = rest[n+int(klen):]
		return k
	}
	switch op {
	case wire.FDGet:
		return wire.FrontDoorResponse{Kind: wire.FDValue, ID: id, Exists: true, Value: key()}
	case wire.FDROTx:
		marker, n := binary.Uvarint(rest) // the key count + 1
		rest = rest[n:]
		for range int(marker) - 1 {
			items = append(items, wire.FrontDoorTxItem{Exists: true, Value: key()})
		}
		return wire.FrontDoorResponse{Kind: wire.FDTx, ID: id, Items: items}
	}
	return wire.FrontDoorResponse{Kind: wire.FDOK, ID: id}
}

func stubConn(conn net.Conn, reply stubReply) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	if magic, err := br.ReadByte(); err != nil || magic != wire.FrontDoorMagic {
		return
	}
	var buf, out []byte
	var items []wire.FrontDoorTxItem
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
		resp := reply(op, id, rest[n:], items[:0])
		out = wire.AppendFrontDoorResponse(out[:0], &resp)
		if resp.Kind == wire.FDTx {
			items = resp.Items
		}
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
// call — no Call, no channel per request — and a GET's value is carved from
// the connection's chunk, so all a GET leaves on the client side is its
// value's share of a chunk: 10 B of 4 KiB here, 0.0024 a call. The GET count
// is a fractional MemStats delta, since testing.AllocsPerRun truncates it. A
// RO-TX leaves the decoded item list and what it returns, one slice of
// values in key order (a map of them cost two: header and group).
func TestRemoteSessionAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sess := dialEcho(t, echoServer(t)).Session()
	key, value := "p0-k000042", []byte("12345678")
	if v, err := sess.Get(key); err != nil || string(v) != key {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if n := mallocsPerCall(2000, func() {
		if _, err := sess.Get(key); err != nil {
			t.Fatal(err)
		}
	}); n > 0.01 {
		t.Fatalf("RemoteSession.Get allocates %.4f times per call on the client side, want <= 0.01 (the value's share of a 4 KiB chunk)", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := sess.Put(key, value); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("RemoteSession.Put allocates %v times per call on the client side, want 0", n)
	}
	keys := []string{key, "p1-k000007", key}
	if n := mallocsPerCall(2000, func() {
		vals, err := sess.ROTx(keys)
		if err != nil || len(vals) != len(keys) || string(vals[1]) != keys[1] {
			t.Fatalf("ROTx = %q, %v", vals, err)
		}
	}); n > 2.02 {
		t.Fatalf("RemoteSession.ROTx allocates %.4f times per call on the client side, want <= 2.02 (the decoded item list, the slice of values and the values' share of a 4 KiB chunk; 3.011 when it returned a map)", n)
	}
}

// mallocsPerCall runs op n times on one P and returns the heap allocations
// per call, as a fraction.
func mallocsPerCall(n int, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestPoolValueRetention is the price of carving, held to what Call.Wait
// states: a value the caller keeps pins its own chunk and no other; a chunk
// whose values are all dropped is collected, the last full one included,
// which the connection must not keep; and a value over the carving threshold
// is an allocation of its own that pins no chunk.
func TestPoolValueRetention(t *testing.T) {
	sess := dialEcho(t, echoServer(t)).Session()
	const size, perChunk, chunks = 64, 4096 / 64, 4 // the echoed keys fill each chunk exactly
	get := func(key string) []byte {
		v, err := sess.Get(key)
		if err != nil || string(v) != key {
			t.Fatalf("Get(%.10q...) = %.10q..., %v", key, v, err)
		}
		return v
	}
	var weaks []weak.Pointer[byte]
	var kept, big []byte
	for i := 0; i < perChunk*chunks; i++ {
		v := get(fmt.Sprintf("%0*d", size, i))
		if cap(v) != len(v) {
			t.Fatalf("value %d has cap %d, len %d: an append would spill into a neighbour", i, cap(v), len(v))
		}
		weaks = append(weaks, weak.Make(&v[0]))
		switch i {
		case perChunk + 7:
			kept = v
		case 2*perChunk - 1: // between chunks 1 and 2, and not carved from either
			big = get(strings.Repeat("b", 600))
		}
	}
	if cap(big) != len(big) {
		t.Fatalf("a 600-byte value has cap %d", cap(big))
	}
	bigWeak := weak.Make(&big[0])
	big = nil
	runtime.GC()
	for i, w := range weaks {
		if alive := w.Value() != nil; alive != (i/perChunk == 1) {
			t.Fatalf("value %d (chunk %d) reachable = %v with only a value of chunk 1 kept", i, i/perChunk, alive)
		}
	}
	if bigWeak.Value() != nil {
		t.Fatal("a dropped value over the carving threshold is still reachable")
	}
	runtime.KeepAlive(kept)
	runtime.GC()
	if weaks[perChunk].Value() != nil {
		t.Fatal("a chunk is reachable after every value carved from it was dropped")
	}
}

// TestFrontDoorPoolCarvedValuesStayIntact: many sessions share one
// connection, so their values are carved from one chunk in whatever order
// the responses arrive. Each session keeps its last values, all different,
// and re-checks them after every later response: a carved value is never
// written again, whoever's response comes next. Under -race it also holds
// the reader's carving ordered before the caller's reads.
func TestFrontDoorPoolCarvedValuesStayIntact(t *testing.T) {
	pool := dialEcho(t, echoServer(t))
	const sessions, gets, keep = 8, 300, 16
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		sess := pool.Session()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var keys [keep]string
			var vals [keep][]byte
			for i := 0; i < gets; i++ {
				// Lengths from 1 to ~700 B: carved, chunk-straddling and exact.
				key := fmt.Sprintf("s%d-%d-%s", s, i, strings.Repeat("x", (i*37+s*11)%700))
				v, err := sess.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				keys[i%keep], vals[i%keep] = key, v
				for j := range keys {
					if keys[j] != "" && string(vals[j]) != keys[j] {
						t.Errorf("session %d: a kept value changed after later responses: %.20q..., want %.20q...", s, vals[j], keys[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
			addr := frontDoorStub(t, func(op byte, id uint64, rest []byte, items []wire.FrontDoorTxItem) wire.FrontDoorResponse {
				if requests.Add(1) == 1 {
					return wire.FrontDoorResponse{Kind: wire.FDErr, ID: id,
						Code: wire.FDCodeWrongSlotEpoch, Text: "slot moved"}
				}
				return echoReply(op, id, rest, items)
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
// run of the same length overwrites the slots. What an idle connection does
// keep is at most its current value chunk (TestPoolValueRetention).
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
