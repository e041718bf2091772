package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	occ "repro"
	"repro/internal/client"
	"repro/internal/racedetect"
	"repro/internal/wire"
)

// scribbleLeases takes every frame buffer it can get out of the lease pool,
// overwrites it to capacity and puts it back: whatever still aliases a
// returned lease reads garbage from here on (and, under -race, is reported).
func scribbleLeases() {
	taken := make([]*[]byte, 256)
	for i := range taken {
		taken[i] = fdLeases.Get().(*[]byte)
	}
	for _, l := range taken {
		b := (*l)[:cap(*l)]
		for i := range b {
			b[i] = 0xFF
		}
		fdLeases.Put(l)
	}
}

// cycleLeases pushes n GET frames for long, absent keys through sess's
// connection, a window at a time: each takes a lease, overwrites it from the
// first byte past the frame header on, and returns it.
func cycleLeases(sess *client.RemoteSession, n int) error {
	const window = 256
	calls := make([]*client.Call, 0, window)
	for i := 0; i < n; i += window {
		calls = calls[:0]
		for j := i; j < i+window && j < n; j++ {
			calls = append(calls, sess.GetAsync(fmt.Sprintf("no-such-key-anywhere-%012d", j)))
		}
		for _, c := range calls {
			if resp, err := c.Wait(); err != nil || resp.Exists {
				return fmt.Errorf("bystander get = %+v err=%v", resp, err)
			}
		}
	}
	return nil
}

// TestFrontDoorLeaseSurvivesBlockedGet: a GET borrows its frame for as long
// as it executes, however long that is. One parked behind a severed
// heartbeat source has read its key once (the slot check) and reads it again
// when it wakes (the chain lookup); in between, ten thousand frames of other
// sessions on the same connection cycle the lease pool. It must come back
// with its own key's value — and an RO-TX parked beside it, whose keys were
// detached from a frame the reader has long reused, with its own keys'. A
// PUT parked in waitVV on the same partition borrows its frame too and
// copies its key and value only when it wakes (item.New), so its lease stays
// pinned through the same churn: what it stores must be what it was sent.
func TestFrontDoorLeaseSurvivesBlockedGet(t *testing.T) {
	store, srv, keys := severedDeps(t, occ.Config{Partitions: 2, Seed: 7}, 0)
	t.Cleanup(func() { store.PartitionReplication(0, 1, 0, false) }) // a failure must not leave Close waiting on parked requests
	kA, kB := keys[0], keys[1]
	kPut := "" // on kA's partition, but read by neither parked reader
	for i := 0; kPut == ""; i++ {
		if k := fmt.Sprintf("put-while-parked-%d", i); store.PartitionOf(k) == store.PartitionOf(kA) {
			kPut = k
		}
	}
	putValue := bytes.Repeat([]byte("parked-put;"), 6)

	pool := testPool(t, srv, 1, 1)
	s1 := pool.Session()
	if v, err := s1.Get(kB); err != nil || string(v) != "v-"+kB {
		t.Fatalf("s1 read kB = %q err=%v", v, err)
	}
	blocked := s1.GetAsync(kA) // parks in waitVV server-side
	sTx := pool.Session()
	if v, err := sTx.Get(kB); err != nil || string(v) != "v-"+kB {
		t.Fatalf("sTx read kB = %q err=%v", v, err)
	}
	blockedTx := sTx.ROTxAsync(keys) // its slice on partition 0 parks too
	sPut := pool.Session()
	if v, err := sPut.Get(kB); err != nil || string(v) != "v-"+kB {
		t.Fatalf("sPut read kB = %q err=%v", v, err)
	}
	blockedPut := sPut.PutAsync(kPut, bytes.Clone(putValue)) // parks in waitVV

	for _, sess := range []*client.RemoteSession{pool.Session(), pool.Session(), pool.Session(), pool.Session()} {
		if err := cycleLeases(sess, 2500); err != nil {
			t.Fatal(err)
		}
	}
	scribbleLeases()
	for i, c := range []*client.Call{blocked, blockedTx, blockedPut} {
		select {
		case <-c.Done():
			resp, err := c.Wait()
			t.Fatalf("blocked request %d (GET, RO-TX, PUT) completed before the link healed: %+v err=%v", i, resp, err)
		default:
		}
	}

	store.PartitionReplication(0, 1, 0, false)
	resp, err := blocked.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Exists || string(resp.Value) != "v-"+kA {
		t.Fatalf("blocked GET = %q exists=%v, want %q: its key was overwritten while it was parked", resp.Value, resp.Exists, "v-"+kA)
	}
	resp, err = blockedTx.Wait()
	if err != nil || len(resp.Items) != len(keys) {
		t.Fatalf("blocked RO-TX = %+v err=%v", resp, err)
	}
	for i, it := range resp.Items {
		if it.Key != keys[i] || string(it.Value) != "v-"+keys[i] {
			t.Fatalf("blocked RO-TX item %d = %q: %q, want %q: %q", i, it.Key, it.Value, keys[i], "v-"+keys[i])
		}
	}
	if _, err := blockedPut.Wait(); err != nil {
		t.Fatal(err)
	}
	// A lookup finds the chain only if the stored key is intact.
	if v, err := sPut.Get(kPut); err != nil || !bytes.Equal(v, putValue) {
		t.Fatalf("blocked PUT stored %q err=%v, want %q: its frame was overwritten while it was parked", v, err, putValue)
	}
}

// TestFrontDoorPutOwnsItsBytes pins the hand-off from the front door's leased
// frames to everything that outlives a request. A PUT borrows its frame: its
// key and value are copied from the lease into the stored version (item.New,
// the one copy) before the worker returns the lease, so the frames that
// follow through the same buffers, a scribble over every pooled buffer, and
// whatever the client does to its own slices afterwards must not reach a
// stored version. The in-process session borrows its caller's buffer the
// same way. An RO-TX's keys are detached instead: they travel in slice
// requests, and a slice still parked when the transaction fails reads them
// long after the frame has been recycled.
func TestFrontDoorPutOwnsItsBytes(t *testing.T) {
	t.Run("put", func(t *testing.T) {
		srv := testServer(t)
		sess := testPool(t, srv, 0, 1).Session()

		// Same-sized frames, pipelined: each lands on the bytes of a lease a
		// predecessor returned once it had executed.
		const n = 64
		key := func(i int) string { return fmt.Sprintf("own-%03d", i) }
		want := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i%26)}, 48) }
		values := make([][]byte, n)
		calls := make([]*client.Call, n)
		for i := range values {
			values[i] = want(i)
			calls[i] = sess.PutAsync(key(i), values[i])
		}
		for i, c := range calls {
			if _, err := c.Wait(); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
			clear(values[i]) // the client reuses its buffer
		}
		if err := cycleLeases(sess, 1000); err != nil {
			t.Fatal(err)
		}
		scribbleLeases()
		keys := make([]string, n)
		for i := range keys {
			keys[i] = key(i)
			// A lookup finds the chain only if the stored key is intact.
			if v, err := sess.Get(keys[i]); err != nil || !bytes.Equal(v, want(i)) {
				t.Fatalf("get %d = %q err=%v, want %q", i, v, err, want(i))
			}
		}
		vals, err := sess.ROTx(keys)
		if err != nil || len(vals) != n {
			t.Fatalf("rotx = %d items, err=%v", len(vals), err)
		}
		for i, k := range keys {
			if !bytes.Equal(vals[i], want(i)) {
				t.Fatalf("rotx[%s] = %q, want %q", k, vals[i], want(i))
			}
		}

		local, err := srv.store.Session(0)
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte("in-process value")
		if err := local.Put("own-local", buf); err != nil {
			t.Fatal(err)
		}
		clear(buf)
		if v, err := local.Get("own-local"); err != nil || string(v) != "in-process value" {
			t.Fatalf("in-process get = %q err=%v: Put must copy the caller's buffer", v, err)
		}
	})

	// Partitions 0 and 2 of DC1 are cut off from DC0, and the session depends
	// on what they are missing, so both of the transaction's slices there
	// park. Restarting partition 2 fails its slice, and with it the
	// transaction, at once; partition 0's slice stays parked until the link
	// heals and reads its keys then, from a frame recycled two thousand times
	// and scribbled over. Its reply is dropped and a map lookup's read of the
	// key bytes is invisible to the race detector, so this drives the path
	// (no crash, no report, the deployment converges) and cannot observe the
	// late read itself; that an RO-TX's keys do not alias its frame is pinned
	// while the transaction executes (TestFrontDoorLeaseSurvivesBlockedGet)
	// and at the decode (wire.TestFrontDoorDetachOwnsItsBytes).
	t.Run("rotx-late-slice", func(t *testing.T) {
		store, srv, keys := severedDeps(t, occ.Config{
			Partitions: 3, Seed: 11,
			DataDir: t.TempDir(), NoSync: true, AckMode: occ.AckGrouped,
		}, 0, 2)
		pool := testPool(t, srv, 1, 1)
		s1, s2 := pool.Session(), pool.Session()
		if v, err := s1.Get(keys[1]); err != nil || string(v) != "v-"+keys[1] {
			t.Fatalf("s1 read %s = %q err=%v", keys[1], v, err)
		}
		tx := s1.ROTxAsync(keys)
		time.Sleep(50 * time.Millisecond) // let the slices park
		select {
		case <-tx.Done():
			resp, err := tx.Wait()
			t.Fatalf("RO-TX completed with its slices cut off: %+v err=%v", resp, err)
		default:
		}
		if err := store.RestartServer(1, 2); err != nil {
			t.Fatal(err)
		}
		select {
		case <-tx.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("RO-TX still waiting after one of its slices failed")
		}
		if _, err := tx.Wait(); !errors.Is(err, occ.ErrStopped) {
			t.Fatalf("RO-TX err = %v, want ErrStopped", err)
		}

		if err := cycleLeases(s2, 2000); err != nil {
			t.Fatal(err)
		}
		scribbleLeases()
		store.PartitionReplication(0, 1, 0, false)
		store.PartitionReplication(0, 1, 2, false)
		// Partition 0 catching up is what wakes the parked slice.
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, err := s2.Get(keys[0])
			if err != nil {
				t.Fatal(err)
			}
			if string(v) == "v-"+keys[0] {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached DC1 after the heal", keys[0])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// rawFrontDoor is a front-door connection driven frame by frame, so a test
// owns every client-side buffer.
type rawFrontDoor struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRawFrontDoor(t *testing.T, srv *Server) rawFrontDoor {
	t.Helper()
	conn, br := rawConn(t, srv)
	if _, err := conn.Write([]byte{wire.FrontDoorMagic}); err != nil {
		t.Fatal(err)
	}
	return rawFrontDoor{conn, br}
}

// roundTrip encodes req into scratch, sends it and returns the response.
func (c rawFrontDoor) roundTrip(t *testing.T, scratch []byte, req *wire.FrontDoorRequest) wire.FrontDoorResponse {
	t.Helper()
	if _, err := c.conn.Write(wire.AppendFrontDoorRequest(scratch[:0], req)); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrontDoorFrame(c.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeFrontDoorResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFrontDoorLeaseCap: a frame above fdLeaseMax is read into a buffer of
// its own that neither the pool nor the connection keeps. Eight connections
// each carry one 1 MiB GET and one 1 MiB PUT (both borrow their frame, and
// the worker ends each lease), and stay open; afterwards the heap holds the
// eight stored values and not eight frame buffers beside them.
func TestFrontDoorLeaseCap(t *testing.T) {
	store, err := occ.Open(occ.Config{
		DataCenters: 1, Partitions: 1, Engine: occ.POCC,
		GCInterval: time.Hour, // every stored version stays: the heap bound below counts them
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1", 0)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })

	const conns, size = 8, 1 << 20
	big := bytes.Repeat([]byte{'x'}, size)
	bigKey := string(big)
	scratch := make([]byte, 0, size+64)
	raws := make([]rawFrontDoor, conns)
	for i := range raws {
		raws[i] = dialRawFrontDoor(t, srv)
	}
	heapAlloc := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heapAlloc()

	for i, c := range raws {
		get := wire.FrontDoorRequest{Op: wire.FDGet, ID: 1, Session: 1, Key: bigKey}
		if resp := c.roundTrip(t, scratch, &get); resp.Kind != wire.FDValue || resp.Exists {
			t.Fatalf("conn %d: big GET = %+v", i, resp)
		}
		put := wire.FrontDoorRequest{Op: wire.FDPut, ID: 2, Session: 1, Key: fmt.Sprintf("cap-%d", i), Value: big}
		if resp := c.roundTrip(t, scratch, &put); resp.Kind != wire.FDOK {
			t.Fatalf("conn %d: big PUT = %+v", i, resp)
		}
	}
	for i := 0; i < 256; i++ {
		if l := fdLeases.Get().(*[]byte); cap(*l) > fdLeaseMax {
			t.Fatalf("the lease pool kept a %d-byte frame buffer, cap is %d", cap(*l), fdLeaseMax)
		}
	}
	after := heapAlloc()
	const stored, slack = conns * size, conns * size / 2
	if grown := int64(after) - int64(before); grown > stored+slack {
		t.Fatalf("heap grew by %d bytes with %d connections idle after a %d-byte frame each; the stored values account for %d",
			grown, conns, size, stored)
	}
	runtime.KeepAlive(raws)
}

// TestFrontDoorServerAllocs is the structural guard of the serving path, the
// server-side twin of client.TestRemoteSessionAllocs: whole round trips
// through a pool against a deployment with nothing running in the background,
// compared with the same operations on an in-process session. Both PUT passes
// make the same kind of write, a first update of a key written once, which
// costs two objects in process: the version, holding its key and value
// (item.New), and the key's tail (storage). Either front-door operation may
// add a value's share of the client's chunk and nothing on the server: a GET
// and a PUT borrow their leased frame, a PUT's key and value are copied from
// it into the version alone, and the pool carves a GET's value from its
// connection's chunk (8 B of 4 KiB, one chunk per pass, 0.002 a GET). The
// counts are fractional: testing.AllocsPerRun truncates to a whole number,
// which hides an allocation made on some operations only.
func TestFrontDoorServerAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race (sync.Pool sheds items)")
	}
	store, err := occ.Open(occ.Config{
		DataCenters: 1, Partitions: 1, Engine: occ.POCC,
		HeartbeatInterval: time.Hour, StabilizationInterval: time.Hour, GCInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1", 0)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })
	remote := testPool(t, srv, 0, 1).Session()
	local, err := store.Session(0)
	if err != nil {
		t.Fatal(err)
	}

	const runs = 500 // keys [0, runs) are the in-process passes', [runs, 2*runs) the front door's
	value := []byte("12345678")
	// mallocs runs op on keys [first, first+runs) and returns the heap
	// allocations per call, the server's goroutines included.
	mallocs := func(first int, op func(key string) error) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := first; k < first+runs; k++ {
			if err := op(benchKey(k)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs
	}
	put := func(s interface{ Put(string, []byte) error }) func(string) error {
		return func(key string) error { return s.Put(key, value) }
	}
	get := func(s interface{ Get(string) ([]byte, error) }) func(string) error {
		return func(key string) error {
			v, err := s.Get(key)
			if err == nil && !bytes.Equal(v, value) {
				err = fmt.Errorf("get %s = %q", key, v)
			}
			return err
		}
	}
	// Every key is written once. Then the front door's leases, scratch
	// buffers and pools are warmed: PUTs on the keys neither measured pass
	// writes, GETs on the keys the front-door GET pass reads (a read changes
	// nothing).
	for k := 0; k < benchKeys; k++ {
		if err := local.Put(benchKey(k), value); err != nil {
			t.Fatal(err)
		}
	}
	for k := 2 * runs; k < benchKeys; k++ {
		if err := put(remote)(benchKey(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := runs; k < 2*runs; k++ {
		if err := get(remote)(benchKey(k)); err != nil {
			t.Fatal(err)
		}
	}
	in, fd := mallocs(0, put(local)), mallocs(runs, put(remote))
	if in > 2.01 {
		t.Fatalf("an in-process Put allocates %.3f times, want at most 2: the version, holding its key and value, and the key's first tail", in)
	}
	if fd > in+0.01 {
		t.Fatalf("a front-door PUT allocates %.3f times, an in-process Put %.3f: key and value must be copied from the frame into the version and nowhere else", fd, in)
	}
	if in, fd := mallocs(0, get(local)), mallocs(runs, get(remote)); fd > in+0.01 {
		t.Fatalf("a front-door GET allocates %.3f times, an in-process Get %.3f: neither end may add more than the value's share of a chunk", fd, in)
	}
}
