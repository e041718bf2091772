package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	occ "repro"
	"repro/internal/client"
	"repro/internal/wire"
)

func testPool(t *testing.T, srv *Server, dc, conns int) *client.Pool {
	t.Helper()
	pool, err := client.DialPool(client.PoolConfig{Addr: srv.Addr(dc), Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

// severedDeps opens a 2-DC deployment behind a kvserver listener and builds a
// dependency DC1 cannot satisfy: replication between the DCs is cut for the
// partitions in cut, then a DC0 session writes one key per partition (value
// "v-"+key) — the cut partitions' first, so every other key causally depends
// on them — and the other keys are awaited at DC1. A DC1 session that reads
// one of those parks on the cut partitions (waitVV) until the link heals.
// keys[p] is partition p's key.
func severedDeps(t *testing.T, cfg occ.Config, cut ...int) (*occ.Store, *Server, []string) {
	t.Helper()
	cfg.DataCenters, cfg.Engine = 2, occ.POCC
	cfg.Latency = occ.UniformProfile(20*time.Microsecond, 500*time.Microsecond)
	store, err := occ.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(store, "127.0.0.1", 0)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); store.Close() })

	keys := make([]string, cfg.Partitions)
	for i, found := 0, 0; found < len(keys); i++ {
		k := fmt.Sprintf("key%d", i)
		if p := store.PartitionOf(k); keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	severed := make([]bool, len(keys))
	for _, p := range cut {
		store.PartitionReplication(0, 1, p, true)
		severed[p] = true
	}
	w, err := store.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, first := range []bool{true, false} {
		for p, k := range keys {
			if severed[p] == first {
				if err := w.Put(k, []byte("v-"+k)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for p, k := range keys {
		if severed[p] {
			continue
		}
		for { // until k is visible at DC1
			fresh, err := store.Session(1)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := fresh.Get(k); err != nil {
				t.Fatal(err)
			} else if string(v) == "v-"+k {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never replicated to DC1", k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return store, srv, keys
}

func TestFrontDoorBasicOps(t *testing.T) {
	srv := testServer(t)
	pool := testPool(t, srv, 0, 2)
	sess := pool.Session()

	if err := sess.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Put("lang", []byte("go")); err != nil {
		t.Fatal(err)
	}
	v, err := sess.Get("lang")
	if err != nil || string(v) != "go" {
		t.Fatalf("get = %q err=%v", v, err)
	}
	if v, err := sess.Get("ghost"); err != nil || v != nil {
		t.Fatalf("missing key = %q err=%v", v, err)
	}
	if err := sess.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	vals, err := sess.ROTx([]string{"lang", "b", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals["lang"]) != "go" || string(vals["b"]) != "2" || vals["ghost"] != nil {
		t.Fatalf("rotx = %v", vals)
	}
	stats, err := sess.Stats()
	if err != nil || !strings.HasPrefix(stats, "STATS ") {
		t.Fatalf("stats = %q err=%v", stats, err)
	}
	where, err := sess.Admin("WHEREIS lang")
	if err != nil || !strings.HasPrefix(where, "PARTITION ") {
		t.Fatalf("whereis = %q err=%v", where, err)
	}
	slots, err := sess.Admin("SLOTS")
	if err != nil || !strings.HasPrefix(slots, "SLOTS ") || !strings.HasSuffix(slots, "SLOTEND") {
		t.Fatalf("slots = %q err=%v", slots, err)
	}
	// Data commands are not admin commands: the allow-list rejects them.
	if _, err := sess.Admin("PUT sneaky path"); err == nil {
		t.Fatal("admin PUT must be rejected")
	}
}

// TestFrontDoorSessionOrder pipelines PUT then GET of the same key on one
// session without waiting in between: FIFO execution within a session means
// the GET must observe the PUT.
func TestFrontDoorSessionOrder(t *testing.T) {
	srv := testServer(t)
	pool := testPool(t, srv, 0, 1)
	sess := pool.Session()
	var gets []*client.Call
	for i := 0; i < 50; i++ {
		sess.PutAsync(fmt.Sprintf("ord%d", i), []byte(fmt.Sprintf("v%d", i)))
		gets = append(gets, sess.GetAsync(fmt.Sprintf("ord%d", i)))
	}
	for i, g := range gets {
		resp, err := g.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Exists || string(resp.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %d = %q exists=%v", i, resp.Value, resp.Exists)
		}
	}
}

// TestFrontDoorLargeValue pushes a value far past the text protocol's
// initial 64 KiB scanner buffer through the binary path.
func TestFrontDoorLargeValue(t *testing.T) {
	srv := testServer(t)
	pool := testPool(t, srv, 0, 1)
	sess := pool.Session()
	big := bytes.Repeat([]byte("x"), 200*1024)
	if err := sess.Put("big", big); err != nil {
		t.Fatal(err)
	}
	v, err := sess.Get("big")
	if err != nil || !bytes.Equal(v, big) {
		t.Fatalf("big value corrupted: len=%d err=%v", len(v), err)
	}
}

// TestFrontDoorOversizeFrame: a request or a reply too large for one
// front-door frame fails that request alone. The client refuses to send the
// request and the server answers the reply with FDErr, each naming the
// limit; another session pooled on the same connection keeps working.
func TestFrontDoorOversizeFrame(t *testing.T) {
	srv := testServer(t)
	pool := testPool(t, srv, 0, 1)
	a, b := pool.Session(), pool.Session()
	limit := strconv.Itoa(wire.MaxFrontDoorFrame)

	err := a.Put("huge", make([]byte, wire.MaxFrontDoorFrame+1))
	if err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("oversize PUT: err=%v, want an error naming the %s-byte limit", err, limit)
	}
	if err := b.Put("small", []byte("s")); err != nil {
		t.Fatalf("PUT after an oversize request: %v", err)
	}
	if v, err := b.Get("small"); err != nil || string(v) != "s" {
		t.Fatalf("GET after an oversize request = %q, %v", v, err)
	}

	// Two values that fit a request each but not one reply together.
	half := make([]byte, wire.MaxFrontDoorFrame/2)
	for _, k := range []string{"half1", "half2"} {
		if err := a.Put(k, half); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.ROTx([]string{"half1", "half2"}); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("oversize reply: err=%v, want an error naming the %s-byte limit", err, limit)
	}
	if v, err := b.Get("small"); err != nil || string(v) != "s" {
		t.Fatalf("GET after an oversize reply = %q, %v", v, err)
	}
}

// TestTextLargeValueAndTooLongLine is the satellite regression test: a
// >64 KiB value works on the text protocol (the scanner's buffer grows to
// maxTextLine), and a line past maxTextLine draws an explicit "ERR too
// long" reply instead of a silently dropped connection.
func TestTextLargeValueAndTooLongLine(t *testing.T) {
	srv := testServer(t)
	c := dial(t, srv.Addr(0))
	big := strings.Repeat("y", 100*1024)
	c.put(t, "big", big)
	if resp := c.send(t, "GET big"); resp != "VALUE "+big {
		t.Fatalf("big text value corrupted: len=%d", len(resp))
	}

	tooLong := dial(t, srv.Addr(0))
	if resp := tooLong.send(t, "PUT big "+strings.Repeat("z", maxTextLine+16)); resp != "ERR too long" {
		t.Fatalf("oversized line = %.40q, want ERR too long", resp)
	}
}

// TestFrontDoorBlockedGetDoesNotStallPipeline is the tentpole's
// deterministic no-head-of-line-blocking test. Partition 0's replication
// between the DCs is cut, a DC0 session writes kA (partition 0) then kB
// (partition 1), and a DC1 session that has read kB — whose dependencies
// include kA — issues a GET for kA: the server parks it in waitVV until
// DC1's partition 0 catches up, which cannot happen until the link heals.
// A second session pipelined on the SAME connection must complete dozens of
// operations while that GET stays parked; only healing the link releases it.
func TestFrontDoorBlockedGetDoesNotStallPipeline(t *testing.T) {
	store, srv, keys := severedDeps(t, occ.Config{Partitions: 2, Seed: 7}, 0)
	kA, kB := keys[0], keys[1]

	// One connection, two sessions: the blocked GET and the bystanders
	// share a socket.
	pool := testPool(t, srv, 1, 1)
	s1, s2 := pool.Session(), pool.Session()
	if v, err := s1.Get(kB); err != nil || string(v) != "v-"+kB {
		t.Fatalf("s1 read kB = %q err=%v", v, err)
	}
	blocked := s1.GetAsync(kA) // parks in waitVV server-side

	// Dozens of round trips on s2 complete while s1's GET stays parked.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("bystander%d", i)
		if err := s2.Put(k, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if v, err := s2.Get(k); err != nil || string(v) != "ok" {
			t.Fatalf("bystander get = %q err=%v", v, err)
		}
	}
	select {
	case <-blocked.Done():
		resp, err := blocked.Wait()
		t.Fatalf("blocked GET completed before the link healed: %+v err=%v", resp, err)
	default:
	}

	store.PartitionReplication(0, 1, 0, false) // heal: held messages deliver
	resp, err := blocked.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Exists || string(resp.Value) != "v-"+kA {
		t.Fatalf("blocked GET = %q exists=%v", resp.Value, resp.Exists)
	}
}

// TestFrontDoorUnderChurn drives pipelined pooled clients through a
// concurrent partition split and server restarts — the front-door row of
// make race. Sessions must keep their read-your-writes guarantee across the
// churn; transient ErrStopped from a restarting server is the only
// tolerated failure.
func TestFrontDoorUnderChurn(t *testing.T) {
	store, err := occ.Open(occ.Config{
		DataCenters: 2, Partitions: 2, Engine: occ.POCC,
		DataDir: t.TempDir(), NoSync: true, AckMode: occ.AckGrouped,
		MaxPartitions: 4,
		Latency:       occ.UniformProfile(20*time.Microsecond, 500*time.Microsecond),
		Seed:          13,
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

	pool := testPool(t, srv, 0, 2)
	const workers, opsPer = 4, 60
	done := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(id int) {
			sess := pool.Session()
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("churn%d-%d", id, i)
				val := []byte(fmt.Sprintf("v%d-%d", id, i))
				for {
					err := sess.Put(key, val)
					if err == nil {
						break
					}
					if errors.Is(err, occ.ErrStopped) {
						time.Sleep(time.Millisecond)
						continue
					}
					done <- fmt.Errorf("put %s: %w", key, err)
					return
				}
				for {
					v, err := sess.Get(key)
					if err == nil {
						if string(v) != string(val) {
							done <- fmt.Errorf("get %s = %q, want %q", key, v, val)
							return
						}
						break
					}
					if errors.Is(err, occ.ErrStopped) {
						time.Sleep(time.Millisecond)
						continue
					}
					done <- fmt.Errorf("get %s: %w", key, err)
					return
				}
			}
			done <- nil
		}(g)
	}

	if _, err := store.SplitPartition(0); err != nil {
		t.Errorf("split: %v", err)
	}
	if err := store.RestartServer(0, 1); err != nil {
		t.Errorf("restart dc0-p1: %v", err)
	}
	if err := store.RestartServer(1, 0); err != nil {
		t.Errorf("restart dc1-p0: %v", err)
	}

	for g := 0; g < workers; g++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("churn workers timed out")
		}
	}
}
