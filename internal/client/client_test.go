package client_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/causaltest"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/netemu"
	"repro/internal/racedetect"
	"repro/internal/vclock"
)

// The client package is exercised against a tiny real cluster: its behaviour
// (Algorithm 1) is only meaningful coupled to servers.

func twoDC(t *testing.T, engine cluster.Engine) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		NumDCs: 2, NumPartitions: 2, Engine: engine,
		HeartbeatInterval: time.Millisecond,
		Latency:           cluster.UniformLatency(50*time.Microsecond, time.Millisecond),
		Seed:              31,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewSessionValidation(t *testing.T) {
	router := struct{ client.Router }{} // never called: NewSession only checks it is set
	for name, cfg := range map[string]client.Config{
		"missing router":       {},
		"no slot-retry budget": {Router: router, NumDCs: 1},
	} {
		if _, err := client.NewSession(cfg); err == nil {
			t.Errorf("%s must be rejected", name)
		}
	}
}

func TestGetUpdatesRDVAndDV(t *testing.T) {
	c := twoDC(t, cluster.POCC)
	writer, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	// Build a chain: write dep, then write top (whose version carries dep in
	// its dependency vector).
	if err := writer.Put("dep", []byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put("top", []byte("t")); err != nil {
		t.Fatal(err)
	}

	reader, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if rdv := reader.RDV(); rdv.Get(0) != 0 {
		t.Fatal("fresh session must have zero RDV")
	}
	reply, err := reader.GetReply("top")
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Exists {
		t.Fatal("top must exist")
	}
	// RDV absorbed top's deps; DV additionally holds top itself.
	if rdv := reader.RDV(); rdv.Get(0) < reply.Deps.Get(0) {
		t.Fatalf("RDV %v must cover item deps %v", rdv, reply.Deps)
	}
	if dv := reader.DV(); dv.Get(0) < reply.UpdateTime {
		t.Fatalf("DV %v must cover the read item's timestamp %d", dv, reply.UpdateTime)
	}
	// RDV must NOT include the read item itself, only its dependencies: the
	// item's own timestamp exceeds its deps entry.
	if rdv := reader.RDV(); rdv.Get(0) >= reply.UpdateTime {
		t.Fatalf("RDV %v leaked the read item's own timestamp %d", rdv, reply.UpdateTime)
	}
}

func TestPutMetaReturnsIdentity(t *testing.T) {
	c := twoDC(t, cluster.POCC)
	s, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	ut, dc, err := s.PutMeta("k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if dc != 1 {
		t.Fatalf("source replica = %d, want the session's DC", dc)
	}
	if ut == 0 {
		t.Fatal("update time must be assigned")
	}
	if dv := s.DV(); dv.Get(1) != ut {
		t.Fatalf("DV[1] = %d, want %d", dv.Get(1), ut)
	}
}

func TestROTxTracksReads(t *testing.T) {
	c := twoDC(t, cluster.POCC)
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := fresh.ROTx([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || string(vals[1]) != "2" {
		t.Fatalf("tx = %v", vals)
	}
	if dv := fresh.DV(); dv.Get(0) == 0 {
		t.Fatal("transactional reads must establish dependencies")
	}
}

// TestROTxRepliesOnePerKey: whatever the read set looks like — keys sharing
// a partition, a key named twice, a missing key — and whichever partition
// coordinates (so each key is read by the coordinator's own slice in some
// transaction and by a remote slice in another), ROTxReplies returns one reply
// per requested key in key order, each carrying what was written, and ROTx
// the same values at the same indices.
func TestROTxRepliesOnePerKey(t *testing.T) {
	c := twoDC(t, cluster.POCC)
	writer, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k1", "ghost", "k0"}
	for _, k := range keys {
		if k != "ghost" {
			if err := writer.Put(k, []byte("v-"+k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ { // sessions take their coordinators round-robin
		s, err := c.NewSession(0)
		if err != nil {
			t.Fatal(err)
		}
		replies, err := s.ROTxReplies(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(replies) != len(keys) {
			t.Fatalf("%d replies for %d keys", len(replies), len(keys))
		}
		for j, r := range replies {
			if wrote := keys[j] != "ghost"; r.Key != keys[j] || r.Exists != wrote || wrote && string(r.Value) != "v-"+r.Key {
				t.Fatalf("reply %d for %q = %q (%q, exists %v)", j, keys[j], r.Key, r.Value, r.Exists)
			}
		}
		vals, err := s.ROTx(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(keys) {
			t.Fatalf("ROTx returned %d values for %d keys: %q", len(vals), len(keys), vals)
		}
		for j, k := range keys {
			if want := "v-" + k; k == "ghost" && vals[j] != nil || k != "ghost" && string(vals[j]) != want {
				t.Fatalf("ROTx value %d for %q = %q", j, k, vals[j])
			}
		}
	}
}

func TestROTxMissingKeys(t *testing.T) {
	c := twoDC(t, cluster.POCC)
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := s.ROTx([]string{"ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != nil {
		t.Fatalf("a missing key must read nil, got %q", vals)
	}
}

func TestModeLifecycle(t *testing.T) {
	c := twoDC(t, cluster.Cure)
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode() != core.Pessimistic {
		t.Fatal("Cure* sessions must start pessimistic")
	}
	if s.Fallbacks() != 0 || s.Promotions() != 0 {
		t.Fatal("fresh session must have no fallbacks/promotions")
	}
}

// TestROTxInterleavedPutKeepsDeps: a session hands the server its reusable
// scratch vector on every operation, so a stored version's Deps must be the
// session's DV as it stood at the PUT — still, after the GETs, RO-TXs and
// PUTs that reused the scratch since. A second DC's writes keep the remote
// entry of DV moving between PUTs.
func TestROTxInterleavedPutKeepsDeps(t *testing.T) {
	c := twoDC(t, cluster.POCC)
	reg := causaltest.NewRegistry()
	open := func(dc int, name string) *causaltest.Session {
		s, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		return causaltest.NewSession(reg, s, name)
	}
	local, remote := open(0, "local"), open(1, "remote")

	type put struct {
		key string
		dv  vclock.VC
	}
	var puts []put
	check := func(p put) {
		t.Helper()
		reply, err := c.ReadAt(0, p.key)
		if err != nil || !reply.Exists {
			t.Fatalf("read back %s: exists=%v err=%v", p.key, reply.Exists, err)
		}
		if !reply.Deps.Equal(p.dv) {
			t.Fatalf("%s stored with Deps %v, session DV at the PUT was %v", p.key, reply.Deps, p.dv)
		}
	}
	for i := 0; i < 40; i++ {
		rkey, key := fmt.Sprintf("r%d", i), fmt.Sprintf("k%d", i)
		if err := remote.Put(rkey, []byte("r")); err != nil {
			t.Fatal(err)
		}
		for { // until the remote write is here: DV[1] moves on every round
			v, err := local.Get(rkey)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		p := put{key, local.Unwrap().DV()}
		if err := local.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		puts = append(puts, p)
		check(p)
		if _, err := local.ROTx([]string{key, rkey, "k0"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range puts {
		check(p)
	}
	if v := reg.Violations(); len(v) != 0 {
		t.Fatalf("causal violations: %v", v)
	}
}

// TestSessionROTxAllocs: an in-process RO-TX over 4 partitions costs the
// session what its signature returns — the slice of values, one allocation —
// and nothing of the fan-out itself (cluster's TestROTxCoordinatorAllocs
// takes that apart): the coordinator's fan-in fills the session's reused
// reply buffer in key order (2 when the session returned a map, header and
// group; 3 when the fan-in allocated a result array per transaction).
func TestSessionROTxAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, err := cluster.New(cluster.Config{
		NumDCs: 1, NumPartitions: 4, Engine: cluster.POCC,
		HeartbeatInterval: time.Hour,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tbl := keyspace.Build(4, 1)
	c.SeedTable(tbl)
	keys := []string{tbl.Key(0, 0), tbl.Key(1, 0), tbl.Key(2, 0), tbl.Key(3, 0)}
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	tx := func() {
		if vals, err := s.ROTx(keys); err != nil || len(vals) != len(keys) {
			t.Fatalf("ROTx = %d values, %v", len(vals), err)
		}
	}
	for i := 0; i < 100; i++ {
		tx() // warm-up: pooled fan-in state, requests, replies, link queues
	}
	if n := testing.AllocsPerRun(1000, tx); n > 1 {
		t.Fatalf("Session.ROTx over 4 partitions allocates %v times, want at most 1 (the slice of values)", n)
	}
}

// TestSessionROTxScratchRetention: the reply buffer a session keeps between
// RO-TXs is cleared after each one, so a version a transaction read is
// collectable once it is overwritten and pruned, while the session lives on.
func TestSessionROTxScratchRetention(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		NumDCs: 1, NumPartitions: 1, Engine: cluster.POCC,
		HeartbeatInterval: time.Hour,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("read by the RO-TX")); err != nil {
		t.Fatal(err)
	}
	if vals, err := s.ROTx([]string{"k"}); err != nil || len(vals) != 1 || string(vals[0]) != "read by the RO-TX" {
		t.Fatalf("ROTx = %q, %v", vals, err)
	}
	store := c.Server(0, 0).Store()
	read := weak.Make(store.Head("k"))
	if err := s.Put("k", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if removed := store.CollectGarbage(c.Server(0, 0).VV()); removed != 1 {
		t.Fatalf("CollectGarbage removed %d versions, want 1 (the one the RO-TX read)", removed)
	}
	// One collection is not always enough under a loaded test run: a pooled
	// object the version passed through (sync.Pool keeps its victims through
	// one cycle) may let go of it a cycle late. A bounded number keeps a
	// buffer that pins it failing.
	for i := 0; i < 10 && read.Value() != nil; i++ {
		runtime.GC()
	}
	if read.Value() != nil {
		t.Fatal("a pruned version a RO-TX read is still reachable: the session's reply buffer pins it")
	}
	runtime.KeepAlive(s)
}

// misroute is a one-DC router that sends one key's slice to a partition
// that does not own it, which answers core.ErrWrongSlotEpoch at once.
type misroute struct {
	c   *cluster.Cluster
	key string
	to  int
}

func (r misroute) ServerFor(key string) *core.Server { return r.c.Server(0, r.PartitionOf(key)) }
func (r misroute) Coordinator() *core.Server         { return r.c.Server(0, 0) }
func (r misroute) PartitionOf(key string) int {
	if key == r.key {
		return r.to
	}
	return r.c.PartitionOf(key)
}

// TestSessionROTxBufferIgnoresLateSlice: a session's RO-TXs share one reply
// buffer, which a slice still out when its transaction ended must never
// reach. A RO-TX fails on one slice's error while another slice stays parked;
// the same session's next RO-TX completes before the parked slice answers,
// and its values are its own keys' alone, as are those of the RO-TXs running
// while the parked slices answer. Run under -race.
func TestSessionROTxBufferIgnoresLateSlice(t *testing.T) {
	const lag = 300 * time.Millisecond
	slow := netemu.NodeID{DC: 0, Partition: 1}
	c, err := cluster.New(cluster.Config{
		NumDCs: 2, NumPartitions: 4, Engine: cluster.POCC,
		HeartbeatInterval: time.Millisecond,
		// DC 1's stream into partition 1 runs lag behind its stream into the
		// coordinator, partition 0: a slice at partition 1 parks on the
		// coordinator's fresher vector for about that long.
		Latency: func(src, dst netemu.NodeID) time.Duration {
			if src.DC == 1 && dst == slow {
				return lag
			}
			return 50 * time.Microsecond
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tbl := keyspace.Build(4, 1)
	c.SeedTable(tbl)
	key := func(p int) string { return tbl.Key(p, 0) }
	for p := 0; p < 4; p++ {
		if got := c.PartitionOf(key(p)); got != p {
			t.Fatalf("key %q is on partition %d, want %d", key(p), got, p)
		}
		c.Seed(key(p), []byte("value of "+key(p)))
	}
	s, err := client.NewSession(client.Config{
		Router: misroute{c: c, key: key(3), to: 2},
		NumDCs: 2,
		// One retry through the rejection, then the error.
		SlotRetryBudget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	own := []string{key(0), key(2)}
	check := func(what string) {
		vals, err := s.ROTx(own)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(vals) != len(own) {
			t.Fatalf("%s: values %q, want exactly %q", what, vals, own)
		}
		for i, k := range own {
			if string(vals[i]) != "value of "+k {
				t.Fatalf("%s: values %q, want each of %q with its own value", what, vals, own)
			}
		}
	}
	parked := func() (out, answered uint64) {
		agg := c.Metrics()
		return agg.TxParkLocal + agg.TxParkRemote, agg.TxBlocking.Blocked
	}
	for round := 1; round <= 3; round++ {
		start := time.Now()
		if _, err := s.ROTx([]string{key(1), key(3)}); !errors.Is(err, core.ErrWrongSlotEpoch) {
			t.Fatalf("round %d: the misrouted RO-TX returned %v, want ErrWrongSlotEpoch", round, err)
		}
		check(fmt.Sprintf("round %d, the RO-TX after the failed one", round))
		// The slices at partition 1 travel as the rejection does: wait for
		// them to park, which is long before they can be answered.
		for out, answered := parked(); answered >= out; out, answered = parked() {
			if time.Since(start) > lag/2 {
				t.Fatalf("round %d: %d slices parked, %d answered: the failed RO-TX left none out", round, out, answered)
			}
			time.Sleep(time.Millisecond)
		}
		deadline := time.Now().Add(10 * lag)
		for out, answered := parked(); answered < out; out, answered = parked() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d parked slices still out after %v", round, out-answered, out, 10*lag)
			}
			check(fmt.Sprintf("round %d, while the parked slices answer", round))
		}
		check(fmt.Sprintf("round %d, after the parked slices answered", round))
	}
}

// TestSessionPutAllocs: an in-process PUT costs the version alone — struct,
// dependency vector, key and value in one object (item.New), the caller's
// buffers only borrowed. As in core's TestPutAllocs the Δ = 1 ms flush and
// chain growth amortize to less than one object.
func TestSessionPutAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := twoDC(t, cluster.POCC)
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	value := []byte("value")
	if n := testing.AllocsPerRun(1000, func() {
		if err := s.Put("k", value); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Session.Put allocates %v times per call, want at most 1 (the version, holding its key and value)", n)
	}
}
