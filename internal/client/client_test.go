package client_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/causaltest"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/keyspace"
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
	if string(vals["a"]) != "1" || string(vals["b"]) != "2" {
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
// per requested key, every reply is for a requested key and carries what was
// written, and ROTx maps each distinct key once. Replies come grouped by
// partition, not in request order.
func TestROTxRepliesOnePerKey(t *testing.T) {
	c := twoDC(t, cluster.POCC)
	writer, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4", "k1", "ghost", "k0"}
	asked := map[string]int{}
	for _, k := range keys {
		asked[k]++
	}
	for k := range asked {
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
		got := map[string]int{}
		for _, r := range replies {
			got[r.Key]++
			if wrote := r.Key != "ghost"; r.Exists != wrote || wrote && string(r.Value) != "v-"+r.Key {
				t.Fatalf("reply for %q = (%q, exists %v)", r.Key, r.Value, r.Exists)
			}
		}
		if len(replies) != len(keys) || len(got) != len(asked) {
			t.Fatalf("replies for %v, asked %v", got, asked)
		}
		for k, n := range asked {
			if got[k] != n {
				t.Fatalf("key %q: %d replies for %d requests (all: %v)", k, got[k], n, got)
			}
		}
		vals, err := s.ROTx(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != len(asked) {
			t.Fatalf("ROTx mapped %d keys, want %d distinct: %v", len(vals), len(asked), vals)
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
	if v, ok := vals["ghost"]; !ok || v != nil {
		t.Fatalf("missing key must map to nil, got %v", vals)
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
// session what its signature returns — the coordinator's result array, and
// the map ROTx turns it into (header and one group) — and nothing of the
// fan-out itself (cluster's TestROTxCoordinatorAllocs takes that apart).
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
	if n := testing.AllocsPerRun(1000, tx); n > 3 {
		t.Fatalf("Session.ROTx over 4 partitions allocates %v times, want at most 3 (result, map header, map group)", n)
	}
}

// TestSessionPutAllocs: an in-process PUT costs the value's copy and the
// version (struct and dependency vector in one object); PutOwned, whose
// caller gives the value away, the version alone. As in core's TestPutAllocs
// the Δ = 1 ms flush and chain growth amortize to less than one object.
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
	}); n > 2 {
		t.Errorf("Session.Put allocates %v times per call, want at most 2 (value copy, version)", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := s.PutOwned("k", value); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Session.PutOwned allocates %v times per call, want at most 1 (the version)", n)
	}
}
