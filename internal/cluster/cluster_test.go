package cluster

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) bool {
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

// keyInPartition returns a key routed to the wanted partition.
func keyInPartition(t *testing.T, n, want int) string {
	t.Helper()
	tbl := keyspace.Build(n, 1)
	return tbl.Key(want, 0)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
	if _, err := New(Config{NumDCs: 1, NumPartitions: 1}); err == nil {
		t.Fatal("missing engine must be rejected")
	}
	// A partition owns at least one slot, so the slot universe bounds the
	// partition count — as a constructor error, with or without headroom.
	for _, tt := range []struct {
		parts, maxParts int
		ok              bool
	}{
		{keyspace.NumSlots, 0, true},
		{keyspace.NumSlots + 1, 0, false},
		{3, keyspace.NumSlots, true},
		{3, keyspace.NumSlots + 1, false},
	} {
		c, err := New(Config{NumDCs: 1, NumPartitions: tt.parts, MaxPartitions: tt.maxParts, Engine: POCC})
		if err == nil {
			c.Close()
		}
		if (err == nil) != tt.ok {
			t.Fatalf("NumPartitions %d, MaxPartitions %d: err = %v", tt.parts, tt.maxParts, err)
		}
		if err != nil && !strings.Contains(err.Error(), strconv.Itoa(keyspace.NumSlots)) {
			t.Fatalf("error %q does not name the bound", err)
		}
	}
}

func TestEngineString(t *testing.T) {
	if POCC.String() != "POCC" || Cure.String() != "Cure*" || HAPOCC.String() != "HA-POCC" {
		t.Fatal("engine names changed")
	}
	if Engine(42).String() == "" {
		t.Fatal("unknown engine must still render")
	}
}

func TestParseEngine(t *testing.T) {
	for in, want := range map[string]Engine{
		"pocc": POCC, "cure": Cure, "CURE*": Cure, "curestar": Cure,
		"hapocc": HAPOCC, "HA-POCC": HAPOCC,
		// Every name String prints parses back.
		POCC.String(): POCC, Cure.String(): Cure, HAPOCC.String(): HAPOCC,
	} {
		got, err := ParseEngine(in)
		if err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseEngine("mongo"); err == nil {
		t.Fatal("unknown engine must be rejected")
	}
}

func TestPutIsReplicatedAcrossDCs(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, Engine: POCC,
		Latency: UniformLatency(100*time.Microsecond, 2*time.Millisecond),
		Seed:    1,
	})
	s0, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Put("alpha", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for dc := 0; dc < 3; dc++ {
		s, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		if !waitUntil(t, 2*time.Second, func() bool {
			v, errGet := s.Get("alpha")
			return errGet == nil && string(v) == "hello"
		}) {
			t.Fatalf("dc%d never saw the write", dc)
		}
	}
}

func TestReadYourWrites(t *testing.T) {
	for _, engine := range []Engine{POCC, Cure, HAPOCC} {
		t.Run(engine.String(), func(t *testing.T) {
			c := newCluster(t, Config{
				NumDCs: 2, NumPartitions: 2, Engine: engine,
				Latency: UniformLatency(100*time.Microsecond, 5*time.Millisecond),
				Seed:    2,
			})
			s, err := c.NewSession(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				val := []byte{byte(i)}
				if err := s.Put("k", val); err != nil {
					t.Fatal(err)
				}
				got, err := s.Get("k")
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(val) {
					t.Fatalf("iteration %d: read %v after writing %v", i, got, val)
				}
			}
		})
	}
}

func TestSessionDependencyVectors(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, Engine: POCC,
		Latency: UniformLatency(50*time.Microsecond, time.Millisecond),
		Seed:    3,
	})
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	dv := s.DV()
	if dv.Get(0) == 0 {
		t.Fatal("PUT must set the local entry of DV (Algorithm 1 line 12)")
	}
	if rdv := s.RDV(); rdv.Get(0) != 0 {
		t.Fatal("a PUT must not touch RDV")
	}
	// A second write's version must carry the first write in its deps.
	if err := s.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	reply, err := s.GetReply("k2")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Deps.Get(0) < dv.Get(0) {
		t.Fatalf("second write deps %v must cover first write %v", reply.Deps, dv)
	}
	// Reading an item with dependencies raises RDV (Algorithm 1 line 4).
	if rdv := s.RDV(); rdv.Get(0) < dv.Get(0) {
		t.Fatalf("RDV %v must absorb read deps %v", rdv, dv)
	}
}

// TestOptimisticFreshnessVsPessimisticStaleness reproduces the paper's core
// claim on one scenario: a fresh remote version whose dependency has not
// reached the local DC is returned by POCC immediately, while Cure* returns
// the stale version until stabilization catches up.
func TestOptimisticFreshnessVsPessimisticStaleness(t *testing.T) {
	build := func(engine Engine) (*Cluster, string, string) {
		c := newCluster(t, Config{
			NumDCs: 2, NumPartitions: 2, Engine: engine,
			HeartbeatInterval: time.Millisecond,
			Latency:           UniformLatency(50*time.Microsecond, time.Millisecond),
			Seed:              4,
		})
		keyDep := keyInPartition(t, 2, 0) // dependency lives in partition 0
		keyTop := keyInPartition(t, 2, 1) // dependent item in partition 1
		c.Seed(keyDep, []byte("dep-old"))
		c.Seed(keyTop, []byte("top-old"))
		return c, keyDep, keyTop
	}

	scenario := func(c *Cluster, keyDep, keyTop string) {
		// Cut replication of partition 0 from DC0 to DC1, then write the
		// dependency (stuck) and the dependent item (replicates fine).
		c.Network().SetLinkDown(netemu.NodeID{DC: 0, Partition: 0}, netemu.NodeID{DC: 1, Partition: 0}, true)
		s0, err := c.NewSession(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s0.Put(keyDep, []byte("dep-new")); err != nil {
			t.Fatal(err)
		}
		if err := s0.Put(keyTop, []byte("top-new")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // let keyTop replicate to DC1
	}

	t.Run("POCC returns fresh", func(t *testing.T) {
		c, keyDep, keyTop := build(POCC)
		scenario(c, keyDep, keyTop)
		s1, err := c.NewSession(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s1.Get(keyTop)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "top-new" {
			t.Fatalf("POCC returned %q, want the freshest version", got)
		}
	})

	t.Run("Cure returns stale until stable", func(t *testing.T) {
		c, keyDep, keyTop := build(Cure)
		scenario(c, keyDep, keyTop)
		s1, err := c.NewSession(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s1.Get(keyTop)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "top-old" {
			t.Fatalf("Cure* returned %q, want the stale-but-stable version", got)
		}
		stale := c.Metrics().GetStale
		if stale.Old == 0 {
			t.Fatal("Cure* must record the old read")
		}
		// Heal: the dependency replicates, stabilization advances the GSS,
		// and the fresh version becomes visible.
		c.Network().SetLinkDown(netemu.NodeID{DC: 0, Partition: 0}, netemu.NodeID{DC: 1, Partition: 0}, false)
		if !waitUntil(t, 2*time.Second, func() bool {
			v, errGet := s1.Get(keyTop)
			return errGet == nil && string(v) == "top-new"
		}) {
			t.Fatal("fresh version never became stable after healing")
		}
	})
}

// TestLazyDependencyResolutionBlocks reproduces the paper's blocking
// scenario (§III-B): a client reads fresh Y (which depends on X), then reads
// X whose replication is stuck — the GET must block until the partition
// heals, and then return the dependency.
func TestLazyDependencyResolutionBlocks(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, time.Millisecond),
		Seed:              5,
	})
	keyX := keyInPartition(t, 2, 0)
	keyY := keyInPartition(t, 2, 1)
	c.Seed(keyX, []byte("x-old"))
	c.Seed(keyY, []byte("y-old"))

	c.Network().SetLinkDown(netemu.NodeID{DC: 0, Partition: 0}, netemu.NodeID{DC: 1, Partition: 0}, true)
	s0, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Put(keyX, []byte("x-new")); err != nil { // stuck behind the cut link
		t.Fatal(err)
	}
	if err := s0.Put(keyY, []byte("y-new")); err != nil { // replicates, deps include X
		t.Fatal(err)
	}

	s1, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 2*time.Second, func() bool {
		v, errGet := s1.Get(keyY)
		return errGet == nil && string(v) == "y-new"
	}) {
		t.Fatal("fresh Y never reached DC1")
	}

	// Reading X must now block: the session depends on X via Y's deps.
	type res struct {
		val []byte
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, errGet := s1.Get(keyX)
		done <- res{v, errGet}
	}()
	select {
	case r := <-done:
		t.Fatalf("GET(x) returned %q early; it must block on the missing dependency", r.val)
	case <-time.After(50 * time.Millisecond):
	}

	c.Network().SetLinkDown(netemu.NodeID{DC: 0, Partition: 0}, netemu.NodeID{DC: 1, Partition: 0}, false)
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if string(r.val) != "x-new" {
			t.Fatalf("GET(x) = %q after heal, want x-new", r.val)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("GET(x) still blocked after healing")
	}
	if b := c.Metrics().GetBlocking; b.Blocked == 0 {
		t.Fatal("the blocked GET must be recorded in the metrics")
	}
}

func TestROTxAcrossPartitions(t *testing.T) {
	for _, engine := range []Engine{POCC, Cure} {
		t.Run(engine.String(), func(t *testing.T) {
			c := newCluster(t, Config{
				NumDCs: 2, NumPartitions: 4, Engine: engine,
				HeartbeatInterval: time.Millisecond,
				Latency:           UniformLatency(50*time.Microsecond, time.Millisecond),
				Seed:              6,
			})
			tbl := keyspace.Build(4, 2)
			c.SeedTable(tbl)
			s, err := c.NewSession(0)
			if err != nil {
				t.Fatal(err)
			}
			keys := []string{tbl.Key(0, 0), tbl.Key(1, 0), tbl.Key(2, 0), tbl.Key(3, 0)}
			for i, k := range keys {
				if err := s.Put(k, []byte{byte('A' + i)}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.ROTx(keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				if string(got[i]) != string([]byte{byte('A' + i)}) {
					t.Fatalf("tx[%s] = %q", k, got[i])
				}
			}
		})
	}
}

func TestHAPOCCFallbackAndPromotion(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, Engine: HAPOCC,
		HeartbeatInterval:     time.Millisecond,
		StabilizationInterval: 5 * time.Millisecond,
		BlockTimeout:          50 * time.Millisecond,
		Latency:               UniformLatency(50*time.Microsecond, time.Millisecond),
		Seed:                  7,
	})
	keyX := keyInPartition(t, 2, 0)
	keyY := keyInPartition(t, 2, 1)
	c.Seed(keyX, []byte("x-old"))
	c.Seed(keyY, []byte("y-old"))

	c.Network().SetLinkDown(netemu.NodeID{DC: 0, Partition: 0}, netemu.NodeID{DC: 1, Partition: 0}, true)
	s0, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s0.Put(keyX, []byte("x-new")); err != nil {
		t.Fatal(err)
	}
	if err := s0.Put(keyY, []byte("y-new")); err != nil {
		t.Fatal(err)
	}

	s1, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 2*time.Second, func() bool {
		v, errGet := s1.Get(keyY)
		return errGet == nil && string(v) == "y-new"
	}) {
		t.Fatal("fresh Y never reached DC1")
	}

	// Reading X blocks past the timeout; the session must fall back to the
	// pessimistic protocol and still complete (with stale data).
	val, err := s1.Get(keyX)
	if err != nil {
		t.Fatalf("fallback read failed: %v", err)
	}
	if string(val) != "x-old" {
		t.Fatalf("pessimistic fallback read %q, want the stable version", val)
	}
	if s1.Mode() != core.Pessimistic {
		t.Fatal("session must be pessimistic after fallback")
	}
	if s1.Fallbacks() != 1 {
		t.Fatalf("fallbacks = %d", s1.Fallbacks())
	}

	// Heal; the session is promoted back to optimistic on a later operation.
	c.Network().SetLinkDown(netemu.NodeID{DC: 0, Partition: 0}, netemu.NodeID{DC: 1, Partition: 0}, false)
	if !waitUntil(t, 5*time.Second, func() bool {
		if _, errGet := s1.Get(keyX); errGet != nil {
			t.Fatal(errGet)
		}
		return s1.Mode() == core.Optimistic
	}) {
		t.Fatal("session never promoted back to optimistic")
	}
	if s1.Promotions() == 0 {
		t.Fatal("promotion counter not incremented")
	}
	// After promotion the fresh version is readable.
	if !waitUntil(t, 2*time.Second, func() bool {
		v, errGet := s1.Get(keyX)
		return errGet == nil && string(v) == "x-new"
	}) {
		t.Fatal("fresh X not visible after heal and promotion")
	}
}

func TestConvergenceAfterQuiescence(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, 2*time.Millisecond),
		JitterFrac:        0.3,
		Seed:              8,
	})
	tbl := keyspace.Build(2, 4)
	c.SeedTable(tbl)
	// Concurrent conflicting writers in every DC.
	for dc := 0; dc < 3; dc++ {
		s, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			key := tbl.Key(i%2, i%4)
			if err := s.Put(key, []byte{byte(dc), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Quiesce: all replication flushes, then every DC must agree on every
	// key's head (last-writer-wins convergence).
	if !waitUntil(t, 5*time.Second, func() bool {
		for p := 0; p < 2; p++ {
			for r := 0; r < 4; r++ {
				key := tbl.Key(p, r)
				h0 := c.Server(0, p).Store().Head(key)
				for dc := 1; dc < 3; dc++ {
					h := c.Server(dc, p).Store().Head(key)
					if h0 == nil || h == nil || !h0.Same(h) {
						return false
					}
				}
			}
		}
		return true
	}) {
		t.Fatal("replicas did not converge")
	}
}

func TestStabilizationMessageOverhead(t *testing.T) {
	// An idle Cure* deployment keeps exchanging stabilization messages; an
	// idle POCC deployment only heartbeats. With heartbeats disabled by a
	// huge interval, POCC should be nearly silent.
	idleMessages := func(engine Engine) uint64 {
		c := newCluster(t, Config{
			NumDCs: 2, NumPartitions: 4, Engine: engine,
			HeartbeatInterval:     time.Hour,
			StabilizationInterval: 2 * time.Millisecond,
			Seed:                  9,
		})
		time.Sleep(100 * time.Millisecond)
		return c.Network().MessageCount()
	}
	pocc := idleMessages(POCC)
	cure := idleMessages(Cure)
	if cure < 100 {
		t.Fatalf("Cure* sent %d messages; stabilization should dominate", cure)
	}
	if pocc*10 > cure {
		t.Fatalf("POCC sent %d idle messages vs Cure* %d; expected an order of magnitude less", pocc, cure)
	}
}

func TestSeedVisibleEverywhere(t *testing.T) {
	c := newCluster(t, Config{NumDCs: 3, NumPartitions: 2, Engine: POCC, Seed: 10})
	c.Seed("s1", []byte("seeded"))
	for dc := 0; dc < 3; dc++ {
		reply, err := c.ReadAt(dc, "s1")
		if err != nil {
			t.Fatal(err)
		}
		if string(reply.Value) != "seeded" {
			t.Fatalf("dc%d: %+v", dc, reply)
		}
	}
}

// TestSeedSharesOneVersion: the loader makes one version per key and every
// DC's chain holds it; the caller's buffer is copied once, so reusing it
// changes no read, and values share a chunk without an append to one spilling
// into the next; and a durable engine still logs the shared version as its
// own record, so a restarted server reads it back.
func TestSeedSharesOneVersion(t *testing.T) {
	const dcs = 3
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: 2, Engine: POCC,
		DataDir: t.TempDir(),
		Seed:    13,
	})
	value := []byte("seeded")
	c.Seed("s1", value)
	c.Seed("s2", value)
	p := c.PartitionOf("s1")
	head := c.Server(0, p).Store().Head("s1")
	for dc := 1; dc < dcs; dc++ {
		if got := c.Server(dc, p).Store().Head("s1"); got != head {
			t.Fatalf("dc%d's head is %p, dc0's %p: Seed must share one version", dc, got, head)
		}
	}
	copy(value, "XXXXXX")
	_ = append(head.Value, "XXXXXX"...)
	read := func(dc int, key string) {
		t.Helper()
		reply, err := c.ReadAt(dc, key)
		if err != nil {
			t.Fatal(err)
		}
		if string(reply.Value) != "seeded" {
			t.Fatalf("dc%d reads %q for %s, want %q", dc, reply.Value, key, "seeded")
		}
	}
	for dc := 0; dc < dcs; dc++ {
		read(dc, "s1")
		read(dc, "s2")
	}
	if err := c.RestartServer(1, p); err != nil {
		t.Fatal(err)
	}
	read(1, "s1")
}

// TestSeedConcurrent: Seed is safe for concurrent use. Loaders on several
// goroutines, with values of several lengths across chunk boundaries, each
// get a version, a timestamp and value bytes of their own.
func TestSeedConcurrent(t *testing.T) {
	const dcs, loaders, keys = 2, 4, 300
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: 2, Engine: POCC,
		HeartbeatInterval: time.Hour,
		Seed:              1,
	})
	key := func(g, i int) string { return "g" + strconv.Itoa(g) + "-" + strconv.Itoa(i) }
	var wg sync.WaitGroup
	for g := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				c.Seed(key(g, i), []byte("v"+key(g, i)))
			}
		}()
	}
	wg.Wait()
	seen := map[vclock.Timestamp]string{}
	for g := range loaders {
		for i := range keys {
			k := key(g, i)
			for dc := range dcs {
				if reply, err := c.ReadAt(dc, k); err != nil || string(reply.Value) != "v"+k {
					t.Fatalf("dc%d reads %q, %v for %s, want %q", dc, reply.Value, err, k, "v"+k)
				}
			}
			ts := c.Server(0, c.PartitionOf(k)).Store().Head(k).UpdateTime
			if other, dup := seen[ts]; dup {
				t.Fatalf("%s and %s were seeded with one timestamp, %d", other, k, ts)
			}
			seen[ts] = k
		}
	}
}

func TestNewSessionBounds(t *testing.T) {
	c := newCluster(t, Config{NumDCs: 2, NumPartitions: 1, Engine: POCC, Seed: 11})
	if _, err := c.NewSession(-1); err == nil {
		t.Fatal("negative DC must be rejected")
	}
	if _, err := c.NewSession(2); err == nil {
		t.Fatal("out-of-range DC must be rejected")
	}
}

func TestGarbageCollectionAcrossCluster(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		GCInterval:        5 * time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, 500*time.Microsecond),
		Seed:              12,
	})
	s, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put("gckey", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p := c.PartitionOf("gckey")
	if !waitUntil(t, 5*time.Second, func() bool {
		for dc := 0; dc < 2; dc++ {
			chain := c.Server(dc, p).Store()
			if chain.Stats().Versions > 2 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("GC never pruned the chains: dc0=%d versions", c.Server(0, p).Store().Stats().Versions)
	}
	head := c.Server(0, p).Store().Head("gckey")
	if head == nil || head.Value[0] != 19 {
		t.Fatal("GC must keep the freshest version")
	}
}

// TestROTxDoesNotWaitForOwnDC: a slice's snapshot is ahead of a sibling on
// the local DC's entry almost always — here by a PUT the session made on
// partition 0, in a deployment where nothing else ever moves a version vector
// (one DC, so no heartbeats at all). Which local versions exist at that
// timestamp is the sibling's own to say, so under hybrid clocks it satisfies
// the entry on arrival and the transaction neither hangs nor parks.
func TestROTxDoesNotWaitForOwnDC(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 1, NumPartitions: 4, Engine: POCC,
		HeartbeatInterval: time.Hour,
		Seed:              1,
	})
	tbl := keyspace.Build(4, 1)
	c.SeedTable(tbl)
	keys := []string{tbl.Key(0, 0), tbl.Key(1, 0), tbl.Key(2, 0), tbl.Key(3, 0)}
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Put(keys[0], []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	type result struct {
		vals [][]byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		vals, err := sess.ROTx(keys)
		done <- result{vals, err}
	}()
	select {
	case out := <-done:
		if out.err != nil || string(out.vals[0]) != "fresh" || len(out.vals) != len(keys) {
			t.Fatalf("ROTx = %q, %v; want the session's own write and all four keys", out.vals, out.err)
		}
	case <-time.After(time.Second):
		t.Fatal("the transaction waited for the siblings' local entry, which only they can advance")
	}
	if agg := c.Metrics(); agg.TxParkLocal != 0 || agg.TxParkRemote != 0 {
		t.Fatalf("parked slices: %d on the local entry, %d on a remote one; want none", agg.TxParkLocal, agg.TxParkRemote)
	}
}
