package cluster

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/causaltest"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/repl"
	"repro/internal/vclock"
)

// TestMembershipJoinUnderLoad grows a 3-DC cluster to 4 while checked
// sessions keep writing: the joiner must bootstrap the pre-join history out
// of its siblings' WALs through catch-up (there is no other way for it to
// learn the old versions), announce itself Active, and then serve a checked
// workload of its own. Every replica — old and new — must converge to
// identical heads, with zero causal violations.
func TestMembershipJoinUnderLoad(t *testing.T) {
	const (
		dcs        = 3
		partitions = 2
		keys       = 8
		sessions   = 2
		opsPer     = 120
	)
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: partitions, MaxDCs: dcs + 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		GCInterval:        20 * time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, 2*time.Millisecond),
		JitterFrac:        0.3,
		DataDir:           t.TempDir(),
		Seed:              2024,
	})
	tbl := keyspace.Build(partitions, keys)
	c.SeedTable(tbl)
	reg := causaltest.NewRegistry()

	// Pre-join history: these writes are flushed and live only in the
	// original DCs' stores and WALs. The joiner can obtain them exclusively
	// through the catch-up bootstrap.
	preSess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	pre := causaltest.NewSession(reg, preSess, "pre-join")
	for i := 0; i < 100; i++ {
		key := tbl.Key(i%partitions, i%keys)
		if err := pre.Put(key, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	runWorkload := func(wg *sync.WaitGroup, dc, si int, cs *causaltest.Session, seed uint64) {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(seed, uint64(dc*1000+si)))
		for op := 0; op < opsPer; op++ {
			key := tbl.Key(int(rng.Uint64N(partitions)), int(rng.Uint64N(keys)))
			var err error
			switch {
			case op%10 == 9:
				ks := []string{tbl.Key(0, int(rng.Uint64N(keys))), tbl.Key(1, int(rng.Uint64N(keys)))}
				_, err = cs.ROTx(ks)
			case op%3 == 2:
				err = cs.Put(key, []byte{byte(dc), byte(op)})
			default:
				_, err = cs.Get(key)
			}
			if err != nil {
				t.Errorf("dc%d s%d op %d: %v", dc, si, op, err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for dc := 0; dc < dcs; dc++ {
		for si := 0; si < sessions; si++ {
			sess, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go runWorkload(&wg, dc, si, causaltest.NewSession(reg, sess, sessionName(dc, si)), 2024)
		}
	}

	// Grow the deployment mid-workload.
	time.Sleep(20 * time.Millisecond)
	newDC, err := c.AddDC()
	if err != nil {
		t.Fatal(err)
	}
	if newDC != dcs {
		t.Fatalf("joined DC got id %d, want %d", newDC, dcs)
	}
	if err := c.WaitForJoin(newDC, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < partitions; p++ {
		if !c.Server(newDC, p).Repl().Bootstrapped() {
			t.Fatalf("dc%d-p%d not bootstrapped after WaitForJoin", newDC, p)
		}
	}

	// The joiner is active: run a checked workload against it too.
	var joinWG sync.WaitGroup
	for si := 0; si < sessions; si++ {
		sess, err := c.NewSession(newDC)
		if err != nil {
			t.Fatal(err)
		}
		joinWG.Add(1)
		go runWorkload(&joinWG, newDC, si, causaltest.NewSession(reg, sess, sessionName(newDC, si)), 4242)
	}
	wg.Wait()
	joinWG.Wait()

	for _, v := range reg.Violations() {
		t.Error(v)
	}

	// The join must have been served out of the WALs: the pre-join history
	// cannot reach the new DC any other way.
	st := c.ReplicationStats()
	if st.CatchUpsServed == 0 || st.CatchUpsCompleted == 0 {
		t.Fatalf("joiner bootstrapped without catch-up rounds (%+v)", st)
	}

	// Every server's view must settle on the joiner being Active.
	if !waitUntil(t, 5*time.Second, func() bool {
		for dc := 0; dc <= dcs; dc++ {
			for p := 0; p < partitions; p++ {
				if c.Server(dc, p).Repl().View().Get(newDC) != msg.DCActive {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatalf("membership views did not converge on dc%d being active", newDC)
	}

	// Convergence epilogue across all four DCs, pre-join keys included.
	if !waitUntil(t, 15*time.Second, func() bool {
		for p := 0; p < partitions; p++ {
			for r := 0; r < keys; r++ {
				key := tbl.Key(p, r)
				h0 := c.Server(0, p).Store().Head(key)
				for dc := 1; dc <= dcs; dc++ {
					h := c.Server(dc, p).Store().Head(key)
					if (h0 == nil) != (h == nil) {
						return false
					}
					if h0 != nil && !h0.Same(h) {
						return false
					}
				}
			}
		}
		return true
	}) {
		t.Fatalf("replicas did not converge after the join (catch-up stats %+v)", c.ReplicationStats())
	}
	if err := c.StorageErr(); err != nil {
		t.Fatal(err)
	}
}

// TestMembershipLeave shrinks a deployment under load: a DC with live
// history departs gracefully mid-workload. The survivors must hold its
// complete history (the final flush precedes the LeaveNotice on the same
// FIFO links), keep serving the checked workload, and — the part the paper's
// stabilization protocol makes delicate — keep advancing the GSS: a departed
// DC's frozen vector entry must not stall stable visibility.
func TestMembershipLeave(t *testing.T) {
	const (
		dcs        = 3
		partitions = 2
		keys       = 8
		opsPer     = 150
	)
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: partitions, Engine: HAPOCC,
		HeartbeatInterval:     time.Millisecond,
		StabilizationInterval: 5 * time.Millisecond,
		DataDir:               t.TempDir(),
		Seed:                  3030,
	})
	tbl := keyspace.Build(partitions, keys)
	c.SeedTable(tbl)
	reg := causaltest.NewRegistry()

	// The departing DC writes history the survivors must retain.
	leaverSess, err := c.NewSession(2)
	if err != nil {
		t.Fatal(err)
	}
	leaver := causaltest.NewSession(reg, leaverSess, "leaver")
	for i := 0; i < 60; i++ {
		if err := leaver.Put(tbl.Key(i%partitions, i%keys), []byte(fmt.Sprintf("dc2-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for dc := 0; dc < 2; dc++ { // the surviving DCs keep the cluster busy
		sess, err := c.NewSession(dc)
		if err != nil {
			t.Fatal(err)
		}
		cs := causaltest.NewSession(reg, sess, sessionName(dc, 0))
		wg.Add(1)
		go func(dc int, cs *causaltest.Session) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(3030, uint64(dc)))
			for op := 0; op < opsPer; op++ {
				key := tbl.Key(int(rng.Uint64N(partitions)), int(rng.Uint64N(keys)))
				var err error
				if op%3 == 2 {
					err = cs.Put(key, []byte{byte(dc), byte(op)})
				} else {
					_, err = cs.Get(key)
				}
				if err != nil {
					t.Errorf("dc%d op %d: %v", dc, op, err)
					return
				}
			}
		}(dc, cs)
	}

	time.Sleep(30 * time.Millisecond)
	if err := c.RemoveDC(2); err != nil {
		t.Fatal(err)
	}
	// Sessions pinned to the departed DC fail permanently.
	if _, err := leaver.Get(tbl.Key(0, 0)); err == nil {
		t.Fatal("session on the departed DC kept working")
	}
	wg.Wait()

	for _, v := range reg.Violations() {
		t.Error(v)
	}

	// The survivors' views must mark dc2 departed (the notices may still be
	// in flight when the workload drains), and its slot is gone.
	if !waitUntil(t, 5*time.Second, func() bool {
		for dc := 0; dc < 2; dc++ {
			for p := 0; p < partitions; p++ {
				if c.Server(dc, p).Repl().View().Get(2) != msg.DCLeft {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatalf("survivors never marked dc2 departed (dc0-p0 view %+v)", c.Server(0, 0).Repl().View())
	}
	if c.Server(2, 0) != nil {
		t.Fatal("departed DC still resolves a server")
	}
	if _, err := c.NewSession(2); err == nil {
		t.Fatal("NewSession against a departed DC must fail")
	}

	// Survivors hold the departed DC's history and agree on every head.
	if !waitUntil(t, 10*time.Second, func() bool {
		for p := 0; p < partitions; p++ {
			for r := 0; r < keys; r++ {
				key := tbl.Key(p, r)
				h0 := c.Server(0, p).Store().Head(key)
				h1 := c.Server(1, p).Store().Head(key)
				if (h0 == nil) != (h1 == nil) {
					return false
				}
				if h0 != nil && !h0.Same(h1) {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatalf("survivors did not converge after the leave (%+v)", c.ReplicationStats())
	}

	// Stabilization must not stall: the GSS entries of the *surviving* DCs
	// keep advancing (heartbeats drive them), while the departed entry stays
	// frozen — and newly written stable data becomes visible, which is the
	// user-facing meaning of "the GSS still moves".
	before := c.Server(0, 0).GSS()
	if !waitUntil(t, 5*time.Second, func() bool {
		now := c.Server(0, 0).GSS()
		return now.Get(0) > before.Get(0) && now.Get(1) > before.Get(1)
	}) {
		t.Fatalf("GSS stalled after the leave: before %v, now %v", before, c.Server(0, 0).GSS())
	}
	// The departed entry first converges up to the leaver's final timestamp
	// (stabilization ticks fold the last VV advances in), then freezes for
	// good: wait for quiescence, then require it to hold.
	var frozen vclock.Timestamp
	if !waitUntil(t, 5*time.Second, func() bool {
		a := c.Server(0, 0).GSS().Get(2)
		time.Sleep(20 * time.Millisecond)
		b := c.Server(0, 0).GSS().Get(2)
		frozen = b
		return a == b
	}) {
		t.Fatal("departed DC's GSS entry never settled")
	}
	time.Sleep(50 * time.Millisecond)
	if got := c.Server(0, 0).GSS().Get(2); got != frozen {
		t.Fatalf("departed DC's GSS entry moved after the leave: %d -> %d", frozen, got)
	}
	// A departed DC contributes no replication lag.
	st := c.ReplicationStats()
	for dst, row := range st.LagPerLink {
		if row[2] != 0 {
			t.Fatalf("dc%d reports lag %v against the departed dc2", dst, row[2])
		}
	}
	if err := c.StorageErr(); err != nil {
		t.Fatal(err)
	}
}

// TestMembershipValidation pins the admin-facing error surface: joins need
// durability and headroom, leaves need a survivor.
func TestMembershipValidation(t *testing.T) {
	mem := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 1, MaxDCs: 3, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		Seed:              1,
	})
	if _, err := mem.AddDC(); err == nil {
		t.Fatal("AddDC on an in-memory cluster must fail (nothing to bootstrap from)")
	}

	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		DataDir:           t.TempDir(),
		Seed:              2,
	})
	if _, err := c.AddDC(); err == nil {
		t.Fatal("AddDC without MaxDCs headroom must fail")
	}
	if err := c.RemoveDC(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveDC(1); err == nil {
		t.Fatal("double RemoveDC must fail")
	}
	if err := c.RemoveDC(0); err == nil {
		t.Fatal("removing the last DC must fail")
	}
	// A departed DC cannot be restarted (its slot is retired, not crashed),
	// and a slot that never joined has no server to restart — both must be
	// errors, not panics.
	if err := c.RestartServer(1, 0); err == nil {
		t.Fatal("RestartServer on a departed DC must fail")
	}
	if err := c.RestartServer(5, 0); err == nil {
		t.Fatal("RestartServer on a never-joined slot must fail")
	}
	if _, err := New(Config{NumDCs: 3, NumPartitions: 1, MaxDCs: 2, Engine: POCC}); err == nil {
		t.Fatal("MaxDCs below NumDCs must be rejected")
	}
}

// TestJoinerStabilizationGate pins, deterministically, that a joining
// server enters the stabilization protocol only after its bootstrap: until
// the active inbound link is synced, the joiner must not broadcast a single
// VVExchange (its half-empty version vector would drag the DC's GSS — an
// aggregate minimum — down to nothing). The remote sibling and the same-DC
// peer are bare recording endpoints, so the moment the gate opens is fully
// controlled by the heartbeat injected at the end.
func TestJoinerStabilizationGate(t *testing.T) {
	net := netemu.New(netemu.Config{})
	defer net.Close()

	type recorded struct {
		mu   sync.Mutex
		msgs []any
	}
	record := func(r *recorded) netemu.Handler {
		return func(src netemu.NodeID, m any) {
			if _, lent := m.(netemu.Lent); lent {
				return // valid for the call only, and no check here reads one
			}
			r.mu.Lock()
			r.msgs = append(r.msgs, m)
			r.mu.Unlock()
		}
	}
	count := func(r *recorded, pred func(any) bool) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		n := 0
		for _, m := range r.msgs {
			if pred(m) {
				n++
			}
		}
		return n
	}
	isVVX := func(m any) bool { _, ok := m.(msg.VVExchange); return ok }

	var remote, peer recorded
	remoteEP := net.Register(netemu.NodeID{DC: 0, Partition: 0}, record(&remote))
	net.Register(netemu.NodeID{DC: 1, Partition: 1}, record(&peer))
	joinerEP := net.Register(netemu.NodeID{DC: 1, Partition: 0}, nil)

	srv, err := core.NewServer(core.Config{
		Config: repl.Config{
			ID:                netemu.NodeID{DC: 1, Partition: 0},
			NumDCs:            2,
			Clock:             clock.New(0),
			Endpoint:          joinerEP,
			HeartbeatInterval: time.Millisecond,
			Joining:           true,
		},
		NumPartitions:         2,
		DefaultMode:           core.Optimistic,
		StabilizationInterval: time.Millisecond,
		Metrics:               &core.Metrics{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The remote sibling stays silent: the joiner must have asked to join,
	// and must NOT have entered stabilization.
	if !waitUntil(t, 2*time.Second, func() bool {
		return count(&remote, func(m any) bool { _, ok := m.(msg.JoinRequest); return ok }) > 0
	}) {
		t.Fatal("joiner never sent a JoinRequest")
	}
	time.Sleep(20 * time.Millisecond) // ~20 stabilization intervals
	if srv.Repl().Bootstrapped() {
		t.Fatal("joiner bootstrapped with a silent sibling")
	}
	if n := count(&peer, isVVX); n != 0 {
		t.Fatalf("joiner broadcast %d VVExchange(s) before its bootstrap", n)
	}

	// First contact from the sibling: nothing precedes this heartbeat in its
	// incarnation (seq 0, floor 0), so the link is adopted, the bootstrap
	// completes, and stabilization opens up.
	remoteEP.Send(netemu.NodeID{DC: 1, Partition: 0},
		&msg.Heartbeat{Time: vclock.Timestamp(time.Now().UnixNano()), Epoch: 7, Seq: 0, Floor: 0})
	if !waitUntil(t, 2*time.Second, func() bool { return srv.Repl().Bootstrapped() }) {
		t.Fatal("joiner did not bootstrap after first contact")
	}
	if !waitUntil(t, 2*time.Second, func() bool { return count(&peer, isVVX) > 0 }) {
		t.Fatal("stabilization never started after the bootstrap")
	}
	// The completed join was announced on the replication links.
	if count(&remote, func(m any) bool { _, ok := m.(msg.MembershipUpdate); return ok }) == 0 {
		t.Fatal("joiner never announced itself Active")
	}
}

// TestMembershipJoinOverTCP smokes the join path on the real-TCP transport:
// AddDC must extend the live address directory (old nodes learn the new
// endpoints, new nodes learn everyone) and the joiner must bootstrap the
// pre-join history over actual loopback connections.
func TestMembershipJoinOverTCP(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, MaxDCs: 3, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		TCP:               true,
		DataDir:           t.TempDir(),
		Seed:              5050,
	})
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sess.Put(fmt.Sprintf("tcp-%d", i%8), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The history must be *flushed* (sequenced batches on the wire) before
	// the join: a joiner that registers ahead of the origin's first flush
	// legitimately adopts the stream from batch one and needs no catch-up —
	// which would rob the assertion below of its teeth. Replication to dc1
	// proves the flushes happened.
	if !waitUntil(t, 5*time.Second, func() bool {
		for i := 0; i < 8; i++ {
			reply, err := c.ReadAt(1, fmt.Sprintf("tcp-%d", i))
			if err != nil || !reply.Exists {
				return false
			}
		}
		return true
	}) {
		t.Fatal("pre-join history never replicated to dc1")
	}
	dc, err := c.AddDC()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForJoin(dc, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		for i := 0; i < 8; i++ {
			reply, err := c.ReadAt(dc, fmt.Sprintf("tcp-%d", i))
			if err != nil || !reply.Exists {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("TCP joiner never served the pre-join history (%+v)", c.ReplicationStats())
	}
	if st := c.ReplicationStats(); st.CatchUpsServed == 0 {
		t.Fatalf("TCP join without catch-up rounds (%+v)", st)
	}
}
