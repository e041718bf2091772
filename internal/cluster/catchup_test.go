package cluster

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/causaltest"
	"repro/internal/keyspace"
	"repro/internal/netemu"
	"repro/internal/repl"
)

// TestCatchUpAfterCrashLostBufferTail is the deterministic tail-loss
// scenario: the sibling DC is cut off from the update stream while the
// origin servers take writes, and the origin servers then crash (crash
// restarts discard the replication buffer — no graceful flush), so the
// sibling never received any of the writes and the incarnation that sent
// them is gone. The restarted incarnation's WAL still holds the versions,
// and the sibling must detect the new epoch and recover every acknowledged
// write via WAL-shipped catch-up.
func TestCatchUpAfterCrashLostBufferTail(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 2, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		DataDir:           t.TempDir(),
		Seed:              909,
	})
	dropAtDC1 := func(drop bool) {
		for p := 0; p < 2; p++ {
			if err := c.DropInboundReplication(1, p, drop); err != nil {
				t.Fatal(err)
			}
		}
	}
	dropAtDC1(true)
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("tail-%d", i%10)
		val := fmt.Sprintf("v%d", i)
		if err := sess.Put(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	// Nothing may have replicated: every flush was dropped on DC1's doorstep.
	for key := range want {
		reply, err := c.ReadAt(1, key)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Exists {
			t.Fatalf("key %s leaked to DC1 before the crash; the scenario needs a lost tail", key)
		}
	}

	// Crash both DC0 servers: the incarnations that sent the tail — and
	// whatever still sat in their buffers — are gone for good. Only then
	// does DC1 hear from DC0 again.
	for p := 0; p < 2; p++ {
		if err := c.RestartServer(0, p); err != nil {
			t.Fatal(err)
		}
	}
	dropAtDC1(false)

	// The restarted incarnations heartbeat with a fresh epoch; DC1 detects
	// the discontinuity and pulls the lost tail out of DC0's WALs.
	if !waitUntil(t, 10*time.Second, func() bool {
		for key, val := range want {
			reply, err := c.ReadAt(1, key)
			if err != nil || !reply.Exists || string(reply.Value) != val {
				return false
			}
		}
		return true
	}) {
		st := c.ReplicationStats()
		t.Fatalf("DC1 never recovered the crashed buffer tail (catch-up stats %+v)", st)
	}
	st := c.ReplicationStats()
	if st.CatchUpsCompleted == 0 || st.CatchUpsServed == 0 {
		t.Fatalf("convergence without catch-up rounds (%+v); the scenario lost its teeth", st)
	}
	if err := c.StorageErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpAfterDroppedLink severs — drops, not pauses — the inbound
// replication plane of one node mid-workload: batches and heartbeats
// addressed to it are discarded while checked sessions keep the cluster
// busy. After the link heals, the lagging replica must detect the sequence
// gap, catch up via WAL shipping, and the whole cluster must satisfy the
// causal session guarantees and converge.
func TestCatchUpAfterDroppedLink(t *testing.T) {
	const (
		dcs        = 3
		partitions = 2
		keys       = 8
		sessions   = 2
		opsPer     = 150
	)
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: partitions, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		GCInterval:        20 * time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, 2*time.Millisecond),
		JitterFrac:        0.3,
		DataDir:           t.TempDir(),
		Seed:              1010,
	})
	tbl := keyspace.Build(partitions, keys)
	c.SeedTable(tbl)
	reg := causaltest.NewRegistry()

	var wg sync.WaitGroup
	var healed atomic.Bool
	for dc := 0; dc < dcs; dc++ {
		for si := 0; si < sessions; si++ {
			sess, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			cs := causaltest.NewSession(reg, sess, sessionName(dc, si))
			wg.Add(1)
			go func(dc, si int, cs *causaltest.Session) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(1010, uint64(dc*1000+si)))
				// At least opsPer operations, and in any case until the link
				// has healed: how long an operation takes must not decide
				// whether the drop window sees traffic.
				for op := 0; op < opsPer || !healed.Load(); op++ {
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
			}(dc, si, cs)
		}
	}

	// Sever the inbound replication plane of dc2-p0 while traffic flows,
	// then heal it. Messages in the window are gone, not delayed.
	time.Sleep(60 * time.Millisecond)
	if err := c.DropInboundReplication(2, 0, true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if err := c.DropInboundReplication(2, 0, false); err != nil {
		t.Fatal(err)
	}
	healed.Store(true)
	wg.Wait()

	for _, v := range reg.Violations() {
		t.Error(v)
	}

	// Convergence epilogue: every replica, including the one that lost part
	// of the stream, must land on identical heads.
	if !waitUntil(t, 10*time.Second, func() bool {
		for p := 0; p < partitions; p++ {
			for r := 0; r < keys; r++ {
				key := tbl.Key(p, r)
				h0 := c.Server(0, p).Store().Head(key)
				for dc := 1; dc < dcs; dc++ {
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
		st := c.ReplicationStats()
		t.Fatalf("replicas did not converge after the dropped link (catch-up stats %+v)", st)
	}
	st := c.ReplicationStats()
	if st.CatchUpsCompleted == 0 {
		t.Fatalf("converged without any catch-up round (%+v); the drop window saw no traffic?", st)
	}
	t.Logf("catch-up stats: %+v, max lag %v", st, st.MaxLag())
	if err := c.StorageErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpSilentOnLosslessLinks: an in-memory deployment holds every
// inbound replication message to the same (epoch, seq) rule as a durable one.
// Its links are lossless and FIFO, so under a checked workload the rule must
// never fire: every link adopts its stream at first contact and stays active,
// and no catch-up round is ever requested. It is also the end-to-end guard on
// pooled batches, over both transports: a receiver reading a batch recycled
// under it sees nil versions and drops the batch as a hole, which catch-up
// would repair silently — but not without requesting a round.
func TestCatchUpSilentOnLosslessLinks(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "netemu", true: "tcp"}[tcp], func(t *testing.T) {
			c := runStress(t, stressConfig{
				engine: POCC, dcs: 3, partitions: 2, keys: 8,
				sessions: 4, opsPer: 200, txEvery: 10, putEvery: 3, seed: 1717, tcp: tcp,
			})
			st := c.ReplicationStats()
			if st.CatchUpsRequested != 0 || st.CatchUpsActive != 0 {
				t.Fatalf("catch-up rounds on lossless links: %+v", st)
			}
			for dst, row := range st.LinkStates {
				for src, state := range row {
					if src != dst && state != repl.LinkActive {
						t.Errorf("link dc%d<-dc%d is %v, want %v", dst, src, state, repl.LinkActive)
					}
				}
			}
		})
	}
}

// TestCatchUpCountersExposed pins that a quiet durable cluster reports a
// healthy replication plane: no active rounds, bounded lag.
func TestCatchUpCountersExposed(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		DataDir:           t.TempDir(),
	})
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		st := c.ReplicationStats()
		return st.CatchUpsActive == 0 && st.MaxLag() < 250*time.Millisecond
	}) {
		t.Fatalf("replication plane never settled: %+v", c.ReplicationStats())
	}
}

// TestCatchUpCountersSurviveRestart: each server incarnation starts its
// catch-up counters at zero, so the deployment's totals must carry what a
// restarted server counted before — or a restart would hide every round it
// requested. Three dropped windows make the requester open rounds, then it
// is restarted: the totals may only grow.
func TestCatchUpCountersSurviveRestart(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		DataDir:           t.TempDir(),
		Seed:              1313,
	})
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := c.DropInboundReplication(1, 0, true); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := sess.Put(fmt.Sprintf("k%d", i), []byte{byte(round)}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond) // the flushes are dropped at DC1's door
		if err := c.DropInboundReplication(1, 0, false); err != nil {
			t.Fatal(err)
		}
		if !waitUntil(t, 5*time.Second, func() bool {
			st := c.ReplicationStats()
			return st.CatchUpsCompleted >= uint64(round) && st.CatchUpsActive == 0
		}) {
			t.Fatalf("round %d: the gap was never caught up (%+v)", round, c.ReplicationStats())
		}
	}
	before := c.ReplicationStats()
	if err := c.RestartServer(1, 0); err != nil {
		t.Fatal(err)
	}
	after := c.ReplicationStats()
	if after.CatchUpsRequested < before.CatchUpsRequested || after.CatchUpsCompleted < before.CatchUpsCompleted ||
		after.CatchUpsServed < before.CatchUpsServed {
		t.Fatalf("catch-up counters fell across the requester's restart: before %+v, after %+v", before, after)
	}
}

// TestLeaveDuringCatchUpFillsFromSurvivors: a DC departs while a sibling's
// link from it is catching up. The leave notice must not raise the
// sibling's entry over the hole the round was fetching — the round is
// cancelled, nobody is left to answer it — so the hole is filled from the
// surviving DC, whose Departed claim then raises the entry. Every version
// the leaver wrote lands on both survivors.
func TestLeaveDuringCatchUpFillsFromSurvivors(t *testing.T) {
	const keys = 20
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, 5*time.Millisecond),
		DataDir:           t.TempDir(),
		Seed:              4343,
	})
	if err := c.DropInboundReplication(0, 0, true); err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := sess.Put(fmt.Sprintf("leaver-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The drop is at delivery: heal only once the batches have reached dc2,
	// and dc0's door a moment later (the same 5 ms link).
	if !waitUntil(t, 5*time.Second, func() bool {
		for i := 0; i < keys; i++ {
			if c.Server(2, 0).Store().Head(fmt.Sprintf("leaver-%d", i)) == nil {
				return false
			}
		}
		return true
	}) {
		t.Fatal("dc2 never received dc1's writes")
	}
	time.Sleep(5 * time.Millisecond)
	if err := c.DropInboundReplication(0, 0, false); err != nil {
		t.Fatal(err)
	}
	// The heartbeats arriving after the heal show dc0 the hole and open a
	// round toward dc1; the leave overtakes its answer.
	time.Sleep(2 * time.Millisecond)
	if err := c.RemoveDC(1); err != nil {
		t.Fatal(err)
	}
	missing := func() (n int) {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("leaver-%d", i)
			h0, h2 := c.Server(0, 0).Store().Head(key), c.Server(2, 0).Store().Head(key)
			if h0 == nil || h2 == nil || !h0.Same(h2) {
				n++
			}
		}
		return n
	}
	if !waitUntil(t, 10*time.Second, func() bool { return missing() == 0 }) {
		t.Fatalf("dc0 lacks %d of dc2's %d heads written by the departed dc1 (VV %v, catch-up stats %+v)",
			missing(), keys, c.Server(0, 0).VV(), c.ReplicationStats())
	}
}

// TestCatchUpHoleSurvivesRestart: a link catching up has installed versions
// above its frozen entry. A crash in the middle of the round must not
// recover the entry above the hole — the round after the restart would
// then start past the hole and never ship it. Heartbeats are off, so the
// only replication traffic is one batch per 128 writes (batchCap) and the
// rounds those batches open.
func TestCatchUpHoleSurvivesRestart(t *testing.T) {
	const batch = 128
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Hour,
		Latency:           UniformLatency(50*time.Microsecond, 5*time.Millisecond),
		DataDir:           t.TempDir(),
		Seed:              4444,
	})
	sess, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	put := func(prefix string) {
		for i := 0; i < batch; i++ {
			if err := sess.Put(fmt.Sprintf("%s%d", prefix, i), []byte(prefix)); err != nil {
				t.Fatal(err)
			}
		}
	}
	holds := func(dc int, prefix string) (n int) {
		for i := 0; i < batch; i++ {
			if reply, err := c.ReadAt(dc, fmt.Sprintf("%s%d", prefix, i)); err == nil && reply.Exists {
				n++
			}
		}
		return n
	}
	drop := func(on bool) {
		if err := c.DropInboundReplication(0, 0, on); err != nil {
			t.Fatal(err)
		}
	}

	// Batch 1 (the a* writes) is lost at dc0's door; dc2 receives it.
	drop(true)
	put("a")
	if !waitUntil(t, 5*time.Second, func() bool { return holds(2, "a") == batch }) {
		t.Fatal("dc2 never received batch 1")
	}
	time.Sleep(5 * time.Millisecond) // batch 1 reaches dc0's door too, and is dropped
	drop(false)

	// Batch 2 (b*) arrives over the hole: dc0 installs it and opens a round.
	before := c.ReplicationStats()
	put("b")
	if !waitUntil(t, 5*time.Second, func() bool {
		return holds(0, "b") == batch && c.ReplicationStats().CatchUpsRequested > before.CatchUpsRequested
	}) {
		t.Fatalf("dc0 never opened a round over batch 2 (b* %d/%d, stats %+v)", holds(0, "b"), batch, c.ReplicationStats())
	}
	// The round's chunks and Done are lost, then dc0 crashes.
	drop(true)
	if !waitUntil(t, 5*time.Second, func() bool {
		return c.ReplicationStats().CatchUpsServed > before.CatchUpsServed
	}) {
		t.Fatalf("dc1 never served the round (stats %+v)", c.ReplicationStats())
	}
	time.Sleep(10 * time.Millisecond) // the Done, sent last, reaches dc0's door
	if err := c.RestartServer(0, 0); err != nil {
		t.Fatal(err)
	}
	drop(false)

	// Batch 3 (c*) is the restarted dc0's first contact: its round must
	// reach back over the hole.
	put("c")
	if !waitUntil(t, 10*time.Second, func() bool { return holds(0, "a") == batch && holds(0, "c") == batch }) {
		t.Fatalf("dc0 holds a* %d/%d, c* %d/%d after the restart (VV %v, links %v)",
			holds(0, "a"), batch, holds(0, "c"), batch, c.Server(0, 0).VV(), c.ReplicationStats().LinkStates[0])
	}
}

// lossRig is a durable 2 DC × 1 partition deployment whose dc1 writes
// lossKeys keys dc0 must end up holding, with the replication plane's door of
// each node under the test's control.
type lossRig struct {
	t *testing.T
	c *Cluster
}

const lossKeys = 20

func newLossRig(t *testing.T, latency netemu.LatencyFunc, seed uint64) lossRig {
	return lossRig{t, newCluster(t, Config{
		NumDCs: 2, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		Latency:           latency,
		DataDir:           t.TempDir(),
		Seed:              seed,
	})}
}

func (r lossRig) drop(dc int, on bool) {
	if err := r.c.DropInboundReplication(dc, 0, on); err != nil {
		r.t.Fatal(err)
	}
}

// writeMissed has dc1 write the keys while dc0's door drops them.
func (r lossRig) writeMissed() {
	r.drop(0, true)
	sess, err := r.c.NewSession(1)
	if err != nil {
		r.t.Fatal(err)
	}
	for i := 0; i < lossKeys; i++ {
		if err := sess.Put(fmt.Sprintf("lost-%d", i), []byte{byte(i)}); err != nil {
			r.t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // the last flush reaches dc0's door, and is dropped
}

// await waits until cond holds of the deployment's replication stats.
func (r lossRig) await(what string, cond func(ReplicationStats) bool) {
	r.t.Helper()
	if !waitUntil(r.t, 5*time.Second, func() bool { return cond(r.c.ReplicationStats()) }) {
		r.t.Fatalf("%s never happened (stats %+v)", what, r.c.ReplicationStats())
	}
}

// converges requires dc0 to hold every key and its link from dc1 to be synced.
func (r lossRig) converges() {
	r.t.Helper()
	held := func() (n int) {
		for i := 0; i < lossKeys; i++ {
			if reply, err := r.c.ReadAt(0, fmt.Sprintf("lost-%d", i)); err == nil && reply.Exists {
				n++
			}
		}
		return n
	}
	link := func() repl.LinkState { return r.c.ReplicationStats().LinkStates[0][1] }
	if !waitUntil(r.t, 10*time.Second, func() bool { return held() == lossKeys && link() == repl.LinkActive }) {
		r.t.Fatalf("dc0 holds %d/%d keys, link from dc1 %v (stats %+v)", held(), lossKeys, link(), r.c.ReplicationStats())
	}
}

// TestCatchUpReaskAfterSenderRestart: a round whose request is lost at a
// sender that then restarts is answered by nobody — the new incarnation never
// saw the request, and its heartbeats (a new epoch) only restart the round's
// chain. The quiet re-ask is what recovers the link, so it must not go.
func TestCatchUpReaskAfterSenderRestart(t *testing.T) {
	r := newLossRig(t, nil, 4545)
	r.writeMissed()
	before := r.c.ReplicationStats()
	r.drop(1, true) // dc0's request will be lost at dc1's door
	r.drop(0, false)
	r.await("dc0's round", func(s ReplicationStats) bool { return s.CatchUpsRequested > before.CatchUpsRequested })
	if err := r.c.RestartServer(1, 0); err != nil { // and dc1's door reopens
		t.Fatal(err)
	}
	r.converges()
}

// TestCatchUpLostDoneIdleSender: a round's answer is lost at the receiver
// while the sender is idle — no write, no restart, only same-epoch
// heartbeats. Nothing but the quiet re-ask asks again.
func TestCatchUpLostDoneIdleSender(t *testing.T) {
	r := newLossRig(t, UniformLatency(50*time.Microsecond, 5*time.Millisecond), 4646)
	r.writeMissed()
	before := r.c.ReplicationStats()
	r.drop(0, false)
	r.await("dc0's round", func(s ReplicationStats) bool { return s.CatchUpsRequested > before.CatchUpsRequested })
	r.drop(0, true) // before the answer's 5 ms trip back
	r.await("dc1's serve", func(s ReplicationStats) bool { return s.CatchUpsServed > before.CatchUpsServed })
	time.Sleep(20 * time.Millisecond) // the Done reaches dc0's door, and is dropped
	r.drop(0, false)
	r.converges()
}

// TestDropInboundReplicationValidates: like RestartServer, cutting a node off
// names a node that exists or fails — a coordinate outside the matrix and a
// slot nothing ever came up in are errors, not panics.
func TestDropInboundReplicationValidates(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 3, NumPartitions: 2, MaxDCs: 5, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		DataDir:           t.TempDir(),
		Seed:              1,
	})
	for _, at := range [][2]int{{5, 0}, {-1, 0}, {0, 2}, {0, -1}, {3, 0}} {
		if err := c.DropInboundReplication(at[0], at[1], true); err == nil {
			t.Errorf("DropInboundReplication(%d, %d) succeeded, want \"no server\"", at[0], at[1])
		}
	}
	if err := c.DropInboundReplication(2, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := c.DropInboundReplication(2, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := c.KillDC(3); err == nil {
		t.Error("KillDC of a never-joined slot succeeded")
	}
}
