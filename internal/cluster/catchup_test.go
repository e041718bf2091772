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
