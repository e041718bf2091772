package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/causaltest"
	"repro/internal/core"
	"repro/internal/keyspace"
)

// retry re-issues op while the target server is down for a restart. Any
// error other than ErrStopped — or running out of patience — is returned.
func retry(op func() error) error {
	var err error
	for attempt := 0; attempt < 400; attempt++ {
		if err = op(); !errors.Is(err, core.ErrStopped) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return err
}

// TestDurableRecoveryMidWorkload is the crash-recovery acceptance test: a
// durable POCC cluster serves checked sessions while one partition server is
// killed and reopened from its data directory mid-workload. The kill is a
// true crash (catch-up is on by default for durable clusters): the victim's
// buffered replication tail is discarded and inbound replication is dropped
// during the down window, so convergence relies on the sequenced streams
// detecting the loss and WAL-shipped catch-up repairing it. The model-based
// checker must observe no causality violation (session guarantees), the
// restarted replica must actually replay its chains from the WAL, and all
// replicas must converge after quiescence.
func TestDurableRecoveryMidWorkload(t *testing.T) {
	const (
		dcs        = 3
		partitions = 2
		keys       = 8
		sessions   = 3
		opsPer     = 200
	)
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: partitions, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		GCInterval:        20 * time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, 2*time.Millisecond),
		JitterFrac:        0.3,
		DataDir:           t.TempDir(),
		Seed:              707,
	})
	tbl := keyspace.Build(partitions, keys)
	c.SeedTable(tbl)
	reg := causaltest.NewRegistry()

	var wg sync.WaitGroup
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
				rng := rand.New(rand.NewPCG(707, uint64(dc*1000+si)))
				for op := 0; op < opsPer; op++ {
					key := tbl.Key(int(rng.Uint64N(partitions)), int(rng.Uint64N(keys)))
					var err error
					switch {
					case op%10 == 9:
						ks := []string{tbl.Key(0, int(rng.Uint64N(keys))), tbl.Key(1, int(rng.Uint64N(keys)))}
						err = retry(func() error { _, e := cs.ROTx(ks); return e })
					case op%3 == 2:
						err = retry(func() error { return cs.Put(key, []byte{byte(dc), byte(op)}) })
					default:
						err = retry(func() error { _, e := cs.Get(key); return e })
					}
					if err != nil {
						t.Errorf("dc%d s%d op %d: %v", dc, si, op, err)
						return
					}
				}
			}(dc, si, cs)
		}
	}

	// Kill and recover two servers, in different DCs, while traffic flows.
	for i, target := range []struct{ dc, p int }{{0, 0}, {1, 1}} {
		time.Sleep(80 * time.Millisecond)
		if err := c.RestartServer(target.dc, target.p); err != nil {
			t.Fatal(err)
		}
		st := c.Server(target.dc, target.p).Store().Stats()
		if st.Versions == 0 {
			t.Fatalf("restart %d: dc%d-p%d came back empty; WAL replay failed", i, target.dc, target.p)
		}
		t.Logf("restart %d: dc%d-p%d recovered %d keys / %d versions", i, target.dc, target.p, st.Keys, st.Versions)
	}
	wg.Wait()

	for _, v := range reg.Violations() {
		t.Error(v)
	}

	// Convergence epilogue across all replicas, including the restarted ones.
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
		t.Fatal("replicas did not converge after the recovery")
	}
	if err := c.StorageErr(); err != nil {
		t.Fatal(err)
	}
}

// tearWALTails chops a few bytes off every non-empty WAL segment tail under
// root, simulating the footprint of a machine crash mid-commit on every
// server at once.
func tearWALTails(t *testing.T, root string) int {
	t.Helper()
	torn := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".wal") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if info.Size() < 8 {
			return nil
		}
		torn++
		return os.Truncate(path, info.Size()-3)
	})
	if err != nil {
		t.Fatal(err)
	}
	return torn
}

// TestDurableColdRestart rebuilds a whole cluster from its data directory —
// with the tails of DC1's segments torn, as a machine crash mid-commit
// would leave them. DC0's replica must serve every acknowledged value, and
// DC1's engines must recover (dropping only each log's torn final record)
// rather than refuse to open. DC0 stays untorn because a version whose only
// copies were torn everywhere is gone for good — WAL-shipped catch-up
// (internal/repl) re-replicates lost stream tails from a surviving copy,
// it cannot resurrect versions no log holds.
func TestDurableColdRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		NumDCs: 2, NumPartitions: 2, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		Latency:           UniformLatency(50*time.Microsecond, time.Millisecond),
		DataDir:           dir,
		Seed:              808,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("cold-%d", i%10)
		val := fmt.Sprintf("v%d", i)
		if err := sess.Put(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	// Let replication land at DC1 before the shutdown, so its WALs hold the
	// full history and the tear below has segments to bite into.
	if !waitUntil(t, 5*time.Second, func() bool {
		for key, val := range want {
			reply, err := c.ReadAt(1, key)
			if err != nil || !reply.Exists || string(reply.Value) != val {
				return false
			}
		}
		return true
	}) {
		t.Fatal("writes never replicated to DC1")
	}
	c.Close()

	// Crash footprint on DC1: every segment loses its in-flight tail record.
	torn := 0
	for p := 0; p < cfg.NumPartitions; p++ {
		torn += tearWALTails(t, filepath.Join(dir, fmt.Sprintf("dc1-p%d", p)))
	}
	if torn == 0 {
		t.Fatal("no DC1 segments to tear; the test lost its crash scenario")
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for key, val := range want {
		reply, err := c2.ReadAt(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if !reply.Exists || string(reply.Value) != val {
			t.Fatalf("after cold restart %s = %q (exists=%v), want %q", key, reply.Value, reply.Exists, val)
		}
	}
	// The torn replica recovered everything but the torn records.
	for p := 0; p < cfg.NumPartitions; p++ {
		if st := c2.Server(1, p).Store().Stats(); st.Versions == 0 {
			t.Fatalf("dc1-p%d recovered no versions from its torn log", p)
		}
	}
	// The in-memory cluster would have come back empty: prove the reads hit
	// recovered state, not fresh writes.
	if st := c2.StorageStats(); st.Versions == 0 {
		t.Fatal("cold-restarted cluster reports no recovered versions")
	}
}

// TestRestartServerRequiresDataDir pins the data-loss guard.
func TestRestartServerRequiresDataDir(t *testing.T) {
	c := newCluster(t, Config{
		NumDCs: 1, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
	})
	if err := c.RestartServer(0, 0); err == nil {
		t.Fatal("RestartServer on an in-memory cluster must refuse")
	}
}
