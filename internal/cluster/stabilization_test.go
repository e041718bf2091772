package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestGSSNeverPassesAnySameDCVV checks the stability invariant in the form
// that can fail: no server's GSS entry may pass the VV entry of any server in
// its DC. A server's GSS against its own VV proves nothing — every GSS fold
// takes the minimum with the server's own fresh VV — so the check samples
// every GSS in a DC first and every same-DC VV after (a VV only rises), and
// requires GSS_p ≤ VV_q for all p and q. An exchange that over-claims a
// peer's vector breaks it at once. A forced removal partway through puts the
// departed DC's entries under the same check, and the GSS must still
// converge past new writes, before and after.
func TestGSSNeverPassesAnySameDCVV(t *testing.T) {
	const dcs, parts, dead = 3, 2, 2
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: parts, Engine: HAPOCC,
		HeartbeatInterval:     time.Millisecond,
		StabilizationInterval: 2 * time.Millisecond,
		ClockSkew:             5 * time.Millisecond,
		DataDir:               t.TempDir(),
		Seed:                  1,
	})
	invariant := func() error {
		for dc := 0; dc < dcs; dc++ {
			gss := make([]vclock.VC, parts)
			for p := range gss {
				if srv := c.Server(dc, p); srv != nil {
					gss[p] = srv.GSS()
				}
			}
			for q := 0; q < parts; q++ {
				srv := c.Server(dc, q)
				if srv == nil {
					continue
				}
				vv := srv.VV()
				for p, g := range gss {
					if !g.LessEq(vv) {
						return fmt.Errorf("dc%d: p%d's GSS %v passes p%d's VV %v", dc, p, g, q, vv)
					}
				}
			}
		}
		return nil
	}
	// Sample the invariant for the whole run, eviction included.
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			if err := invariant(); err != nil {
				done <- err
				return
			}
			select {
			case <-stop:
				done <- nil
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	t.Cleanup(func() {
		select {
		case stop <- struct{}{}:
			if err := <-done; err != nil {
				t.Error(err)
			}
		case err := <-done:
			t.Error(err)
		}
	})
	// write puts n keys from each listed DC and waits until every running
	// server's GSS covers each DC's newest write.
	write := func(phase string, from ...int) {
		t.Helper()
		last := make(map[int]vclock.Timestamp)
		for _, dc := range from {
			sess, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				ut, _, err := sess.PutMeta(fmt.Sprintf("%s-dc%d-k%d", phase, dc, i), []byte("v"))
				if err != nil {
					t.Fatal(err)
				}
				last[dc] = max(last[dc], ut)
			}
		}
		if !waitUntil(t, 10*time.Second, func() bool {
			for dc := 0; dc < dcs; dc++ {
				for p := 0; p < parts; p++ {
					srv := c.Server(dc, p)
					if srv == nil {
						continue
					}
					for origin, ut := range last {
						if srv.GSS().Get(origin) < ut {
							return false
						}
					}
				}
			}
			return true
		}) {
			t.Fatalf("%s: the GSS never covered the writes: %+v", phase, c.ReplicationStats())
		}
	}
	write("before", 0, 1, dead)
	if err := c.ForceRemoveDC(dead, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	write("after", 0, 1)
	if err := invariant(); err != nil {
		t.Fatal(err)
	}
}

// TestHLCPutWaitSkewInsensitive pins satellite 3 at the cluster level: with
// hybrid clocks a session whose dependency carries a far-future remote
// timestamp (a fast origin clock) does not sleep out the skew on its next
// PUT — the hybrid clock absorbs the dependency into its logical component.
// The raw-clock ablation variant is exactly the configuration whose PUT
// clock-wait stretches with the skew (measured, not asserted, by the
// ablation-skew benchmark; asserting a lower bound here would be flaky).
func TestHLCPutWaitSkewInsensitive(t *testing.T) {
	const skew = 30 * time.Millisecond
	c := newCluster(t, Config{
		NumDCs: 2, NumPartitions: 1, Engine: POCC,
		HeartbeatInterval: time.Millisecond,
		ClockSkew:         skew,
		Seed:              1,
	})
	w, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("hlc-dep", []byte("origin")); err != nil {
		t.Fatal(err)
	}
	r, err := c.NewSession(1)
	if err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		v, err := r.Get("hlc-dep")
		return err == nil && v != nil
	}) {
		t.Fatal("the write never became visible at DC 1")
	}
	// The read above charged DC 0's (possibly far-ahead) timestamp into the
	// session's dependency vector; the dependent PUT must not sleep it out.
	start := time.Now()
	ut, _, err := r.PutMeta("hlc-dep2", []byte("dependent"))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > skew/2 {
		t.Fatalf("dependent PUT took %v with hybrid clocks (skew %v): clock-wait is not skew-insensitive", d, skew)
	}
	if dep := r.DV().Get(0); ut <= dep {
		t.Fatalf("dependent PUT's timestamp %d does not dominate its dependency %d", ut, dep)
	}
}
