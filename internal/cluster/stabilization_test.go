package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestLeanStabilizationWatermark runs HA-POCC with the scalar watermark
// exchange under clock skew and checks that (a) the GSS still converges past
// new writes at every server — a watermark that under-claims (pinned by a
// zero or departed entry) would stall it — and (b) the stability invariant
// GSS ≤ VV holds at every sampled instant — a watermark that over-claims
// (raising entries past what the sender has actually seen) would break it.
func TestLeanStabilizationWatermark(t *testing.T) {
	const dcs, parts = 3, 2
	c := newCluster(t, Config{
		NumDCs: dcs, NumPartitions: parts, Engine: HAPOCC,
		HeartbeatInterval:     time.Millisecond,
		StabilizationInterval: 2 * time.Millisecond,
		ClockSkew:             5 * time.Millisecond,
		LeanStabilization:     true,
		Seed:                  1,
	})
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	var last vclock.Timestamp
	for i := 0; i < 20; i++ {
		ut, _, err := sess.PutMeta(fmt.Sprintf("lean-k%d", i), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if ut > last {
			last = ut
		}
	}
	invariant := func() {
		t.Helper()
		for dc := 0; dc < dcs; dc++ {
			for p := 0; p < parts; p++ {
				gss := c.Server(dc, p).GSS()
				vv := c.Server(dc, p).VV() // after GSS: VV only grows
				if !gss.LessEq(vv) {
					t.Fatalf("dc%d p%d: GSS %v overclaims past VV %v", dc, p, gss, vv)
				}
			}
		}
	}
	if !waitUntil(t, 10*time.Second, func() bool {
		invariant()
		for dc := 0; dc < dcs; dc++ {
			for p := 0; p < parts; p++ {
				if c.Server(dc, p).GSS().Get(0) < last {
					return false
				}
			}
		}
		return true
	}) {
		t.Fatalf("lean GSS never covered the writes: %+v", c.ReplicationStats())
	}
	invariant()
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
