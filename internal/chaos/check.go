package chaos

import (
	"fmt"
	"time"

	"repro/internal/vclock"
)

// watchdog asserts GSS liveness: DC 0's stabilization cursor for its own
// updates must keep advancing whenever no fault (kill awaiting eviction,
// link down) can legitimately freeze the deployment. A stall without an
// active fault is exactly the permanent wedge the eviction and catch-up
// machinery exists to rule out.
func (h *harness) watchdog(stop <-chan struct{}) {
	defer h.wdWG.Done()
	const window = 10 * time.Second
	var last vclock.Timestamp
	lastProgress := time.Now()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		h.mu.Lock()
		faultActive := len(h.down) > 0
		h.mu.Unlock()
		if faultActive || h.evicting.Load() > 0 {
			lastProgress = time.Now() // legitimate freeze window
			continue
		}
		cur := vclock.Timestamp(0)
		ok := true
		// Live partition count: splits grow it mid-run, and a freshly
		// flipped partition's cursor folds in once its servers stabilize.
		for p := 0; p < h.c.NumPartitions(); p++ {
			srv := h.c.Server(0, p)
			if srv == nil {
				ok = false // mid-restart; try next tick
				break
			}
			g := srv.GSS().Get(0)
			if p == 0 || g < cur {
				cur = g
			}
		}
		if !ok {
			continue
		}
		if cur > last {
			last = cur
			lastProgress = time.Now()
			continue
		}
		if time.Since(lastProgress) > window {
			h.violatef("GSS stalled: dc0's own stabilization cursor stuck at %d for %v with no active fault",
				last, time.Since(lastProgress).Round(time.Millisecond))
			lastProgress = time.Now() // don't spam
		}
	}
}

// epilogue heals every injected fault, settles in-flight joins, stops the
// workers, and verifies the deployment converged: marker visibility, head
// agreement on the whole keyspace across every surviving DC, and GSS
// advancement past the marker; then it checks the acknowledged-write ledger.
func (h *harness) epilogue() {
	// Restore the network profile and every downed link (AfterFunc heals are
	// idempotent with this).
	h.c.Network().SetLatencyScale(1)
	h.mu.Lock()
	pairs := make([][2]int, 0, len(h.down))
	for p := range h.down {
		pairs = append(pairs, p)
	}
	h.mu.Unlock()
	for _, p := range pairs {
		h.c.Network().PartitionDCs(p[0], p[1], false)
	}
	h.healWG.Wait()
	h.joinWG.Wait()
	h.reshardWG.Wait()
	h.tracef("healed; joins and reshards settled; quiescing")

	close(h.stop)
	h.workerWG.Wait()

	if err := h.c.StorageErr(); err != nil {
		h.violatef("sticky storage error: %v", err)
	}

	// Write the convergence marker from DC 0 (never removed). Retries cover
	// a marker write racing the tail of a crash-restart.
	markerKey := "chaos-marker"
	var markerUT vclock.Timestamp
	var markerDC int
	wrote := false
	for attempt := 0; attempt < 50 && !wrote; attempt++ {
		s, err := h.c.NewRawSession(0)
		if err == nil {
			if ut, dc, perr := s.PutMeta(markerKey, []byte("converge")); perr == nil {
				markerUT, markerDC = ut, dc
				wrote = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !wrote {
		h.violatef("could not write the convergence marker at dc0 after healing")
		return
	}

	dcs := h.activeDCs()
	deadline := time.Now().Add(30 * time.Second)
	for {
		lag := h.convergenceLag(dcs, markerKey, markerUT, markerDC)
		if lag == "" {
			h.tracef("converged across dc%v", dcs)
			break
		}
		if time.Now().After(deadline) {
			h.violatef("no convergence within 30s after healing: %s (repl stats %+v)",
				lag, h.c.ReplicationStats())
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Converged or not: a loss the heads share passes the check above, and
	// one that split them is named here by the write it lost.
	h.ledger = h.checkLedger(dcs)
	h.tracef("ledger: %d acknowledged writes, %d excused by a forced removal, %d by a crash",
		h.ledger.Writes, h.ledger.ExcusedForced, h.ledger.ExcusedCrash)
}

// convergenceLag returns "" when every surviving DC agrees: the marker is
// visible and stable everywhere and every chaos key resolves to the same
// head version at every DC. Otherwise it describes the first divergence.
func (h *harness) convergenceLag(dcs []int, markerKey string, markerUT vclock.Timestamp, markerDC int) string {
	type head struct {
		ut     vclock.Timestamp
		src    int
		exists bool
	}
	for i := 0; i < numKeys+1; i++ {
		key := markerKey
		if i < numKeys {
			key = h.key(i)
		}
		var first head
		for n, dc := range dcs {
			r, err := h.c.ReadAt(dc, key)
			if err != nil {
				return fmt.Sprintf("dc%d read %s: %v", dc, key, err)
			}
			cur := head{r.UpdateTime, r.SrcReplica, r.Exists}
			if key == markerKey && (!cur.exists || cur.ut < markerUT) {
				return fmt.Sprintf("dc%d has not seen the marker (%d@dc%d)", dc, markerUT, markerDC)
			}
			if n == 0 {
				first = cur
			} else if cur != first {
				return fmt.Sprintf("heads diverge on %s: dc%d=%+v dc%d=%+v", key, dcs[0], first, dc, cur)
			}
		}
	}
	// GSS must cover the marker at every surviving server: stabilization
	// resumed after the last eviction/heal.
	for _, dc := range dcs {
		for p := 0; p < h.c.NumPartitions(); p++ {
			srv := h.c.Server(dc, p)
			if srv == nil {
				return fmt.Sprintf("dc%d-p%d not running", dc, p)
			}
			if g := srv.GSS().Get(markerDC); g < markerUT {
				return fmt.Sprintf("dc%d-p%d GSS[%d]=%d below marker %d (stabilization wedged)",
					dc, p, markerDC, g, markerUT)
			}
		}
	}
	return ""
}
