package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/causaltest"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// The acknowledged-write ledger: every PUT a worker had acknowledged, checked
// in the epilogue against every surviving DC's head for its key. The head
// must be the write or one that supersedes it in LWW order. A loss that every
// survivor shares passes the convergence check (the heads agree), so only
// the ledger sees it, unless a later write superseded it: hence write-once
// keys. Two losses are the deployment's to take, and only they are excused:
// the writes above the agreed final of a force-removed origin (they existed
// only on the dead DC), and those above the replayed own entry of an origin
// partition that crashed under AckGrouped (its staging window).

// ackedWrite is one acknowledged PUT. owners are the key's partition when
// the PUT was issued and when it was acknowledged (they differ only across a
// reshard's flip): the origin partition is one of them. issued orders the
// issue against the restarts' completion (harness.seq).
type ackedWrite struct {
	key    string
	id     causaltest.VersionID
	owners [2]int
	issued uint64
	at     time.Duration // ack, since the run's start
}

// restart is one crash-restart of a partition server: the own version-vector
// entry its replay restored, and harness.seq once the new server was up.
type restart struct {
	dc, p int
	floor vclock.Timestamp
	done  uint64
}

// Ledger is the ledger's outcome: the acknowledged writes it checked and the
// losses it excused, by cause.
type Ledger struct {
	Writes        int
	ExcusedForced int // above a force-removed origin's agreed final
	ExcusedCrash  int // above a crashed origin partition's replayed entry
}

// put is a worker's PUT, entered in the ledger once acknowledged.
func (h *harness) put(cs *causaltest.Session, key string, value []byte) error {
	w := ackedWrite{key: key, issued: h.seq.Load(), owners: [2]int{h.c.PartitionOf(key), 0}}
	id, err := cs.PutMeta(key, value)
	if err != nil {
		return err
	}
	w.id, w.owners[1], w.at = id, h.c.PartitionOf(key), time.Since(h.start)
	h.mu.Lock()
	h.writes = append(h.writes, w)
	h.mu.Unlock()
	return nil
}

// restarted records a completed RestartServer: the own entry the replay
// restored (a durable engine's recovered floor, fixed at open).
func (h *harness) restarted(dc, p int) {
	d := h.c.Server(dc, p).Store().(*storage.Durable)
	r := restart{dc: dc, p: p, floor: d.RecoveredVV().Get(dc), done: h.seq.Add(1)}
	h.mu.Lock()
	h.restarts = append(h.restarts, r)
	h.mu.Unlock()
}

// excuse names the cause that excuses w's loss, or "" when none does.
// finals holds, per force-removed DC, its agreed final by partition.
func (h *harness) excuse(w ackedWrite, finals map[int][]vclock.Timestamp) string {
	if f, ok := finals[w.id.SrcReplica]; ok {
		for _, p := range w.owners {
			if p < len(f) && w.id.UpdateTime > f[p] {
				return "forced"
			}
		}
	}
	for _, r := range h.restarts {
		// Issued before the restart completed: it may have been acknowledged
		// by the incarnation that crashed.
		if r.dc == w.id.SrcReplica && (r.p == w.owners[0] || r.p == w.owners[1]) &&
			w.issued < r.done && w.id.UpdateTime > r.floor {
			return "crash"
		}
	}
	return ""
}

// checkLedger holds every acknowledged write against the heads of the
// surviving DCs dcs, records a violation for each loss no fault excuses (the
// first few in full), and returns the counts.
func (h *harness) checkLedger(dcs []int) Ledger {
	h.mu.Lock()
	writes, evicted := h.writes, h.evicted
	h.mu.Unlock()
	finals := make(map[int][]vclock.Timestamp, len(evicted))
	for dc := range evicted {
		for p := 0; p < h.c.NumPartitions(); p++ {
			finals[dc] = append(finals[dc], h.c.Server(0, p).Repl().View().FinalOf(dc))
		}
	}
	heads := make(map[string][]causaltest.VersionID, numKeys)
	headsOf := func(key string) []causaltest.VersionID {
		if hs, ok := heads[key]; ok {
			return hs
		}
		hs := make([]causaltest.VersionID, len(dcs))
		for i, dc := range dcs {
			if r, err := h.c.ReadAt(dc, key); err == nil && r.Exists {
				hs[i] = causaltest.VersionID{UpdateTime: r.UpdateTime, SrcReplica: r.SrcReplica}
			}
		}
		heads[key] = hs
		return hs
	}
	const shown = 10
	led := Ledger{Writes: len(writes)}
	lost := 0
	for _, w := range writes {
		at := -1
		for i, head := range headsOf(w.key) {
			if !head.NewerOrEqual(w.id) {
				at = i
				break
			}
		}
		if at < 0 {
			continue
		}
		switch h.excuse(w, finals) {
		case "forced":
			led.ExcusedForced++
			continue
		case "crash":
			led.ExcusedCrash++
			continue
		}
		if lost++; lost <= shown {
			h.violatef("acknowledged write %s=%v (dc%d-p%d, acked at %.3fs) lost at dc%d, whose head is %v; faults around its ack: %s",
				w.key, w.id, w.id.SrcReplica, w.owners[1], w.at.Seconds(), dcs[at], headsOf(w.key)[at], h.traceAround(w.at))
		}
	}
	if lost > shown {
		h.violatef("%d more acknowledged writes lost with no excuse", lost-shown)
	}
	return led
}

// traceAround returns the fault events traced within a second of at.
func (h *harness) traceAround(at time.Duration) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for i, t := range h.traceAt {
		if d := t - at; d >= -time.Second && d <= time.Second {
			out = append(out, strings.TrimSpace(h.trace[i]))
		}
	}
	if out == nil {
		return "none"
	}
	return fmt.Sprintf("[%s]", strings.Join(out, "; "))
}
