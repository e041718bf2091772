// Stabilization and garbage collection (§IV-C): the two same-DC exchanges.
// Partitions broadcast their version vectors and fold the aggregate minimum
// into the GSS; they broadcast their GC contributions and prune with the
// aggregate minimum of those.

package core

import (
	"time"

	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// applyVVExchange records a same-DC peer's version vector and recomputes the
// GSS as the aggregate minimum (§IV-C).
//
// A lean exchange (VV nil, Watermark set) raises the already-nonzero entries
// of the sender's last known full vector to the watermark. Safety of the
// fold — no entry may ever exceed the sender's true VV entry — follows from
// three facts:
//
//  1. The sender computed the watermark as the minimum over its nonzero
//     member entries, so for every DC that is still a member, watermark ≤
//     that entry of the sender's VV. An entry nonzero in our (older) copy is
//     necessarily nonzero at the (monotone) sender, hence in that minimum.
//  2. An entry that is zero in our copy is never raised, so a DC that joined
//     after the sender's last full exchange stays conservatively at zero
//     until the next full vector arrives (bounded by leanFullVVEvery ticks).
//  3. A DC departed since our copy was taken has a frozen final timestamp;
//     raising its entry past the final is vacuous — the leave/evict
//     protocols guarantee no version beyond the final exists anywhere.
//
// A watermark arriving before any full vector has nothing to fold into and
// is dropped; the sender's periodic full exchanges repair this.
func (s *Server) applyVVExchange(m msg.VVExchange) {
	if m.Partition < 0 || m.Partition >= s.maxParts {
		return
	}
	s.gssMu.Lock()
	if m.VV == nil {
		if pv := s.peerVV[m.Partition]; pv != nil {
			for i, t := range pv {
				if t > 0 && m.Watermark > t {
					pv[i] = m.Watermark
				}
			}
			s.recomputeGSSLocked()
		}
	} else {
		// Copy rather than alias: the sender broadcasts one VV slice to every
		// same-DC peer, and the watermark fold above writes into peerVV
		// entries — mutating the shared message would race with the other
		// receivers.
		s.peerVV[m.Partition] = s.peerVV[m.Partition].CopyFrom(m.VV)
		s.recomputeGSSLocked()
	}
	s.gssMu.Unlock()
}

// recomputeGSSLocked folds the freshest known VV of every partition in the
// DC (including this node's own) into the GSS. Entries are raised
// individually: every input only grows, so the aggregate minimum is monotone
// per entry. Called with gssMu held.
func (s *Server) recomputeGSSLocked() {
	s.peerVV[s.n] = s.vv.load(s.peerVV[s.n])
	// Fold only the live partitions: the reserved tail (split headroom) has
	// never spoken and would pin the aggregate minimum at zero. A partition
	// that just went live contributes its zero vector until its first
	// exchange arrives — the GSS merely stalls (it is monotone), it cannot
	// regress.
	live := s.peerVV[:s.liveParts()]
	min := s.gssScratch.CopyFrom(live[0])
	for _, v := range live[1:] {
		min.MinInPlace(v)
	}
	s.gssScratch = min
	advanced := false
	for i, t := range min {
		if s.gss.raiseTo(i, t) {
			advanced = true
		}
	}
	if advanced {
		s.gssWaiters.wake()
	}
}

// stabilizationLoop periodically broadcasts this node's VV to its same-DC
// peers so everyone can maintain the GSS (§IV-C).
func (s *Server) stabilizationLoop() {
	defer s.wg.Done()
	// A joining server enters the GSS protocol only after its bootstrap: its
	// version vector is a hole until catch-up fills it, and the GSS is an
	// aggregate minimum — one half-bootstrapped contributor would stall
	// stable visibility for the whole data center.
	select {
	case <-s.joined:
	case <-s.stop:
		return
	}
	t := time.NewTicker(s.cfg.StabilizationInterval)
	defer t.Stop()
	tick := 0
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		vv := s.vv.snapshot()
		s.gssMu.Lock()
		s.recomputeGSSLocked()
		s.gssMu.Unlock()
		out := msg.VVExchange{Partition: s.n, VV: vv}
		if s.cfg.LeanStabilization && tick%leanFullVVEvery != 0 {
			if w := s.stableWatermark(vv); w > 0 {
				out = msg.VVExchange{Partition: s.n, Watermark: w}
			}
		}
		tick++
		for p := 0; p < s.liveParts(); p++ {
			if p != s.n {
				s.ep.Send(netemu.NodeID{DC: s.m, Partition: p}, out)
			}
		}
	}
}

// leanFullVVEvery is the cadence of full-vector exchanges under lean
// stabilization: one full VV establishes/refreshes the per-entry baseline,
// then leanFullVVEvery-1 scalar watermark ticks ride on it.
const leanFullVVEvery = 16

// stableWatermark computes the scalar attestation a lean stabilization tick
// broadcasts: the minimum over the node's nonzero VV entries of member DCs.
// Zero entries (a member with no shipped data yet, typically a fresh joiner)
// are excluded — including them would pin the watermark at zero — which is
// safe because receivers never raise a zero entry from a watermark. Departed
// DCs are excluded so their frozen final timestamps do not pin the watermark
// in the past. Returns 0 when no entry qualifies; the caller then falls back
// to a full-vector exchange.
func (s *Server) stableWatermark(vv vclock.VC) vclock.Timestamp {
	view := s.repl.View()
	var w vclock.Timestamp
	for d, t := range vv {
		if t == 0 || !view.IsMember(d) {
			continue
		}
		if w == 0 || t < w {
			w = t
		}
	}
	return w
}

// GSSLag reports how far the globally-stable snapshot trails this node's own
// visibility: the largest per-member-DC gap between the VV and GSS entries,
// as a physical duration. It is the stable-visibility penalty a pessimistic
// read pays on top of replication, and the stabilization benchmark's third
// axis (bytes/version, remote visibility, GSS lag). Zero when stabilization
// is disabled.
func (s *Server) GSSLag() time.Duration {
	if s.cfg.StabilizationInterval <= 0 {
		return 0
	}
	view := s.repl.View()
	vv, gss := s.vv.snapshot(), s.gss.snapshot()
	var lag time.Duration
	for d := range vv {
		if !view.IsMember(d) {
			continue
		}
		if v, g := vv.Get(d).Physical(), gss.Get(d).Physical(); v > g {
			if l := time.Duration(v - g); l > lag {
				lag = l
			}
		}
	}
	return lag
}

// defaultGCMaxHoldback is how long a frozen or catching-up replication link
// defers garbage collection before being released (Config.GCMaxHoldback).
const defaultGCMaxHoldback = 10 * time.Second

// applyGCExchange records a peer's GC contribution; when contributions from
// every partition are known, prune with their aggregate minimum.
func (s *Server) applyGCExchange(m msg.GCExchange) {
	if m.Partition < 0 || m.Partition >= s.maxParts {
		return
	}
	s.gcMu.Lock()
	s.gcContrib[m.Partition] = m.TV
	gv := s.gcVectorLocked()
	s.gcMu.Unlock()
	if gv != nil {
		s.store.CollectGarbage(gv)
	}
}

// gcVectorLocked returns the DC-wide GC vector, or nil if some partition has
// not contributed yet. Called with gcMu held.
func (s *Server) gcVectorLocked() vclock.VC {
	s.gcContrib[s.n] = s.localGCContribution()
	live := s.gcContrib[:s.liveParts()]
	vs := make([]vclock.VC, 0, len(live))
	for _, c := range live {
		if c == nil {
			return nil
		}
		vs = append(vs, c)
	}
	return vclock.AggregateMin(vs)
}

// localGCContribution is the node's GC input: the minimum of its
// visibility vector (VV for optimistic deployments, GSS when stabilization
// runs) and the snapshot vectors of its active transactions. Taking the
// minimum (rather than the paper's "aggregate maximum" wording) is the
// conservative-safe choice: the GC vector never overtakes a snapshot an
// active transaction may still read.
func (s *Server) localGCContribution() vclock.VC {
	// The base snapshot is taken under txMu (see ROTx): a transaction not
	// yet in the in-flight table is guaranteed to compute a tv covering this
	// base.
	s.txMu.Lock()
	var base vclock.VC
	if s.cfg.StabilizationInterval > 0 {
		base = s.gss.snapshot()
	} else {
		base = s.vv.snapshot()
	}
	for _, p := range s.inflight {
		base.MinInPlace(p.tv)
	}
	s.txMu.Unlock()
	// Clamp to the replication plane's holdback floors: a frozen or
	// catching-up link must not have the history it still needs pruned out
	// from under its resume point (bounded by GCMaxHoldback).
	c := s.repl.ClampGC(base, s.gcMaxHoldback())
	// A contribution is a promise about this node's post-crash state: the
	// DC prunes to the aggregate of these vectors, so a restart must never
	// recover a VV below one — heartbeat-attested entries with no backing
	// version record would otherwise collapse to the last stored version
	// and hand out snapshot vectors under the prune point (see
	// Durable.AttestVV). Persist the vector before sharing it; if the log
	// is sticky-failed, contribute the last durable attestation instead.
	if s.durable != nil {
		c = s.durable.AttestVV(c)
	}
	return c
}

// gcMaxHoldback resolves Config.GCMaxHoldback: 0 selects the default,
// negative means hold back forever.
func (s *Server) gcMaxHoldback() time.Duration {
	if s.cfg.GCMaxHoldback == 0 {
		return defaultGCMaxHoldback
	}
	return s.cfg.GCMaxHoldback
}

// gcLoop periodically broadcasts this node's GC contribution and prunes with
// the DC-wide minimum when known.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.gcMu.Lock()
		contrib := s.localGCContribution()
		gv := s.gcVectorLocked()
		s.gcMu.Unlock()
		for p := 0; p < s.liveParts(); p++ {
			if p != s.n {
				s.ep.Send(netemu.NodeID{DC: s.m, Partition: p}, msg.GCExchange{Partition: s.n, TV: contrib})
			}
		}
		if gv != nil {
			s.store.CollectGarbage(gv)
		}
	}
}
