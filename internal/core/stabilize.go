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
func (s *Server) applyVVExchange(m msg.VVExchange) {
	if m.Partition < 0 || m.Partition >= s.maxParts {
		return
	}
	s.gssMu.Lock()
	// Copy rather than alias: the sender broadcasts one VV slice to every
	// same-DC peer, and recomputeGSSLocked reloads this node's own VV into
	// peerVV[s.n] in place — a message naming the receiver's own partition
	// would otherwise write into a slice the other receivers share.
	s.peerVV[m.Partition] = s.peerVV[m.Partition].CopyFrom(m.VV)
	s.recomputeGSSLocked()
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
		for p := 0; p < s.liveParts(); p++ {
			if p != s.n {
				s.ep.Send(netemu.NodeID{DC: s.m, Partition: p}, out)
			}
		}
	}
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
	c := s.repl.ClampGC(base)
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
