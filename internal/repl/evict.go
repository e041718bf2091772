// Forced removal: the coordination round that evicts a crashed DC.
//
// A crashed DC never sends a LeaveNotice, so the survivors' GSS freezes at
// its last heartbeat and stays there. ProposeEvict runs the coordination
// round that unblocks them: the proposer broadcasts msg.EvictProposal to
// every active survivor, each answers msg.EvictAck carrying its
// version-vector entry for the dead DC — a prefix-complete "I hold
// everything it originated through t" claim — and the agreed final is the
// maximum of those entries. The proposer freezes the view (Status Left,
// Final recorded in the membership lattice) and broadcasts the view, the
// verdict, as a msg.MembershipUpdate.
//
// Unlike a graceful leave's notice, the verdict does not ride the departed
// DC's own FIFO links, so a receiver may hold versions *beyond* the final
// (applied optimistically from the dead DC's last, un-agreed flush) or may be
// *behind* it. Both sides are reconciled at the merge: versions above the
// final are dropped from storage (Backend.DropAbove — they were replicated
// to nobody provably, so keeping them is unreplicatable divergence), and a
// receiver below the final gap-fills through ordinary catch-up rounds on
// the surviving links. Every msg.CatchUpRequest carries the requester's
// full version vector (Have), and the server streams — besides its own
// history — every departed-origin version the requester lacks up to the
// agreed final, bounding each claim in the Done chunk's Departed list. The
// same mechanism re-ships a departed DC's history to joiners that arrive
// after it left.
//
// The consistency argument is the leave argument with the attested maximum
// substituted for the announced final: below the agreed final the surviving
// history is provably prefix-complete, above it the suffix existed only on
// the dead machine — the same loss a client sees when its coordinator dies
// before replicating, surfaced as a membership event instead of silent
// divergence.

package repl

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// evictRound is one forced-removal coordination round in progress: the
// proposer waits for an EvictAck from every survivor in need, folding the
// acked version-vector entries into the agreed final.
type evictRound struct {
	dc    int
	reqID uint64
	need  map[int]bool
	final vclock.Timestamp
	done  chan struct{}
}

// ProposeEvict runs the forced-removal round for a crashed DC: every active
// survivor is asked to attest its version-vector entry for the dead DC (a
// prefix-complete "I hold everything it originated through t" claim), and
// the agreed final is the maximum attestation — every version at or below
// it provably survives at the attesting survivor, and everything above it
// was acknowledged by nobody. On agreement the proposer freezes the view
// (Status Left, final recorded in the lattice), reconciles its own state
// (sealDeparted), and broadcasts the view (msg.MembershipUpdate) so the
// survivors do the same. Proposals are re-sent, each wait the plane's
// backoff (nextWait), until every ack arrives or the timeout elapses;
// evicting an already-departed DC returns its recorded final immediately.
//
// Only one round may run per manager at a time. Concurrent proposers (split
// views) are safe: finals merge by maximum in the membership lattice and
// any survivor left short of the winning final gap-fills through catch-up.
func (r *Manager) ProposeEvict(dead int, timeout time.Duration) (vclock.Timestamp, error) {
	if dead < 0 || dead >= r.maxDCs {
		return 0, fmt.Errorf("repl: evict target %d outside DC capacity %d", dead, r.maxDCs)
	}
	if dead == r.m {
		return 0, errors.New("repl: a DC cannot propose its own eviction")
	}
	if r.stopped.Load() {
		return 0, errors.New("repl: manager stopped")
	}
	if final, left := r.leftFinal(dead); left {
		return final, nil
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}

	// Freeze and attest the proposer's own entry first, exactly like an
	// acking survivor: the agreed final must not fall below an entry any
	// participant keeps raising during the round.
	st := r.in[dead]
	st.mu.Lock()
	entry := r.be.VVEntry(dead)
	st.evictCap = entry
	st.evictCapUntil = time.Now().Add(evictFreezeGrace)
	st.mu.Unlock()

	r.viewMu.Lock()
	view := r.view.Clone()
	r.viewMu.Unlock()
	need := make(map[int]bool)
	for dc, s := range view.Status {
		if dc != r.m && dc != dead && s == msg.DCActive {
			need[dc] = true
		}
	}
	round := &evictRound{
		dc: dead, reqID: r.reqSeq.Add(1), need: need,
		final: entry, done: make(chan struct{}),
	}
	r.evictMu.Lock()
	if r.evict != nil {
		r.evictMu.Unlock()
		return 0, errors.New("repl: an eviction round is already in progress")
	}
	r.evict = round
	r.evictMu.Unlock()
	defer func() {
		r.evictMu.Lock()
		if r.evict == round {
			r.evict = nil
		}
		r.evictMu.Unlock()
	}()

	prop := msg.EvictProposal{DC: dead, ReqID: round.reqID, View: view}
	send := func() {
		r.evictMu.Lock()
		targets := make([]int, 0, len(round.need))
		for dc := range round.need {
			targets = append(targets, dc)
		}
		r.evictMu.Unlock()
		for _, dc := range targets {
			r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, prop)
		}
	}
	if len(need) > 0 {
		send()
		deadline := time.NewTimer(timeout)
		defer deadline.Stop()
		backoff := r.reRequest
		resend := time.NewTimer(backoff)
		defer resend.Stop()
	wait:
		for {
			select {
			case <-round.done:
				break wait
			case <-r.stop:
				return 0, errors.New("repl: manager stopped")
			case <-deadline.C:
				return 0, fmt.Errorf("repl: eviction of DC %d timed out awaiting survivor acks", dead)
			case <-resend.C:
				send()
				backoff = r.nextWait(backoff)
				resend.Reset(backoff)
			}
		}
	}
	r.evictMu.Lock()
	final := round.final
	r.evictMu.Unlock()

	// Adopt the verdict and tell everyone. The broadcast rides the rebuilt
	// fan-out (survivors and joiners; the dead DC is out of it), and the
	// lattice-merged view travels with it so even a receiver that missed
	// the proposal converges in one hop.
	r.viewMu.Lock()
	if r.view.Get(dead) != msg.DCLeft {
		r.view.Status[dead] = msg.DCLeft
		r.view.Epoch++
	}
	r.view.SetFinal(dead, final)
	r.rebuildTargetsLocked()
	view = r.view.Clone()
	r.viewMu.Unlock()
	r.retireLink(dead)
	r.sealDeparted(dead, final)
	verdict := msg.MembershipUpdate{View: view}
	for _, dc := range *r.targets.Load() {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, verdict)
	}
	return final, nil
}

// handleEvictProposal attests this node's version-vector entry for the DC
// under eviction and freezes it there until the verdict (or the freeze
// grace) — between the ack and the verdict a gap-free straggler must not
// push the entry past what was attested, or the agreed final could cut
// below an already-claimed prefix.
func (r *Manager) handleEvictProposal(src netemu.NodeID, m msg.EvictProposal) {
	if !r.validSrc(src.DC) || m.DC < 0 || m.DC >= r.maxDCs {
		return
	}
	r.applyView(m.View)
	if m.DC == r.m {
		return // nobody attests their own eviction; the view to come is the verdict
	}
	st := r.in[m.DC]
	st.mu.Lock()
	entry := r.be.VVEntry(m.DC)
	st.evictCap = entry
	st.evictCapUntil = time.Now().Add(evictFreezeGrace)
	st.mu.Unlock()
	r.ep.Send(src, msg.EvictAck{DC: m.DC, ReqID: m.ReqID, Entry: entry})
}

// handleEvictAck folds one survivor's attestation into the round in
// progress; the last awaited ack completes it.
func (r *Manager) handleEvictAck(src netemu.NodeID, m msg.EvictAck) {
	if !r.validSrc(src.DC) {
		return
	}
	r.evictMu.Lock()
	round := r.evict
	if round == nil || round.dc != m.DC || round.reqID != m.ReqID || !round.need[src.DC] {
		r.evictMu.Unlock()
		return
	}
	delete(round.need, src.DC)
	if m.Entry > round.final {
		round.final = m.Entry
	}
	if len(round.need) == 0 {
		close(round.done)
	}
	r.evictMu.Unlock()
}

// excuseFromEvict stops the round this node is proposing, if any, from
// awaiting dc's ack: the DC departed while the round was open (its leave
// notice was still in flight when the proposals went out), so nobody is left
// to answer — and whatever it held of the dead DC's history left with it.
func (r *Manager) excuseFromEvict(dc int) {
	r.evictMu.Lock()
	if round := r.evict; round != nil && round.need[dc] {
		delete(round.need, dc)
		if len(round.need) == 0 {
			close(round.done)
		}
	}
	r.evictMu.Unlock()
}
