// Membership: the view, the fan-out it drives, and joins.
//
// The manager owns an epoch-stamped membership view (msg.Membership): the
// per-DC statuses Joining → Active → Left, merged entry-wise as a lattice so
// concurrent view changes converge without coordination. The view drives the
// outbound fan-out — batches and heartbeats go to every Joining or Active
// remote DC, never to a departed one.
//
// A joining DC's servers start with Config.Joining set: each sends a
// msg.JoinRequest to its sibling partition in every active DC, which merges
// the joiner into its view (adding it to the fan-out) and answers with the
// merged view (msg.MembershipUpdate). Bootstrap then *is* the catch-up protocol: the first
// sequenced message on each inbound link either proves the sender has no
// prior history (adopt) or triggers a WAL-shipped catch-up round from
// timestamp zero. Once every active link is synced, the manager flips the
// DC to Active, broadcasts a msg.MembershipUpdate, and signals the backend
// (Joined) — the server only then enters the stabilization protocol, so a
// half-bootstrapped replica can never inject its partial state into the GSS.
//
// A DC leaves through evict.go's departure round, whose verdict marks it
// Left at its final. Merging it (applyView) retires the link (its pending
// catch-up round is cancelled: nobody is left to answer), seals at the final
// — raised to this node's entry when that is above, any hole below it filled
// from the survivors — and drops the DC from the fan-out; stabilization
// advances, as no dependency can exceed the final.

package repl

import (
	"time"

	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// View returns a copy of the current membership view.
func (r *Manager) View() msg.Membership {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.Clone()
}

// Bootstrapped reports whether this node participates fully in replication:
// true for ordinary members, and for a joiner once every active inbound
// link has been synced (catch-up complete) and the DC announced Active.
func (r *Manager) Bootstrapped() bool { return !r.joining.Load() }

// JoinFailed reports that the bootstrap was abandoned: Config.JoinTimeout
// elapsed before every active link synced. The manager has stopped
// soliciting; the owner should tear the node down.
func (r *Manager) JoinFailed() bool { return r.joinFailed.Load() }

// leftFinal reports whether dc has departed, and its recorded final.
func (r *Manager) leftFinal(dc int) (vclock.Timestamp, bool) {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.FinalOf(dc), r.view.Get(dc) == msg.DCLeft
}

// rebuildTargetsLocked recomputes the fan-out set — every remote Joining or
// Active DC — from the view. A departed or leaving (retired) node sends
// nothing and accepts no new writes (a write acked after its final would
// replicate to nobody). Called with viewMu held (or from the constructor
// before the manager is shared).
func (r *Manager) rebuildTargetsLocked() {
	if r.view.Get(r.m) == msg.DCLeft {
		r.retired.Store(true)
	}
	ts := make([]int, 0, len(r.view.Status))
	if !r.retired.Load() {
		for dc, st := range r.view.Status {
			if dc != r.m && (st == msg.DCActive || st == msg.DCJoining) {
				ts = append(ts, dc)
			}
		}
	}
	r.targets.Store(&ts)
}

// applyView merges v into the local view. On change it rebuilds the fan-out
// targets, retires the links of any DC the merge marked departed, and seals
// any DC that departed *in this merge*, all under sealMu: no inbound raise
// lands between the seal's entry read and its drop. An entry above the final
// (a straggler the dead DC flushed before it died) raises the final to it, a
// prefix this node holds whole, and the raised view goes to every member.
// Versions above the final, applied on a link with a hole, are dropped
// (Backend.DropAbove: replicated to nobody provably); an entry short of it
// starts gap-fill rounds on the surviving links (fillDepartedGaps), and an
// entry at the final is attested durably (attestDeparted). A final of 0
// leaves nothing to drop.
func (r *Manager) applyView(v msg.Membership) {
	r.sealMu.Lock()
	r.viewMu.Lock()
	prev := r.view.Clone()
	if !r.view.Merge(v, r.maxDCs) {
		r.viewMu.Unlock()
		r.sealMu.Unlock()
		return
	}
	r.rebuildTargetsLocked()
	var left, newly []int
	raised := false
	for dc, st := range r.view.Status {
		if st != msg.DCLeft || dc == r.m {
			continue
		}
		left = append(left, dc)
		if prev.Get(dc) != msg.DCLeft {
			newly = append(newly, dc)
			if e := r.be.VVEntry(dc); e > r.view.FinalOf(dc) {
				r.view.SetFinal(dc, e)
				raised = true
			}
		}
	}
	view := r.view.Clone()
	r.viewMu.Unlock()
	for _, dc := range left {
		r.retireLink(dc)
	}
	for _, dc := range newly {
		if f := view.FinalOf(dc); f > 0 {
			r.be.DropAbove(dc, f)
		}
	}
	r.sealMu.Unlock()
	for _, dc := range newly {
		r.attestDeparted(dc)
	}
	if raised {
		r.sendView(view)
	}
	if len(newly) > 0 {
		r.fillDepartedGaps()
	}
}

// attestDeparted attests this node's entry for departed dc once it holds
// the history through the final (see evict.go).
func (r *Manager) attestDeparted(dc int) {
	if f, left := r.leftFinal(dc); left && f > 0 && r.be.VVEntry(dc) >= f {
		r.be.AttestEntry(dc, f)
	}
}

// retireLink tears down the replication state owed to a departed DC: an
// inbound catch-up round pending on the link is cancelled (nobody is left
// to answer it), an outbound stream serving the DC is stopped, and a
// departure round stops awaiting its ack.
func (r *Manager) retireLink(dc int) {
	st := r.in[dc]
	st.mu.Lock()
	if st.state == LinkCatchingUp {
		// The round is cancelled; the link's state is not read again (its DC
		// is marked Left, which every handler and LinkStates check first).
		r.setStateLocked(st, LinkIdle)
	}
	st.mu.Unlock()
	r.serveMu.Lock()
	if s := r.serving[dc]; s != nil {
		close(s.cancel)
		delete(r.serving, dc)
	}
	r.serveMu.Unlock()
	r.holdMu.Lock()
	delete(r.holdbacks, dc)
	r.holdMu.Unlock()
	r.excuseFromDeparture(dc)
}

// sendView sends view to every other member as a msg.MembershipUpdate.
func (r *Manager) sendView(view msg.Membership) {
	for peer := range view.Status {
		if peer != r.m && view.IsMember(peer) {
			r.ep.Send(netemu.NodeID{DC: peer, Partition: r.n}, msg.MembershipUpdate{View: view})
		}
	}
}

// fillDepartedGaps starts a catch-up round on every quiet surviving link
// while some departed DC's recorded final exceeds this node's entry for it:
// the rounds carry this node's full version vector (Have), so any sibling
// holding the missing departed-origin history re-ships it and bounds the
// claim in its Done chunk. Re-invoked from the heartbeat loop until the gap
// closes — a single shot could race a survivor that has not yet learned of
// the departure and would answer without a claim — each link paced by its
// reqWait, which doubles per round (nextWait) up to the cap.
func (r *Manager) fillDepartedGaps() {
	r.viewMu.Lock()
	var gap bool
	for dc, st := range r.view.Status {
		if st == msg.DCLeft && dc != r.m {
			if f := r.view.FinalOf(dc); f > 0 && r.be.VVEntry(dc) < f {
				gap = true
				break
			}
		}
	}
	var live []int
	if gap {
		for dc, st := range r.view.Status {
			if dc != r.m && st == msg.DCActive {
				live = append(live, dc)
			}
		}
	}
	r.viewMu.Unlock()
	for _, dc := range live {
		st := r.in[dc]
		st.mu.Lock()
		if st.state != LinkCatchingUp && time.Since(st.reqAt) > st.reqWait {
			st.reqWait = r.nextWait(st.reqWait)
			r.startCatchUpLocked(st, dc)
		}
		st.mu.Unlock()
	}
}

// sendJoinRequests asks the sibling partition in every active DC to add
// this (joining) DC to its fan-out. Idempotent; re-sent until every link
// makes first contact, each wait the plane's backoff (nextWait) plus jitter,
// so a lost request cannot wedge the join and a wedged join cannot flood
// the deployment with solicitations.
func (r *Manager) sendJoinRequests() {
	r.viewMu.Lock()
	r.joinAskAt = time.Now()
	r.joinBackoff = r.nextWait(r.joinBackoff)
	view := r.view.Clone()
	r.viewMu.Unlock()
	for dc, st := range view.Status {
		if dc != r.m && st == msg.DCActive {
			r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n},
				msg.JoinRequest{DC: r.m, View: view})
		}
	}
}

// maybeFinishJoin completes the bootstrap when every active inbound link is
// synced: flip this DC to Active, broadcast the new view, and signal the
// backend. Called after every event that can sync a link. The completeness
// check and the flip run under viewMu so a concurrently-merged view (a DC
// learned mid-check) serializes with the decision: it is either examined
// here or arrives after the flip, when first-contact catch-up covers it
// like for any other active member.
func (r *Manager) maybeFinishJoin() {
	if !r.joining.Load() || r.joinFailed.Load() {
		return // an abandoned bootstrap must not announce itself Active
	}
	r.viewMu.Lock()
	for dc, st := range r.view.Status {
		if dc == r.m || st != msg.DCActive {
			continue
		}
		l := r.in[dc]
		l.mu.Lock()
		ok := l.state == LinkActive
		l.mu.Unlock()
		if !ok {
			r.viewMu.Unlock()
			return
		}
	}
	if !r.joining.CompareAndSwap(true, false) {
		r.viewMu.Unlock()
		return
	}
	// The lattice only moves forward: a concurrent forced removal (self
	// marked Left) must not be overwritten by the Active announcement.
	if r.view.Status[r.m] == msg.DCJoining {
		r.view.Status[r.m] = msg.DCActive
		r.view.Epoch++
	}
	r.rebuildTargetsLocked()
	view := r.view.Clone()
	r.viewMu.Unlock()
	for _, dc := range *r.targets.Load() {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, msg.MembershipUpdate{View: view})
	}
	r.be.Joined()
}

// Leave removes this node from the deployment through the departure round
// (evict.go). Under the outbound lock it hands the buffered tail to the
// links, refuses every later write and empties the fan-out, so nothing — no
// batch, no heartbeat, no acked write — postdates the final it proposes. It
// returns that final once every active survivor holds its history through
// it and the verdict is sent, serving their catch-up rounds meanwhile. On a
// timeout (<= 0 selects 5 s) the error names the survivors still short, the
// node stays retired and serving, and calling Leave again resumes.
func (r *Manager) Leave(timeout time.Duration) (vclock.Timestamp, error) {
	r.mu.Lock()
	r.flushLocked()
	r.retired.Store(true)
	final := r.lastTS
	r.viewMu.Lock()
	r.rebuildTargetsLocked() // retired: the fan-out empties
	r.viewMu.Unlock()
	r.mu.Unlock()
	return r.depart(r.m, final, timeout)
}

// handleJoinRequest merges the joiner into the view — adding it to the
// fan-out, so the live stream starts flowing — and answers with the merged
// view (the joiner may learn of DCs that joined or left before it arrived).
// The joiner's history bootstrap is *not* served here: it rides the
// ordinary catch-up protocol, triggered by the joiner's first contact with
// this node's sequenced stream.
func (r *Manager) handleJoinRequest(src netemu.NodeID, m msg.JoinRequest) {
	r.applyView(m.View)
	r.ep.Send(src, msg.MembershipUpdate{View: r.View()})
}

// handleMembershipUpdate merges a view someone sent: a joiner announcing
// itself Active, the answer to a JoinRequest, or the verdict of a departure
// round (see evict.go). A verdict naming this node's own DC means the
// deployment declared *us* dead while we were merely unreachable: the merge
// retires this node (writes refused, fan-out emptied) — the data is safe on
// the survivors up to the final, and rejoining requires a fresh join.
func (r *Manager) handleMembershipUpdate(src netemu.NodeID, m msg.MembershipUpdate) {
	r.applyView(m.View)
	r.maybeFinishJoin() // a joiner no longer waits on a link the view retired
}
