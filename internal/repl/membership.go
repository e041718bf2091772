// Membership: the view, the fan-out it drives, joins and graceful leaves.
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
// A leaving DC calls Leave: under the outbound lock it flushes the buffered
// tail, then sends msg.LeaveNotice carrying its final timestamp on the same
// FIFO links — so by the time the notice arrives, the receiver holds every
// version the leaver originated — if the link is synced. Receivers raise
// the departed entry to Final on a synced link only, cancel catch-up rounds
// pending on the link (nobody is left to answer) and fill that hole from
// the survivors instead (sealDeparted), and drop the DC from the fan-out:
// stabilization keeps advancing on the survivors because no achievable
// dependency can exceed Final.

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

// statusOf returns the membership status of dc.
func (r *Manager) statusOf(dc int) uint8 {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.Get(dc)
}

// finalOf returns the recorded final timestamp of dc (0 = none known).
func (r *Manager) finalOf(dc int) vclock.Timestamp {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.FinalOf(dc)
}

// leftFinal reports whether dc has departed, and its recorded final.
func (r *Manager) leftFinal(dc int) (vclock.Timestamp, bool) {
	r.viewMu.Lock()
	defer r.viewMu.Unlock()
	return r.view.FinalOf(dc), r.view.Get(dc) == msg.DCLeft
}

// setFinal records the final timestamp of a departed DC in the membership
// lattice (entries only ever rise), so it travels with every view this node
// relays and survives restarts that seed from a sibling's view.
func (r *Manager) setFinal(dc int, final vclock.Timestamp) {
	if dc < 0 || dc >= r.maxDCs || final == 0 {
		return
	}
	r.viewMu.Lock()
	r.view.SetFinal(dc, final)
	r.viewMu.Unlock()
}

// rebuildTargetsLocked recomputes the fan-out set — every remote Joining or
// Active DC — from the view. A departed node sends nothing and accepts no
// new writes (a write acked after the departure would replicate to nobody).
// Called with viewMu held (or from the constructor before the manager is
// shared).
func (r *Manager) rebuildTargetsLocked() {
	ts := make([]int, 0, len(r.view.Status))
	if r.view.Get(r.m) != msg.DCLeft {
		for dc, st := range r.view.Status {
			if dc != r.m && (st == msg.DCActive || st == msg.DCJoining) {
				ts = append(ts, dc)
			}
		}
	} else {
		r.retired.Store(true)
	}
	r.targets.Store(&ts)
}

// applyView merges v into the local view. On change it rebuilds the fan-out
// targets, retires the links of any DC the merge marked departed, and seals
// any DC that departed *in this merge* — reconciling storage and the
// version vector against its recorded final timestamp.
func (r *Manager) applyView(v msg.Membership) {
	r.viewMu.Lock()
	was := r.view.Status
	prev := make([]uint8, len(was))
	copy(prev, was)
	if !r.view.Merge(v, r.maxDCs) {
		r.viewMu.Unlock()
		return
	}
	r.rebuildTargetsLocked()
	var left, newly []int
	var finals []vclock.Timestamp
	for dc, st := range r.view.Status {
		if st != msg.DCLeft || dc == r.m {
			continue
		}
		left = append(left, dc)
		if dc >= len(prev) || prev[dc] != msg.DCLeft {
			newly = append(newly, dc)
			finals = append(finals, r.view.FinalOf(dc))
		}
	}
	r.viewMu.Unlock()
	for _, dc := range left {
		r.retireLink(dc)
	}
	for i, dc := range newly {
		r.sealDeparted(dc, finals[i])
	}
}

// retireLink tears down the replication state owed to a departed DC: an
// inbound catch-up round pending on the link is cancelled (nobody is left
// to answer it), an outbound stream serving the DC is stopped, and an
// eviction round stops awaiting its ack.
func (r *Manager) retireLink(dc int) {
	st := r.in[dc]
	st.mu.Lock()
	if st.state == LinkCatchingUp {
		// The round is cancelled; the link's state is not read again (its DC
		// is marked Left, which every handler and LinkStates check first).
		r.setStateLocked(st, LinkIdle)
	}
	st.evictCap = 0 // the verdict is in; the Left status caps from here on
	st.mu.Unlock()
	r.serveMu.Lock()
	if s := r.serving[dc]; s != nil {
		close(s.cancel)
		delete(r.serving, dc)
	}
	r.serveMu.Unlock()
	r.holdMu.Lock()
	delete(r.holdbacks, dc)
	delete(r.joinSeen, dc)
	r.holdMu.Unlock()
	r.excuseFromEvict(dc)
}

// sealDeparted reconciles this node against a DC that just transitioned to
// Left with the recorded final timestamp: versions beyond the final — the
// dead DC's un-agreed suffix, applied optimistically before the eviction
// was decided — are dropped from storage, and if this node's prefix is
// still short of the final, gap-fill catch-up rounds are started on the
// surviving links (every live sibling re-ships departed-origin history it
// holds, see serveCatchUp). With no recorded final (a legacy graceful leave
// whose notice carried it out of band) there is nothing to reconcile
// against, so only the link teardown in applyView applies.
func (r *Manager) sealDeparted(dc int, final vclock.Timestamp) {
	if final == 0 {
		return
	}
	r.be.DropAbove(dc, final)
	if r.be.VVEntry(dc) < final {
		r.fillDepartedGaps()
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

// Leave announces this node's departure: the buffered tail is flushed and a
// LeaveNotice carrying the final timestamp follows it on the same FIFO
// links, so every receiver holds the leaver's complete history when the
// notice arrives. The notice is this node's last word — the fan-out is
// emptied and new writes are refused under the same critical section, so
// nothing (no batch, no heartbeat, no acked-but-unreplicated write) can
// postdate it. It returns the announced final timestamp.
func (r *Manager) Leave() vclock.Timestamp {
	r.viewMu.Lock()
	if r.view.Status[r.m] != msg.DCLeft {
		r.view.Status[r.m] = msg.DCLeft
		r.view.Epoch++
	}
	view := r.view.Clone()
	// Targets are not rebuilt yet: the final flush and the notice itself
	// still ride the existing links.
	r.viewMu.Unlock()
	r.mu.Lock()
	r.flushLocked()
	final := r.lastTS
	for _, dc := range *r.targets.Load() {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n},
			msg.LeaveNotice{DC: r.m, Final: final, View: view})
	}
	// Retire while still holding the outbound lock: the heartbeat loop and
	// Publish both serialize on it, so the first thing either sees after
	// the notice is an empty fan-out and a refused write path.
	empty := make([]int, 0)
	r.targets.Store(&empty)
	r.retired.Store(true)
	r.mu.Unlock()
	return final
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
// itself Active, the answer to a JoinRequest, or the verdict of a forced
// removal (see evict.go). A verdict naming this node's own DC means the
// deployment declared *us* dead while we were merely unreachable: the merge
// retires this node (writes refused, fan-out emptied) — the data is safe on
// the survivors up to the final, and rejoining requires a fresh join.
func (r *Manager) handleMembershipUpdate(src netemu.NodeID, m msg.MembershipUpdate) {
	r.applyView(m.View)
	r.maybeFinishJoin() // a joiner no longer waits on a link the view retired
}

// handleLeaveNotice retires a departed DC: on a synced link the
// version-vector entry is raised to the leaver's final timestamp — complete
// by FIFO order, since the notice follows the leaver's last flush on the
// same link — the final is recorded in the membership lattice (so later
// joiners and restarted survivors inherit the cap), and the view merge
// drops the DC from the fan-out and cancels catch-up state on the link. The
// raise runs first so the departure seal sees a closed gap and skips the
// gap-fill rounds. A link that is catching up, or never made contact, has
// a hole below the final: the entry stays, the round toward the leaver is
// cancelled, and the seal's gap-fill rounds fetch the rest from survivors.
func (r *Manager) handleLeaveNotice(src netemu.NodeID, m msg.LeaveNotice) {
	if m.DC == src.DC && r.validSrc(src.DC) {
		st := r.in[src.DC]
		st.mu.Lock()
		if st.state == LinkActive {
			r.be.RaiseVV(src.DC, m.Final)
		}
		st.mu.Unlock()
	}
	r.setFinal(m.DC, m.Final)
	r.applyView(m.View)
	r.maybeFinishJoin() // a joiner no longer waits on the departed link
}
