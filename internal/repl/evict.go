// Departure: the one round that removes a DC, graceful or forced.
//
// A proposer — the leaver itself (Leave), or a survivor for a crashed DC
// (ProposeEvict) — sends msg.EvictProposal to every active survivor, and
// each answers msg.EvictAck with its version-vector entry for the departing
// DC: a prefix-complete "I hold everything it originated through t" claim.
// Once every survivor has answered, the proposer marks the DC Left at the
// final in its view and broadcasts it, the verdict, as a
// msg.MembershipUpdate. Proposals are re-sent, each wait the plane's backoff
// (nextWait), until every awaited ack is in or the timeout elapses.
//
// The two differ only in who knows the final. A crashed DC cannot say: the
// survivors agree on the maximum attested entry, and an entry that rises
// past it by the verdict — a straggler the dead DC flushed before it died
// still arrives in sequence — raises it (applyView's seal). A leaver knows: it
// refuses writes, flushes its tail and proposes its last timestamp (Final >
// 0). A survivor short of it opens a catch-up round toward the leaver — the
// tail batch may have been lost, and no heartbeat follows to expose the hole
// — and the leaver counts only acks at or above the final, serving catch-up
// until the verdict. So a leave loses nothing unless the leaver crashes
// first, and then it is a forced removal.
//
// The verdict is reconciled at the merge (applyView), which no inbound raise
// interleaves with. A receiver whose entry is above the final (a straggler,
// or a DC that was not asked) raises it, seals there and sends the raised
// view to every member; finals merge by maximum.
// Versions above the final are dropped (Backend.DropAbove — replicated to
// nobody provably). A receiver below it gap-fills through catch-up rounds on
// the surviving links: every msg.CatchUpRequest carries the requester's
// version vector (Have), and the server also streams the departed-origin
// history it lacks up to the final, bounded by a claim in the Done chunk's
// Departed list — which is also how joiners get the history of DCs that left
// before them.
//
// Below the final the surviving history is provably prefix-complete at the
// survivor that attested or raised it. Above it nothing exists after a
// leave; after a forced removal the suffix lay above every survivor's entry
// at the verdict — a coordinator dying before it replicates, surfaced as a
// membership event, not divergence. A raised final lives in the survivors'
// views; a survivor restarted before its raised view reached anyone else (or
// its owner's record, see cluster.settleFinal) starts from the lower final
// and drops what lay above it.
// A survivor's entry for a departed DC is attested durably once it reaches
// the final (Backend.AttestEntry), logged after the versions it covers: a
// restart restores a remote entry only to its attestation, and no sibling's
// catch-up claim passes that sibling's own entry, which may be short.

package repl

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// departRound is one departure round in progress: the proposer waits for an
// EvictAck from every survivor in need. An eviction folds the acked entries
// into the agreed final; a leave's final is fixed, and an ack below it is
// not counted.
type departRound struct {
	dc    int
	reqID uint64
	need  map[int]bool
	final vclock.Timestamp
	done  chan struct{}
}

// ProposeEvict runs the departure round for a crashed DC: every active
// survivor is asked to attest its version-vector entry for the dead DC, and
// the agreed final is the maximum attestation — every version at or below
// it provably survives at the attesting survivor. On agreement the proposer
// adopts the verdict (reconciling its own state, applyView) and
// broadcasts it so the survivors do the same; a survivor whose entry rose
// past the final meanwhile raises the final, so the returned final is a
// floor for the one the views settle on. Evicting an already-departed DC
// returns its recorded final immediately. timeout <= 0 selects 5 s.
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
	return r.depart(dead, 0, timeout)
}

// depart runs the departure round for dc: a leave when dc is this node's own
// DC, with final its last timestamp, or an eviction, which passes final 0
// and agrees on the maximum attested entry, the proposer's own included (an
// entry that rises after its ack raises the final at the merge). It returns
// the final once the verdict is adopted and sent.
func (r *Manager) depart(dc int, final vclock.Timestamp, timeout time.Duration) (vclock.Timestamp, error) {
	if r.stopped.Load() {
		return 0, errors.New("repl: manager stopped")
	}
	if f, left := r.leftFinal(dc); left {
		return f, nil
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	// A leaver's view still marks it Active: a survivor that saw it Left
	// would retire the link and cancel the very round that fetches its tail.
	view := r.View()
	need := make(map[int]bool)
	for peer, s := range view.Status {
		if peer != r.m && peer != dc && s == msg.DCActive {
			need[peer] = true
		}
	}
	round := &departRound{
		dc: dc, reqID: r.reqSeq.Add(1), need: need,
		final: final, done: make(chan struct{}),
	}
	if dc != r.m {
		round.final = r.be.VVEntry(dc) // the proposer attests, as a survivor does
	}
	r.departMu.Lock()
	if r.departing != nil {
		r.departMu.Unlock()
		return 0, errors.New("repl: a departure round is already in progress")
	}
	r.departing = round
	r.departMu.Unlock()
	defer func() {
		r.departMu.Lock()
		if r.departing == round {
			r.departing = nil
		}
		r.departMu.Unlock()
	}()

	prop := msg.EvictProposal{DC: dc, ReqID: round.reqID, Final: final, View: view}
	awaited := func() []int {
		r.departMu.Lock()
		defer r.departMu.Unlock()
		return slices.Sorted(maps.Keys(round.need))
	}
	send := func() {
		for _, peer := range awaited() {
			r.ep.Send(netemu.NodeID{DC: peer, Partition: r.n}, prop)
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
				return 0, fmt.Errorf("repl: departure of DC %d timed out awaiting DCs %v", dc, awaited())
			case <-resend.C:
				send()
				backoff = r.nextWait(backoff)
				resend.Reset(backoff)
			}
		}
	}
	r.departMu.Lock()
	final = round.final
	r.departMu.Unlock()

	// Adopt the verdict and tell everyone still a member. The merge retires
	// a leaver (writes refused, fan-out emptied) or seals an evicted DC, and
	// the whole view travels with the verdict, so even a receiver that
	// missed the proposal converges in one hop.
	verdict := r.View()
	if verdict.Get(dc) != msg.DCLeft {
		verdict.Status[dc] = msg.DCLeft
		verdict.Epoch++
	}
	verdict.SetFinal(dc, final)
	r.applyView(verdict)
	r.sendView(r.View())
	return final, nil
}

// handleEvictProposal attests this node's version-vector entry for the
// departing DC and holds nothing there: a verdict below the entry, which a
// straggler may still lift, is raised at the merge (applyView). A leave's
// final is fixed; an entry short of it fetches the rest from the leaver: a
// round opens unless one is in flight, and one in flight that has gone quiet
// is asked again — the leaver sends no heartbeat that would.
func (r *Manager) handleEvictProposal(src netemu.NodeID, m msg.EvictProposal) {
	if !r.validSrc(src.DC) || m.DC < 0 || m.DC >= r.maxDCs {
		return
	}
	r.applyView(m.View)
	if m.DC == r.m {
		return // nobody attests their own eviction; the view to come is the verdict
	}
	_, left := r.leftFinal(m.DC)
	st := r.in[m.DC]
	st.mu.Lock()
	entry := r.be.VVEntry(m.DC)
	switch {
	case entry >= m.Final || left: // an eviction, attested, or nobody is left to ask
	case st.state != LinkCatchingUp:
		st.reqWait = r.reRequest
		r.startCatchUpLocked(st, m.DC)
	case time.Since(st.reqAt) > st.reqWait:
		st.reqWait = r.nextWait(st.reqWait)
		r.startCatchUpLocked(st, m.DC)
	}
	st.mu.Unlock()
	r.ep.Send(src, msg.EvictAck{DC: m.DC, ReqID: m.ReqID, Entry: entry})
}

// handleEvictAck folds one survivor's attestation into the round in
// progress; the last awaited ack completes it. An ack short of a leaver's
// final is not counted: the survivor stays awaited, and the next proposal
// finds its round toward the leaver done or re-asks it.
func (r *Manager) handleEvictAck(src netemu.NodeID, m msg.EvictAck) {
	if !r.validSrc(src.DC) {
		return
	}
	r.departMu.Lock()
	defer r.departMu.Unlock()
	round := r.departing
	if round == nil || round.dc != m.DC || round.reqID != m.ReqID || !round.need[src.DC] ||
		(round.dc == r.m && m.Entry < round.final) {
		return
	}
	if round.dc != r.m {
		round.final = max(round.final, m.Entry)
	}
	round.drop(src.DC)
}

// excuseFromDeparture stops the round this node is proposing, if any, from
// awaiting dc's ack: the DC departed while the round was open (its own
// verdict was still in flight when the proposals went out), so nobody is
// left to answer — and whatever it held of the departing DC's history left
// with it.
func (r *Manager) excuseFromDeparture(dc int) {
	r.departMu.Lock()
	if round := r.departing; round != nil && round.need[dc] {
		round.drop(dc)
	}
	r.departMu.Unlock()
}

// drop stops awaiting dc's ack; the last one awaited completes the round.
// Called with departMu held.
func (d *departRound) drop(dc int) {
	delete(d.need, dc)
	if len(d.need) == 0 {
		close(d.done)
	}
}
