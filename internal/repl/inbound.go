// Inbound links: sequenced apply, gap detection and the catch-up client.
//
// # The link state machine
//
// One inLink per source DC. The stored states are LinkIdle, LinkActive and
// LinkCatchingUp, written only by setStateLocked; LinkStates derives
// LinkFrozen (catching up and quiet > 2 × re-request) and, from the view,
// LinkEvicted and LinkSelf. "Raise" is the version-vector advance for the
// link's DC. TestLinkTransitions drives every row.
//
//	| state | event | next | what happens |
//	|---|---|---|---|
//	| Idle | first message, nothing precedes it (base == 0) and floor ≤ VV[dc] | Active | adopt (epoch, seq), raise |
//	| Idle | any other first message | CatchingUp | reset reqWait, open round, start chain |
//	| Active | next batch (seq+1) or re-attesting heartbeat (seq) | Active | raise |
//	| Active | duplicate (seq ≤ cursor) | Active | nothing |
//	| Active | hole, or new epoch | CatchingUp | reset reqWait, open round, start chain |
//	| Idle, Active | a departed DC's final exceeds VV and the link has been quiet > reqWait | CatchingUp | open round (Have carries the gap), double reqWait |
//	| Idle, Active | the DC's leave proposal carries a final above VV | CatchingUp | reset reqWait, open round |
//	| CatchingUp | sequenced message | CatchingUp | extend or restart chain; if quiet > reqWait, re-request and double reqWait |
//	| CatchingUp | the DC's leave proposal, quiet > reqWait | CatchingUp | re-request, double reqWait |
//	| CatchingUp | chunk of the live round | CatchingUp | apply, ack, refresh the quiet clock, count it if contiguous |
//	| CatchingUp | Done of the live round, a chunk missing | CatchingUp | open the next round (nothing raised) |
//	| CatchingUp | Done of the live round; no chain, or the chain connects | Active | raise Through (+ chain tip) |
//	| CatchingUp | Done of the live round; a hole remains | CatchingUp | raise Through, open the next round |
//	| any | chunk or Done of a stale round | same | versions applied, nothing else |
//	| CatchingUp | the DC is marked Left | Idle | round cancelled; versions past the final dropped |
//	| Idle, Active | the DC is marked Left at a final below VV, once an install and raise in flight finish | same | final raised to VV and sealed there; the view goes to every member |
//	| Active, the DC Left | next batch or re-attesting heartbeat | Active | raise (capped at the final) |
//	| any other, the DC Left | sequenced message | same | nothing: gap-fill rounds on the survivors close the hole |
//
// # Sequenced streams
//
// Every flushed batch (msg.ReplicateBatch) carries the sender's incarnation
// epoch and a monotone sequence number; heartbeats re-attest the current
// sequence. Because a flush goes to every sibling DC, each link observes
// the same gap-free sequence 1, 2, 3, …, so a receiver can verify — before
// advancing its version vector, which asserts "I hold every version from
// this DC up to t" — that it did not miss a batch. A hole in the sequence,
// or a new epoch (the sender restarted and its in-memory buffer tail died
// with it), freezes the link's VV advancement and triggers catch-up. Every
// manager holds every inbound message to this rule, whatever its storage
// engine; on the lossless FIFO links Algorithm 2 assumes, the check is
// silent.
//
// serve.go answers the round a frozen link opens, and argues the protocol.

package repl

import (
	"slices"
	"sync"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// LinkState is the health of one inbound replication link. The values are
// ordered by severity, so the worst state several servers report for a link
// is their max.
type LinkState uint8

const (
	LinkSelf       LinkState = iota // this node's own slot
	LinkActive                      // synced
	LinkIdle                        // never made contact (unknown or unused capacity)
	LinkCatchingUp                  // a recovery round is making progress
	LinkFrozen                      // a pending round has gone quiet: the sender is not answering
	LinkEvicted                     // the DC has departed (graceful or forced)
)

var linkStateNames = [...]string{"self", "active", "idle", "catching-up", "frozen", "evicted"}

func (s LinkState) String() string { return linkStateNames[s] }

// LinkStates reports the health of every inbound replication link, indexed
// by source DC.
func (r *Manager) LinkStates() []LinkState {
	r.viewMu.Lock()
	status := make([]uint8, r.maxDCs)
	copy(status, r.view.Status)
	r.viewMu.Unlock()
	out := make([]LinkState, r.maxDCs)
	for dc := 0; dc < r.maxDCs; dc++ {
		switch {
		case dc == r.m:
			out[dc] = LinkSelf
			continue
		case status[dc] == msg.DCLeft:
			out[dc] = LinkEvicted
			continue
		}
		st := r.in[dc]
		st.mu.Lock()
		out[dc] = st.state
		if st.state == LinkCatchingUp && time.Since(st.reqAt) > 2*r.reRequest {
			out[dc] = LinkFrozen // a property of elapsed time, not a transition
		}
		st.mu.Unlock()
	}
	return out
}

// inLink is the receiver-side state of one inbound replication link,
// identified by the source DC (the sibling partition is fixed). Messages on
// a link are handled by one goroutine at a time in the common case, but TCP
// reconnects can briefly run two, so the state is locked.
type inLink struct {
	mu sync.Mutex
	// state is LinkIdle until first contact, LinkActive while the link is
	// synced to (epoch, seq), LinkCatchingUp while a catch-up round is in
	// flight. Written only by setStateLocked.
	state LinkState
	epoch uint64 // sender incarnation the link is synced to
	seq   uint64 // last batch sequence applied in order

	// Catch-up round state. While the link is catching up, arriving versions
	// are installed but the VV entry is frozen; chain* tracks the contiguous
	// run of sequenced messages seen during the round so it can be spliced
	// onto the resume point when Done arrives. nextChunk counts reqID's
	// chunks in order: a Done it does not match proves one went missing.
	reqID      uint64
	reqAt      time.Time
	reqWait    time.Duration // quiet allowed before the next re-ask (nextWait)
	nextChunk  uint64
	chainSet   bool
	chainEpoch uint64
	chainBase  uint64 // sequence immediately before the chain's first batch
	chainSeq   uint64
	chainTS    vclock.Timestamp
}

// cursor is a position in a sender's sequenced stream. A link keeps two — the
// one it is synced to (epoch, seq) and, during a catch-up round, the tip of the
// chain observed meanwhile (chainEpoch, chainSeq) — and both place an arriving
// message by the same rule.
type cursor struct{ epoch, seq uint64 }

// seqClass is where a sequenced message falls relative to a cursor.
type seqClass uint8

const (
	seqNext      seqClass = iota // the batch right after the cursor
	seqReattest                  // a heartbeat at the cursor
	seqDuplicate                 // at or behind the cursor: already accounted for
	seqBreak                     // a hole, or another incarnation
)

// classify places a message: a batch consumes the next sequence number, a
// heartbeat re-attests the current one.
func (c cursor) classify(epoch, seq uint64, isBatch bool) seqClass {
	switch {
	case epoch != c.epoch:
		return seqBreak
	case isBatch && seq == c.seq+1:
		return seqNext
	case !isBatch && seq == c.seq:
		return seqReattest
	case seq <= c.seq:
		return seqDuplicate
	}
	return seqBreak
}

// seqBase is the sequence immediately before a message's own.
func seqBase(seq uint64, isBatch bool) uint64 {
	if isBatch {
		return seq - 1
	}
	return seq
}

// handleBatch installs a replicated batch and advances the sender DC's
// version-vector entry when the link's sequence is intact. Versions are
// always installed on arrival, on a catching-up link too — POCC serves the
// freshest received version regardless — only the VV advance (the claim "I
// hold the complete prefix") is gated. The batch is applied before
// handleSequenced records it in a round's chain, so a Done that raises
// through the chain tip raises over versions already installed.
//
// A batch holding a nil version (the wire carries nil markers in a version
// list) is dropped before anything reads it: its sequence number becomes a
// hole that catch-up repairs, as it does a lost batch.
func (r *Manager) handleBatch(src netemu.NodeID, m *msg.ReplicateBatch) {
	if !r.validSrc(src.DC) || slices.Contains(m.Versions, nil) {
		return
	}
	adv := m.HBTime
	if n := len(m.Versions); n > 0 {
		if last := m.Versions[n-1].UpdateTime; last > adv {
			adv = last
		}
	}
	// HLC receive rule: fold the remote attestation into the local clock so
	// the next local write is stamped past everything it could depend on.
	r.clk.Observe(adv)
	r.handleSequenced(src.DC, m.Epoch, m.Seq, m.Floor, adv, m)
}

// handleHeartbeat advances the sender DC's version-vector entry
// (Algorithm 2, lines 27-28), gated on the link sequence like a batch: a
// heartbeat re-attests the sender's current sequence, which is exactly how
// an idle restarted sender (whose buffered tail died with it) is detected.
func (r *Manager) handleHeartbeat(src netemu.NodeID, m *msg.Heartbeat) {
	if !r.validSrc(src.DC) {
		return
	}
	r.clk.Observe(m.Time)
	r.handleSequenced(src.DC, m.Epoch, m.Seq, m.Floor, m.Time, nil)
}

// validSrc reports whether dc is a plausible remote source this node can
// track — inbound state is indexed by DC id, so an id outside the vector
// capacity (a corrupted or hostile frame) must be dropped, not indexed.
func (r *Manager) validSrc(dc int) bool {
	return dc >= 0 && dc < r.maxDCs && dc != r.m
}

// filterDeparted screens an inbound version slice: once a DC has departed
// with an agreed final, versions it originated beyond the final are its
// un-agreed suffix — installing a straggler would resurrect state the
// forced removal already purged. The shared slice is never mutated (one
// flush fans the same message out to every sibling); a filtered copy is
// built only when something must be dropped.
func (r *Manager) filterDeparted(vs []*item.Version) []*item.Version {
	if len(vs) == 0 {
		return vs
	}
	r.viewMu.Lock()
	var status []uint8
	var finals vclock.VC
	for _, st := range r.view.Status {
		if st == msg.DCLeft {
			status = append([]uint8(nil), r.view.Status...)
			finals = r.view.Final.Clone()
			break
		}
	}
	r.viewMu.Unlock()
	if status == nil {
		return vs // nobody has departed: the common case, zero extra work
	}
	drop := func(v *item.Version) bool {
		d := v.SrcReplica
		return d >= 0 && d < len(status) && status[d] == msg.DCLeft &&
			finals.Get(d) > 0 && v.UpdateTime > finals.Get(d)
	}
	for i, v := range vs {
		if drop(v) {
			out := make([]*item.Version, i, len(vs))
			copy(out, vs[:i])
			for _, w := range vs[i+1:] {
				if !drop(w) {
					out = append(out, w)
				}
			}
			return out
		}
	}
	return vs
}

// handleSequenced runs the receiver state machine for one sequenced message
// on the link from dc: b, a batch, whose versions it installs first and
// which consumes the next sequence number, or nil for a heartbeat, which
// re-attests the current one. adv is the VV advance the message carries
// when the sequence is intact; floor is the sender incarnation's starting
// history floor. It holds sealMu shared: a departure merged meanwhile seals
// at the entry it leaves.
func (r *Manager) handleSequenced(dc int, epoch, seq uint64, floor, adv vclock.Timestamp, b *msg.ReplicateBatch) {
	isBatch := b != nil
	r.sealMu.RLock()
	defer r.sealMu.RUnlock()
	if isBatch {
		r.be.ApplyRemote(r.filterDeparted(b.Versions), b.SlotEpoch)
	}
	// A straggler from a departed DC (in flight when the verdict overtook
	// it): after a graceful leave nothing it attests can exceed the final
	// every survivor attested, and after a forced removal anything beyond
	// the final is the dead DC's un-agreed suffix — never attested, so the
	// advance is capped there.
	final, left := r.leftFinal(dc)
	if left && final > 0 && adv > final {
		adv = final
	}
	st := r.in[dc]
	var raise vclock.Timestamp
	st.mu.Lock()
	at := cursor{st.epoch, st.seq}.classify(epoch, seq, isBatch)
	switch {
	case left && (st.state != LinkActive || at == seqBreak):
		// A departed DC's entry rises only on a synced link, in sequence. No
		// round may start toward a DC that no longer answers: the seal's
		// gap-fill rounds on the surviving links close the hole.
	case st.state == LinkCatchingUp:
		// Catch-up in flight: track the chain for the splice at Done, and
		// re-issue the request once the round is quiet for reqWait (a lost
		// request, or a sender that restarted, must not freeze the link).
		// Each re-ask cancels the serve in progress, so the wait doubles: a
		// slow sender is superseded a few times, not forever.
		r.noteChainLocked(st, epoch, seq, adv, isBatch)
		if time.Since(st.reqAt) > st.reqWait {
			st.reqWait = r.nextWait(st.reqWait)
			r.startCatchUpLocked(st, dc)
		}
	case st.state == LinkIdle:
		if seqBase(seq, isBatch) == 0 && floor <= r.be.VVEntry(dc) {
			// Nothing precedes this message in the sender's incarnation
			// (batch 1, or an idle heartbeat before any flush) and this
			// node's progress covers the incarnation's starting floor, so
			// the sender's entire past is already here: adopt the stream.
			r.setStateLocked(st, LinkActive)
			st.epoch, st.seq = epoch, seq
			raise = adv
		} else {
			// The link has history this node never saw — it is the one that
			// restarted (or came up late). Resync from the recovered floor.
			st.reqWait = r.reRequest
			r.startCatchUpLocked(st, dc)
			r.noteChainLocked(st, epoch, seq, adv, isBatch)
		}
	case at == seqNext:
		st.seq = seq
		raise = adv
	case at == seqReattest:
		raise = adv
	case at == seqDuplicate:
		// Duplicate delivery (at-least-once transports); already applied.
	default:
		// A sequence hole, or a new sender incarnation whose pre-crash
		// buffer tail is gone: freeze the VV entry and fetch the missing
		// history out of the sender's log.
		st.reqWait = r.reRequest
		r.startCatchUpLocked(st, dc)
		r.noteChainLocked(st, epoch, seq, adv, isBatch)
	}
	if raise > 0 {
		r.be.RaiseVV(dc, raise)
	}
	st.mu.Unlock()
	if left && raise > 0 {
		r.attestDeparted(dc)
	}
	r.maybeFinishJoin() // a first-contact adoption may have been the last link
}

// haveVV snapshots this node's full version vector — the Have field of a
// catch-up request, which tells the server what departed-origin history the
// requester is missing besides the link's own range.
func (r *Manager) haveVV() vclock.VC {
	have := make(vclock.VC, r.maxDCs)
	for i := range have {
		have[i] = r.be.VVEntry(i)
	}
	return have
}

// setStateLocked moves the link to state s: the only writer of inLink.state
// and the only place activeIn — the count of links catching up — moves.
// Called with st.mu held.
func (r *Manager) setStateLocked(st *inLink, s LinkState) {
	if st.state == s {
		return
	}
	if s == LinkCatchingUp {
		r.activeIn.Add(1)
	} else if st.state == LinkCatchingUp {
		r.activeIn.Add(-1)
	}
	st.state = s
}

// startCatchUpLocked opens a new catch-up round on the link: freeze VV
// advancement, reset the observed chain, and ask the sender for everything
// after this node's completion point. Called with st.mu held.
func (r *Manager) startCatchUpLocked(st *inLink, dc int) {
	r.setStateLocked(st, LinkCatchingUp)
	st.chainSet = false
	st.reqID = r.reqSeq.Add(1)
	st.reqAt = time.Now()
	st.nextChunk = 1
	r.ctr.Requested.Add(1)
	have := r.haveVV()
	r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n},
		msg.CatchUpRequest{ReqID: st.reqID, From: have[dc], Have: have})
}

// noteChainLocked folds one sequenced message into the chain observed while
// a catch-up round is pending. The chain is the longest contiguous run of
// same-epoch messages ending at the newest one; on Done it either splices
// onto the resume point or proves another round is needed.
func (r *Manager) noteChainLocked(st *inLink, epoch, seq uint64, ts vclock.Timestamp, isBatch bool) {
	if st.chainSet {
		switch (cursor{st.chainEpoch, st.chainSeq}).classify(epoch, seq, isBatch) {
		case seqNext:
			st.chainSeq = seq
			fallthrough
		case seqReattest:
			if ts > st.chainTS {
				st.chainTS = ts
			}
			return
		case seqDuplicate:
			return
		}
	}
	// First message of the round, or a discontinuity: restart the chain here.
	st.chainSet = true
	st.chainEpoch = epoch
	st.chainBase = seqBase(seq, isBatch)
	st.chainSeq = seq
	st.chainTS = ts
}

// handleCatchUpReply installs a catch-up chunk, acknowledges it (the
// sender's backpressure window), and on the final chunk completes the round:
// raise the VV through the streamed history, splice the chain of batches
// that arrived meanwhile, and either resume normal sequencing or start the
// next round from the new floor. A Done that counts a chunk this node never
// applied completes nothing and opens the next round from the same floor;
// a chunk holding a nil version is dropped unread and unacknowledged, as a
// lost chunk is, so that round repairs it.
func (r *Manager) handleCatchUpReply(src netemu.NodeID, m msg.CatchUpReply) {
	if !r.validSrc(src.DC) || slices.Contains(m.Versions, nil) {
		return
	}
	r.sealMu.RLock() // from the install through the claims, as handleSequenced
	defer r.sealMu.RUnlock()
	if len(m.Versions) > 0 {
		r.be.ApplyRemote(r.filterDeparted(m.Versions), m.SlotEpoch)
	}
	if !m.Done {
		r.ep.Send(src, msg.CatchUpAck{ReqID: m.ReqID, Chunk: m.Chunk})
		st := r.in[src.DC]
		st.mu.Lock()
		if st.state == LinkCatchingUp && st.reqID == m.ReqID {
			// A flowing stream is alive: refresh the re-request clock so a
			// long stream is not superseded mid-flight, and count the chunk
			// if it is the next one, for the completeness check at Done.
			st.reqAt = time.Now()
			if m.Chunk == st.nextChunk {
				st.nextChunk++
			}
		}
		st.mu.Unlock()
		return
	}
	r.clk.Observe(m.Through)
	st := r.in[src.DC]
	st.mu.Lock()
	if st.state != LinkCatchingUp || st.reqID != m.ReqID {
		st.mu.Unlock()
		return // a stale stream; the live round will complete on its own
	}
	if st.nextChunk != m.Chunk+1 {
		// A chunk of this round never arrived (lost with a broken
		// connection, or dropped unread): Through and the Departed claims
		// vouch for it. Raise nothing and ask again from the same floor.
		r.startCatchUpLocked(st, src.DC)
		st.mu.Unlock()
		return
	}
	r.ctr.Completed.Add(1)
	var chainRaise vclock.Timestamp
	again := false
	switch {
	case !st.chainSet:
		r.setStateLocked(st, LinkActive)
		st.epoch, st.seq = m.ResumeEpoch, m.ResumeSeq
	case st.chainEpoch == m.ResumeEpoch && st.chainBase <= m.ResumeSeq:
		// The observed chain connects to the resume point: everything
		// between Through and the chain's tip has been applied in order.
		r.setStateLocked(st, LinkActive)
		st.epoch = st.chainEpoch
		st.seq = st.chainSeq
		if m.ResumeSeq > st.seq {
			st.seq = m.ResumeSeq
		}
		if st.chainSeq > m.ResumeSeq {
			chainRaise = st.chainTS
		}
	default:
		// Still a hole between the resume point and what arrived during the
		// round — go again: the link stays catching-up. The next round
		// starts from Through (raised below), strictly past this one's
		// floor, so rounds make progress.
		again = true
	}
	// The sender guarantees every version it originated with a timestamp ≤
	// Through is now present (previously received, or streamed in this
	// round). An Unsupported reply makes the same advance on the optimistic
	// fallback semantics instead.
	r.be.RaiseVV(src.DC, m.Through)
	if chainRaise > 0 {
		r.be.RaiseVV(src.DC, chainRaise)
	}
	st.mu.Unlock()
	// Departed-origin claims: the sender streamed every version in
	// (Have[d], Through] it holds of each departed DC d, and its Through is
	// bounded by both the agreed final and its own prefix-complete entry —
	// so the advance asserts nothing this node does not now hold. Clamped
	// at the locally-known final for safety against view skew.
	for _, c := range m.Departed {
		if c.DC < 0 || c.DC >= r.maxDCs || c.DC == r.m || c.Through == 0 {
			continue
		}
		t := c.Through
		if f, _ := r.leftFinal(c.DC); f > 0 && t > f {
			t = f
		}
		r.be.RaiseVV(c.DC, t)
		r.attestDeparted(c.DC)
	}
	if again {
		st.mu.Lock()
		// Unless a quiet-round re-request already replaced the round this
		// Done closed, or the link retired, while the lock was released.
		// reqWait stays, here and for a missing chunk: the sender answered.
		if st.state == LinkCatchingUp && st.reqID == m.ReqID {
			r.startCatchUpLocked(st, src.DC)
		}
		st.mu.Unlock()
	}
	r.maybeFinishJoin() // a completed round may have been the last link
}
