// The catch-up server: WAL-shipped history for lagging siblings, and the
// garbage-collection holdbacks owed to them while they drain.
//
// # WAL-shipped catch-up
//
// The lagging receiver sends a msg.CatchUpRequest carrying the timestamp
// through which its prefix is complete (its VV entry for that DC). The
// sender streams every version it originated after that point straight out
// of its durable log (Source: storage.Durable over the internal/wal cursor)
// in acknowledged chunks, never holding more than catchUpWindow (1 MiB) of
// un-acked data on the wire — backpressure instead of unbounded buffers.
// The final chunk (Done) carries the resume point (epoch, sequence,
// timestamp) and the number of chunks sent before it. A round is all or
// nothing: if the receiver applied every chunk, it raises its VV through the
// streamed history, splices the batches that arrived during the round back
// onto the sequence, and resumes normal operation — or detects another
// discontinuity and goes again from the new, strictly higher floor. If a
// chunk went missing, it raises nothing and goes again from the same floor.
//
// A sender without a durable engine (a nil Source: an in-memory
// deployment, where a crashed replica has nothing to re-ship anyway) answers
// Unsupported, and the receiver resumes on the reply's word — the optimistic
// pre-catch-up semantics, reached through the sequenced rule.
//
// # Catch-up-aware garbage collection
//
// The GC exchange prunes superseded versions once every replica's snapshot
// has moved past them — but a replica frozen in catch-up (or a joiner mid-
// bootstrap) still needs the history above what it holds. The manager
// therefore records what each catch-up requester asked for — its request
// floor for this link and its Have entries — and clamps the server's local
// GC contribution to those floors (ClampGC), holding the global prune point
// back until the laggard drains. A joiner is held back the same way, by its
// own requests. The holdback is released after Config.GCMaxHoldback, so one
// wedged replica cannot pin the deployment's garbage forever. Every round
// ships (floor, ceiling] per origin either way; a round served from a
// nonzero floor under the WAL's checkpoint-compacted boundary
// (storage.Durable.CompactedFloor) is counted as a GC overrun
// (Stats.GCOverruns): GC passed what that requester held.

package repl

import (
	"errors"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// errCanceled aborts a catch-up serving stream (superseded, or shutdown).
var errCanceled = errors.New("repl: catch-up stream canceled")

// catchUpServe is one outbound catch-up stream in progress.
type catchUpServe struct {
	dc     int
	reqID  uint64
	acks   chan uint64
	cancel chan struct{}
}

// holdback is the GC floor owed to one catch-up requester: what it asked
// for, its request floor for this link and its Have entries. The server must
// not let the global prune point pass it while the laggard drains.
type holdback struct {
	floors  vclock.VC // entry-wise: prune nothing above these
	since   time.Time // when the laggard was first seen (holdback age)
	lastReq time.Time // expiry clock: the last request (noteHoldback); servingTo covers a live stream
}

// handleCatchUpRequest serves a lagging sibling: it snapshots the resume
// point and streams the requested history from the durable log on a
// dedicated goroutine. A newer request from the same DC supersedes the
// stream in progress.
func (r *Manager) handleCatchUpRequest(src netemu.NodeID, m msg.CatchUpRequest) {
	if _, left := r.leftFinal(src.DC); left || !r.validSrc(src.DC) {
		return // nothing is owed to a departed DC
	}
	r.noteHoldback(src.DC, m)
	s := &catchUpServe{
		dc:     src.DC,
		reqID:  m.ReqID,
		acks:   make(chan uint64, 256),
		cancel: make(chan struct{}),
	}
	r.serveMu.Lock()
	if r.stopped.Load() {
		r.serveMu.Unlock()
		return
	}
	if old := r.serving[src.DC]; old != nil {
		close(old.cancel)
	}
	r.serving[src.DC] = s
	r.wg.Add(1)
	r.serveMu.Unlock()
	go func() {
		defer r.wg.Done()
		r.serveCatchUp(src, s, m)
		r.serveMu.Lock()
		if r.serving[src.DC] == s {
			delete(r.serving, src.DC)
		}
		r.serveMu.Unlock()
	}()
}

// noteHoldback records (or refreshes) the GC floor owed to a lagging
// requester: its full version vector is exactly what it has — the local GC
// contribution must not pass it while the laggard drains (ClampGC). Floors
// only rise; the entry expires once the laggard goes quiet or ages past
// the holdback cap.
func (r *Manager) noteHoldback(dc int, m msg.CatchUpRequest) {
	now := time.Now()
	floors := m.Have.Clone().GrowTo(r.maxDCs)
	if m.From > floors[r.m] {
		floors[r.m] = m.From
	}
	r.holdMu.Lock()
	if hb := r.holdbacks[dc]; hb != nil {
		hb.floors = hb.floors.GrowTo(len(floors))
		hb.floors.MaxInPlace(floors)
		hb.lastReq = now
	} else {
		r.holdbacks[dc] = &holdback{floors: floors, since: now, lastReq: now}
	}
	r.holdMu.Unlock()
}

// handleCatchUpAck credits one chunk back to the in-flight window of the
// stream it belongs to.
func (r *Manager) handleCatchUpAck(src netemu.NodeID, m msg.CatchUpAck) {
	if !r.validSrc(src.DC) {
		return
	}
	r.serveMu.Lock()
	s := r.serving[src.DC]
	r.serveMu.Unlock()
	if s == nil || s.reqID != m.ReqID {
		return
	}
	select {
	case s.acks <- m.Chunk:
	default: // window is tiny relative to the channel; a full channel means
		// the stream is already unblocked by earlier acks
	}
}

// versionBytes approximates a version's wire footprint for the in-flight
// window accounting.
func versionBytes(v *item.Version) int {
	return len(v.Key) + len(v.Value) + 10*len(v.Deps) + 24
}

// serveCatchUp streams every version this node originated in (From,
// through] out of the durable log, in acknowledged chunks no larger than
// the in-flight window, then sends the resume point with the chunk count
// (a read error's Unsupported reply carries it too). The through/resumeSeq
// pair is captured under the outbound lock after a flush, which establishes
// the invariant the receiver relies on: every version ≤ through has been
// handed to the transport in a batch with sequence ≤ resumeSeq (and is in
// the log), and every later version rides a higher sequence.
//
// Besides its own history, the stream re-ships departed-origin versions the
// requester lacks: for every DC the view records as Left, the range
// (Have[d], min(final, own entry)] rides along, bounded by a claim in the
// Done chunk so the receiver can advance its vector for the departed DC —
// this is how survivors close their eviction gaps and how joiners bootstrap
// the history of DCs that left before they arrived.
//
// A round served from a nonzero floor under the WAL's checkpoint-compacted
// boundary counts as a GC overrun: superseded versions the requester never
// received may have been pruned. A floor of zero is a bootstrap, which holds
// nothing that could have been passed.
func (r *Manager) serveCatchUp(src netemu.NodeID, s *catchUpServe, req msg.CatchUpRequest) {
	r.mu.Lock()
	r.flushLocked()
	through := r.lastTS
	resumeSeq := r.seq
	r.mu.Unlock()

	r.viewMu.Lock()
	var claims []msg.DepartedClaim
	for dc, st := range r.view.Status {
		if st != msg.DCLeft || dc == r.m || dc == src.DC {
			continue
		}
		to := r.be.VVEntry(dc)
		if f := r.view.FinalOf(dc); f > 0 && f < to {
			to = f
		}
		if to > req.Have.Get(dc) {
			claims = append(claims, msg.DepartedClaim{DC: dc, Through: to})
		}
	}
	r.viewMu.Unlock()

	done := msg.CatchUpReply{
		ReqID: s.reqID, Done: true,
		ResumeEpoch: r.epoch, ResumeSeq: resumeSeq, Through: through,
		Departed: claims, SlotEpoch: r.be.SlotEpoch(),
	}
	if r.history == nil {
		done.Unsupported = true
		r.ep.Send(src, done)
		return
	}

	// Per-origin stream bounds: own origin in (From, through], each claimed
	// departed origin in (Have[d], claim].
	shipFloor := make(vclock.VC, r.maxDCs)
	shipCeil := make(vclock.VC, r.maxDCs)
	shipFloor[r.m], shipCeil[r.m] = req.From, through
	for _, c := range claims {
		shipFloor[c.DC], shipCeil[c.DC] = req.Have.Get(c.DC), c.Through
	}
	compacted, overrun := r.history.CompactedFloor(), false
	for d, f := range shipFloor {
		if f > 0 && f < compacted.Get(d) {
			overrun = true
		}
	}

	var (
		chunkID    uint64
		chunk      []*item.Version
		chunkBytes int
		inFlight   int
		window     []struct {
			id    uint64
			bytes int
		}
	)
	sendChunk := func() error {
		if len(chunk) == 0 {
			return nil
		}
		// Backpressure: wait for acks while the window is full. The first
		// chunk always goes out, so a window smaller than one chunk still
		// streams (one chunk at a time).
		for inFlight > 0 && inFlight+chunkBytes > catchUpWindow {
			select {
			case <-s.cancel:
				return errCanceled
			case <-r.stop:
				return errCanceled
			case ack := <-s.acks:
				for len(window) > 0 && window[0].id <= ack {
					inFlight -= window[0].bytes
					window = window[1:]
				}
			}
		}
		chunkID++
		r.ep.Send(src, msg.CatchUpReply{ReqID: s.reqID, Chunk: chunkID, Versions: chunk,
			SlotEpoch: r.be.SlotEpoch()})
		window = append(window, struct {
			id    uint64
			bytes int
		}{chunkID, chunkBytes})
		inFlight += chunkBytes
		chunk, chunkBytes = nil, 0
		return nil
	}

	walk := func(v *item.Version) error {
		select {
		case <-s.cancel:
			return errCanceled
		case <-r.stop:
			return errCanceled
		default:
		}
		d := v.SrcReplica
		if d < 0 || d >= r.maxDCs || v.UpdateTime <= shipFloor[d] || v.UpdateTime > shipCeil[d] {
			return nil
		}
		chunk = append(chunk, v)
		chunkBytes += versionBytes(v)
		if chunkBytes >= catchUpChunkBytes {
			return sendChunk()
		}
		return nil
	}
	// Seek: segments outside the requested windows are skipped, so a small
	// gap is served in O(gap).
	err := r.history.ForEachDurable(shipFloor, shipCeil, walk)
	if err == nil {
		err = sendChunk()
	}
	done.Chunk = chunkID
	if err != nil {
		if errors.Is(err, errCanceled) {
			return // superseded or shutting down; no resume point
		}
		// The log could not prove completeness (read error). Answer
		// Unsupported so the receiver falls back to optimistic semantics
		// instead of freezing forever — the same degradation as a sticky
		// persistence error.
		done.Unsupported = true
		r.ep.Send(src, done)
		return
	}
	r.ep.Send(src, done)
	r.ctr.Served.Add(1)
	if overrun {
		r.ctr.GCOverruns.Add(1)
	}
}

// servingTo reports whether an outbound catch-up stream to dc is live.
func (r *Manager) servingTo(dc int) bool {
	r.serveMu.Lock()
	defer r.serveMu.Unlock()
	return r.serving[dc] != nil
}

// ClampGC caps the server's local GC contribution so the global prune point
// never passes history a laggard still needs: each recently-served catch-up
// requester, a joiner included, pins the vector at the floors it asked from
// (what it actually holds). Entries are clamped in place and gv is returned
// for convenience.
//
// A holdback older than Config.GCMaxHoldback is released and GC advances
// (the escape hatch, so one wedged replica cannot pin the deployment's
// garbage forever); a negative bound never releases. Its age runs from the
// laggard's first request, so a released holdback stays released while the
// laggard keeps asking within holdbackGrace. A holdback with no request
// within holdbackGrace and no stream in flight is dropped: the laggard either
// caught up or died, and one that returns is held back again by its next
// request.
func (r *Manager) ClampGC(gv vclock.VC) vclock.VC {
	now, maxAge := time.Now(), r.cfg.GCMaxHoldback
	r.holdMu.Lock()
	defer r.holdMu.Unlock()
	for dc, hb := range r.holdbacks {
		switch {
		case now.Sub(hb.lastReq) > holdbackGrace && !r.servingTo(dc):
			delete(r.holdbacks, dc)
		case maxAge >= 0 && now.Sub(hb.since) > maxAge:
			// released
		default:
			gv.MinInPlace(hb.floors)
		}
	}
	return gv
}

// HoldbackAge reports how long the oldest live GC holdback (a lagging
// catch-up requester, a joiner included) has pinned the prune point; zero
// when nothing is held. Observability for the stats surface.
func (r *Manager) HoldbackAge() time.Duration {
	now := time.Now()
	r.holdMu.Lock()
	defer r.holdMu.Unlock()
	var oldest time.Time
	for _, hb := range r.holdbacks {
		if oldest.IsZero() || hb.since.Before(oldest) {
			oldest = hb.since
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}
