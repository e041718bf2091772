// Read-only transactions (Algorithm 2, lines 29-47): the coordinator's fan-out
// and fan-in, and the slice reads a partition serves — at once, or parked on
// the version-vector wait list.

package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// txPending is one in-flight RO-TX at its coordinator: the snapshot vector
// the GC contribution must not overtake, and the fan-in of its slice replies.
// seen marks the partitions that already responded (or were asked nothing):
// transports are at-least-once (TCP reconnects redeliver), and a duplicate
// reply must not decrement remaining or the fan-in would complete with
// another partition's items missing.
//
// Entries are recycled through txPendingPool and never leave the package.
// Replies reach one only by looking its txID up in Server.inflight under
// txMu, so a late or duplicate reply can never touch the entry's next use.
type txPending struct {
	tv        vclock.VC       // snapshot vector; each slice request carries a copy
	remaining int             // slices still awaited; 0 once completed or failed
	seen      []bool          // by responder partition
	items     []msg.ItemReply // the result, one reply per key in key order
	err       string          // first slice error
	done      chan struct{}   // 1-buffered; one token when remaining reaches 0

	// By partition: the request its keys are routed into, nil for a
	// partition that owns none. Touched by the coordinating goroutine only;
	// a request leaves it as it is handed over (one of a transaction that
	// never fans out is left to the collector).
	reqs []*msg.SliceReq
	// By partition: the index in the read set of each key of its request, in
	// the request's order — where the reply's items go. Coordinator-side
	// only: a slice reply answers its keys in the order they were asked.
	pos [][]int
}

var txPendingPool = sync.Pool{New: func() any { return &txPending{done: make(chan struct{}, 1)} }}

// route appends each key, in request order, to the pooled request of the
// partition that owns it, and its index to that partition's positions; it
// returns how many partitions own a key.
func (p *txPending) route(keys []string, partitionOf func(string) int, txID uint64, coord netemu.NodeID) (int, error) {
	owners := 0
	for i, k := range keys {
		q := partitionOf(k)
		if q < 0 || q >= len(p.reqs) {
			return 0, fmt.Errorf("core: key %q routed to partition %d outside the layout (%d)", k, q, len(p.reqs))
		}
		if p.reqs[q] == nil {
			p.reqs[q] = msg.NewSliceReq(txID, coord)
			p.pos[q] = p.pos[q][:0]
			owners++
		}
		p.reqs[q].Keys = append(p.reqs[q].Keys, k)
		p.pos[q] = append(p.pos[q], i)
	}
	return owners, nil
}

// ROTx coordinates a causally consistent read-only transaction (Algorithm 2,
// lines 29-38): compute the snapshot vector TV, fan SliceReqs out to the
// partitions holding the keys, and gather the replies. The first slice error
// fails the transaction without waiting for the remaining slices, and so does
// a slice reply whose item count is not its request's key count (it would
// leave a key unanswered or misplace another's answer). The returned slice is
// the caller's, freshly allocated: one reply per requested key, in key order
// — reply i answers keys[i], a repeated key included.
func (s *Server) ROTx(keys []string, rdv vclock.VC, mode Mode, partitionOf func(string) int) ([]msg.ItemReply, error) {
	return s.ROTxAppend(nil, keys, rdv, mode, partitionOf)
}

// ROTxAppend is ROTx placing the replies, in key order and count-checked as
// ROTx's, in dst[:len(keys)], grown only when its capacity is short of
// len(keys): a caller that keeps the returned slice for its next transaction
// allocates no result. dst is written until ROTxAppend returns and never
// after, whatever slices are still out: a reply reaches the fan-in only
// through its transaction's entry in the in-flight table, which is deleted
// before the return. On an error the slice is dropped, but dst may hold the
// replies folded in before it.
func (s *Server) ROTxAppend(dst []msg.ItemReply, keys []string, rdv vclock.VC, mode Mode, partitionOf func(string) int) ([]msg.ItemReply, error) {
	if len(keys) == 0 {
		return dst[:0], nil
	}
	txID := s.txSeq.Add(1)
	p := txPendingPool.Get().(*txPending)
	p.reqs = slices.Grow(p.reqs[:0], s.maxParts)[:s.maxParts]
	clear(p.reqs)
	p.pos = slices.Grow(p.pos[:0], s.maxParts)[:s.maxParts]
	owners, err := p.route(keys, partitionOf, txID, s.cfg.ID)
	if err != nil {
		txPendingPool.Put(p)
		return nil, err
	}
	// A partition asked for nothing has nothing to answer: a reply from it
	// is dropped as a duplicate is (its positions are an earlier use's).
	p.seen = slices.Grow(p.seen[:0], s.maxParts)[:s.maxParts]
	for q, req := range p.reqs {
		p.seen[q] = req == nil
	}

	// Snapshot boundary: the optimistic protocol snapshots what the
	// coordinator has *received* (VV); the pessimistic one snapshots what is
	// *stable* (GSS). Both include the client's history (rdv).
	//
	// tv is computed and registered under txMu so it serializes against
	// localGCContribution: either the GC pass sees this transaction in the
	// in-flight table, or it snapshotted the visibility vector before we did
	// — in which case tv covers the GC base and no version inside the
	// snapshot can be pruned.
	s.txMu.Lock()
	if s.stopped.Load() {
		s.txMu.Unlock()
		txPendingPool.Put(p)
		return nil, ErrStopped
	}
	if mode == Pessimistic {
		p.tv = s.gss.load(p.tv)
	} else {
		p.tv = s.vv.load(p.tv)
	}
	p.tv.MaxInPlace(rdv)
	// The fan-in places every slice's items in the result, the caller's.
	p.remaining, p.items = owners, slices.Grow(dst[:0], len(keys))[:len(keys)]
	s.inflight[txID] = p
	s.txMu.Unlock()

	// Each request is handed over with a copy of TV: one may still be parked
	// at a sibling after this transaction has failed and p serves the next.
	for q, req := range p.reqs {
		if req == nil {
			continue
		}
		p.reqs[q] = nil
		req.TV = append(req.TV[:0], p.tv...)
		if q == s.n {
			s.serveSlice(s.cfg.ID, req) // the coordinator's own: reads now, or parks
		} else {
			s.ep.Send(netemu.NodeID{DC: s.m, Partition: q}, req)
		}
	}

	select {
	case <-p.done:
	case <-s.stop:
		err = ErrStopped
	}

	// Off the table no reply can reach p any more, so it can be recycled —
	// once a completion token nobody waited for (the early exit above) is out
	// of the channel.
	s.txMu.Lock()
	delete(s.inflight, txID)
	if err == nil {
		err = sliceError(p.err)
	}
	result := p.items
	p.items, p.err = nil, ""
	s.txMu.Unlock()
	select {
	case <-p.done:
	default:
	}
	txPendingPool.Put(p)

	if err != nil {
		return nil, err
	}
	return result, nil
}

// sliceError maps a slice reply's error string back to its sentinel, so
// callers can errors.Is it (slice errors cross the wire as strings).
func sliceError(e string) error {
	switch e {
	case "":
		return nil
	case ErrSessionClosed.Error():
		return ErrSessionClosed
	case ErrStopped.Error():
		return ErrStopped
	case ErrWrongSlotEpoch.Error():
		return ErrWrongSlotEpoch
	}
	return errors.New(e)
}

// serveSlice executes a transactional slice read (Algorithm 2, lines 39-47):
// once this node has installed every update in the snapshot, read the
// freshest version of each key within TV. It never blocks its caller (a link,
// or the coordinator): the local DC's entry it satisfies itself, by a
// heartbeat tick's effect on demand (doc.go, "Hybrid clocks", argues it); a
// snapshot covered then is answered here; otherwise remote updates are
// missing, and the request parks for whoever advances the vector (unpark).
//
// Visibility within a slice is exactly Deps ≤ TV for both protocols: the
// snapshot vector already encodes the protocol's visibility rule (the
// coordinator builds it from its VV for optimistic transactions and from
// its GSS for pessimistic ones, plus the client's history either way).
// Re-checking stability against this server's own GSS — which may lag the
// coordinator's — would hide versions that are inside the snapshot and
// break the transaction's causal cut (the seed's flaky Cure* stress
// failure).
func (s *Server) serveSlice(src netemu.NodeID, req *msg.SliceReq) {
	if !s.ownsAll(req.Keys) {
		// The coordinator routed this slice with a stale slot table; the
		// whole transaction retries after a refresh.
		s.replySlice(src, req, ErrWrongSlotEpoch)
		return
	}
	if need := req.TV.Get(s.m); need > s.vv.get(s.m) {
		s.clk.Observe(need)
		s.repl.Locked(func() {
			if t := s.clk.Now(); t >= need {
				s.vv.raiseTo(s.m, t)
			}
		})
		s.vvWaiters.wake() // after the lock is released, as a PUT does
	}
	if s.vv.covers(req.TV, -1) {
		s.mx.TxBlocking.Record(0)
		s.replySlice(src, req, nil)
		return
	}
	if req.TV.Get(s.m) > s.vv.get(s.m) {
		s.mx.TxParkLocal.Add(1)
	} else {
		s.mx.TxParkRemote.Add(1)
	}
	w := waiterPool.Get().(*waiter)
	w.need, w.skip, w.req, w.src, w.parked = req.TV, -1, req, src, time.Now()
	l := &s.vvWaiters
	l.mu.Lock()
	if s.cfg.BlockTimeout > 0 {
		// Armed under the list lock: the callback cannot look for w before it
		// is on the list. Whoever takes w off the list serves it.
		w.timer = time.AfterFunc(s.cfg.BlockTimeout, func() {
			if l.remove(w) {
				s.suspectedAt.Store(time.Now().UnixNano())
				s.unpark(w, ErrSessionClosed)
			}
		})
	}
	l.ws = append(l.ws, w)
	l.active.Store(int32(len(l.ws)))
	l.mu.Unlock()
	// Re-check after registration, as waitOn does: an advance of the vector
	// or a shutdown in between saw no waiter.
	l.release(s.stopped.Load())
}

// unpark ends a parked slice whose waiter the caller took off the list: the
// goroutine that advanced the vector or shut down (err nil), or the timer.
func (s *Server) unpark(w *waiter, err error) {
	if err == nil && s.stopped.Load() {
		err = ErrStopped
	}
	s.mx.TxBlocking.Record(time.Since(w.parked))
	s.replySlice(w.src, w.req, err)
	// A timer past stopping may still run its callback against w: such a
	// waiter is left to the collector, not reused.
	if w.timer == nil || w.timer.Stop() {
		w.need, w.req, w.timer = nil, nil, nil
		waiterPool.Put(w)
	}
}

// replySlice answers a slice however it got here: with the freshest version
// within TV of every key (the caller has established that VV covers TV) or
// with the error that ended it. It releases the request; the pooled reply is
// the receiver's to release.
func (s *Server) replySlice(src netemu.NodeID, req *msg.SliceReq, err error) {
	resp := msg.NewSliceResp(req.TxID)
	if err != nil {
		resp.Err = err.Error()
	} else {
		for _, k := range req.Keys {
			res := s.store.ReadWithin(k, req.TV)
			s.mx.TxStale.Record(res.Fresher, res.Invisible)
			resp.Items = append(resp.Items, msg.FromVersion(k, res.V, res.Fresher, res.Invisible))
		}
	}
	req.Release()
	if src == s.cfg.ID {
		s.applySliceResp(s.n, resp)
		return
	}
	s.ep.Send(src, resp)
}

func (s *Server) ownsAll(keys []string) bool {
	for _, k := range keys {
		if !s.ownsKey(k) {
			return false
		}
	}
	return true
}

// applySliceResp folds partition from's slice reply into the coordinator's
// fan-in and releases it: item j is copied to the result at the index of its
// request's key j. A reply with an item count other than its request's key
// count fails the transaction. The fan-in completes when the last slice has
// replied or the first one fails — the slices still out then answer to a
// finished transaction and are dropped here.
func (s *Server) applySliceResp(from int, m *msg.SliceResp) {
	defer m.Release()
	s.txMu.Lock()
	defer s.txMu.Unlock()
	p, ok := s.inflight[m.TxID]
	if !ok || p.remaining == 0 {
		// Transaction already completed or failed.
		return
	}
	if from < 0 || from >= len(p.seen) || p.seen[from] {
		// Duplicate delivery (TCP reconnects are at-least-once): this
		// partition's items are already folded in, or it was asked nothing.
		return
	}
	p.seen[from] = true
	pos := p.pos[from]
	switch {
	case m.Err != "":
		p.err = m.Err
		p.remaining = 0
	case len(m.Items) != len(pos):
		p.err = fmt.Sprintf("core: partition %d answered %d items for %d keys", from, len(m.Items), len(pos))
		p.remaining = 0
	default:
		for j, it := range m.Items {
			p.items[pos[j]] = it
		}
		p.remaining--
	}
	if p.remaining == 0 {
		p.done <- struct{}{} // never blocks: remaining reaches 0 once per use
	}
}
