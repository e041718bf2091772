// The blocking machinery: the atomic vectors requests wait on, and the wait
// lists that park them until a writer advances a vector far enough.

package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// atomicVC is a vector clock whose entries are read and written atomically,
// giving readers lock-free monotone snapshots. Cross-entry consistency is
// not required by the protocol: every entry only grows, so any interleaved
// load yields a vector that was a valid lower bound of the true state.
type atomicVC struct {
	e []atomic.Uint64
}

func newAtomicVC(n int) *atomicVC { return &atomicVC{e: make([]atomic.Uint64, n)} }

func (a *atomicVC) get(i int) vclock.Timestamp { return vclock.Timestamp(a.e[i].Load()) }

// raiseTo lifts entry i to at least t, reporting whether it advanced. The
// CAS loop keeps the entry monotone even with racing writers (e.g. a TCP
// reconnect briefly running two reader goroutines for one link).
func (a *atomicVC) raiseTo(i int, t vclock.Timestamp) bool {
	for {
		cur := a.e[i].Load()
		if uint64(t) <= cur {
			return false
		}
		if a.e[i].CompareAndSwap(cur, uint64(t)) {
			return true
		}
	}
}

// load fills dst (reallocating only on length mismatch) with an atomic
// snapshot of the vector and returns it.
func (a *atomicVC) load(dst vclock.VC) vclock.VC {
	if len(dst) != len(a.e) {
		dst = make(vclock.VC, len(a.e))
	}
	for i := range a.e {
		dst[i] = vclock.Timestamp(a.e[i].Load())
	}
	return dst
}

// snapshot returns a fresh copy of the vector.
func (a *atomicVC) snapshot() vclock.VC { return a.load(nil) }

// covers reports whether need[i] ≤ the vector's entry i for every i != skip
// (-1 checks all entries). With skip the local DC this is the GET wait
// condition (Algorithm 2, line 2): dependencies on the local DC are
// trivially satisfied.
func (a *atomicVC) covers(need vclock.VC, skip int) bool {
	for i, t := range need {
		if i == skip {
			continue
		}
		if i >= len(a.e) {
			if t > 0 {
				return false
			}
			continue
		}
		if uint64(t) > a.e[i].Load() {
			return false
		}
	}
	return true
}

// waiter represents one blocked request: it is released when the watched
// vector covers need on every entry except skip (-1 to check all entries).
// A GET or PUT blocks its caller's goroutine on wake; a parked RO-TX slice has
// none — the waiter carries the request and whoever takes it off the list
// serves it (Server.unpark).
// Waiters are recycled through waiterPool: release is one token on the
// 1-buffered wake channel, sent by whoever takes the waiter off its list, so
// a waiter that is off the list with an empty channel is safe to reuse.
type waiter struct {
	need vclock.VC
	skip int
	wake chan struct{}

	req    *msg.SliceReq // a parked slice, who sent it and when it parked
	src    netemu.NodeID
	parked time.Time
	timer  *time.Timer // its block timeout (HA-POCC), else nil
	next   *waiter     // chains the slices one release took off the list
}

var waiterPool = sync.Pool{New: func() any { return &waiter{wake: make(chan struct{}, 1)} }}

// waitList is the per-vector condition structure: blocked requests register
// here and writers that advance the vector wake the satisfied ones. The
// active counter lets writers skip the lock entirely when nobody waits —
// the common case on the optimistic hot path.
type waitList struct {
	vec    *atomicVC
	mu     sync.Mutex
	active atomic.Int32
	ws     []*waiter
	serve  func(w *waiter, err error) // ends a parked slice: Server.unpark
}

func (l *waitList) add(w *waiter) {
	l.mu.Lock()
	l.ws = append(l.ws, w)
	l.active.Store(int32(len(l.ws)))
	l.mu.Unlock()
}

// remove takes w off the list and reports whether it was still on it. False
// means wake released w first: its token is already in w.wake (wake sends
// under l.mu), and the caller must take it before recycling w.
func (l *waitList) remove(w *waiter) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, x := range l.ws {
		if x == w {
			l.ws[i] = l.ws[len(l.ws)-1]
			l.ws[len(l.ws)-1] = nil
			l.ws = l.ws[:len(l.ws)-1]
			l.active.Store(int32(len(l.ws)))
			return true
		}
	}
	return false
}

// wake releases every waiter the vector now satisfies.
func (l *waitList) wake() { l.release(false) }

// release takes every waiter the vector satisfies off the list — and, when
// the server is stopping, every parked slice. A blocked goroutine gets its
// token under the list lock; the slices are served by this goroutine once the
// lock is released, so their reads and replies hold up no other park or wake.
func (l *waitList) release(stopping bool) {
	if l.active.Load() == 0 {
		return
	}
	var ready *waiter
	l.mu.Lock()
	out := l.ws[:0]
	for _, w := range l.ws {
		switch covered := l.vec.covers(w.need, w.skip); {
		case w.req != nil && (covered || stopping):
			w.next, ready = ready, w
		case covered:
			w.wake <- struct{}{} // never blocks: one token per registration
		default:
			out = append(out, w)
		}
	}
	// Clear the tail so released waiters are not retained.
	for i := len(out); i < len(l.ws); i++ {
		l.ws[i] = nil
	}
	l.ws = out
	l.active.Store(int32(len(out)))
	l.mu.Unlock()
	for ready != nil {
		w := ready
		ready, w.next = w.next, nil
		l.serve(w, nil)
	}
}

// waitVV blocks until the version vector covers need on every entry except
// skip. It returns how long the caller was blocked. With a BlockTimeout
// configured, a wait that exceeds it marks the server suspected and returns
// ErrSessionClosed (the HA-POCC recovery trigger).
func (s *Server) waitVV(need vclock.VC, skip int) (time.Duration, error) {
	return s.waitOn(&s.vvWaiters, need, skip)
}

// waitGSS blocks until the GSS covers need on every entry except skip.
func (s *Server) waitGSS(need vclock.VC, skip int) (time.Duration, error) {
	return s.waitOn(&s.gssWaiters, need, skip)
}

func (s *Server) waitOn(l *waitList, need vclock.VC, skip int) (time.Duration, error) {
	if s.stopped.Load() {
		return 0, ErrStopped
	}
	// Lock-free fast path: the vector already covers the dependencies.
	if l.vec.covers(need, skip) {
		return 0, nil
	}
	w := waiterPool.Get().(*waiter)
	w.need, w.skip = need, skip
	l.add(w)
	// Re-check after registration: a writer that advanced the vector between
	// the fast-path check and add would have seen an empty wait list. wake
	// also releases any other now-satisfied waiter, which is harmless.
	l.wake()

	start := time.Now()
	var timeout <-chan time.Time
	if s.cfg.BlockTimeout > 0 {
		timer := time.NewTimer(s.cfg.BlockTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	var err error
	select {
	case <-w.wake:
	case <-s.stop:
		err = ErrStopped
	case <-timeout:
		err = ErrSessionClosed
	}
	if err != nil && !l.remove(w) {
		// Released concurrently with the stop or the timer: prefer success,
		// and take the token so the recycled waiter starts empty.
		<-w.wake
		err = nil
	}
	w.need = nil
	waiterPool.Put(w)
	if err == ErrSessionClosed {
		s.suspectedAt.Store(time.Now().UnixNano())
	}
	return time.Since(start), err
}

// Suspected reports whether the server recently suspected a network
// partition (a blocked request hit the block timeout). HA-POCC clients use
// it to decide when to promote sessions back to the optimistic protocol.
func (s *Server) Suspected() bool {
	at := s.suspectedAt.Load()
	if at == 0 {
		return false
	}
	window := 4 * s.cfg.BlockTimeout
	if window <= 0 {
		window = time.Second
	}
	return time.Since(time.Unix(0, at)) < window
}
