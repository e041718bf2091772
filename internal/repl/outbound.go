// The outbound stream: the local write path, the flush cadence, heartbeats.

package repl

import (
	"errors"
	"math/rand/v2"
	"time"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// ErrRetired is returned by Publish after the local DC has left the
// deployment: nothing rides the links anymore, so acking a write then would
// lose it the moment the node shuts down.
var ErrRetired = errors.New("repl: local DC has left the deployment")

// Locked runs fn under the outbound lock, serialized against Publish's
// critical section. The slot-table fence uses it: installing a new table
// inside Locked guarantees that every write committed under the old table
// has already raised the local version-vector entry when the install
// returns, so a reshard's drain marks (captured after the install) cover
// every version the old layout will ever produce. An RO-TX slice raises the
// local entry to a clock reading in here: no PUT's timestamp can straddle it.
func (r *Manager) Locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// Publish runs the local write path: under the outbound lock it lets the
// backend assign v its timestamp and install it, then enqueues v for
// replication, flushing inline when the buffer reaches batchCap. It
// returns ErrRetired when the DC has left the deployment, and surfaces the
// backend's refusal (stopped, or the key's slot moved away) verbatim.
func (r *Manager) Publish(v *item.Version) (vclock.Timestamp, error) {
	r.mu.Lock()
	if r.retired.Load() {
		r.mu.Unlock()
		return 0, ErrRetired
	}
	ut, err := r.be.PrepareLocal(v)
	if err != nil {
		r.mu.Unlock()
		return 0, err
	}
	if r.fanout {
		r.buf = append(r.buf, v)
		if len(r.buf) >= batchCap {
			r.flushLocked()
		}
	}
	r.mu.Unlock()
	return ut, nil
}

// flushLocked stamps the buffered updates with the next batch sequence and
// sends them to every member DC. Called with mu held so batches (and
// heartbeats) leave each link in timestamp order. The buffer's slice is
// handed to a pooled message holding one reference per target link
// (versions are immutable and shared across DCs; receivers of an emulated
// deployment read the very same slice until their link releases it).
// With an empty fan-out (a deployment not yet grown) the sequence still
// advances and the versions rest in the WAL — a later joiner's first
// contact sees the sequence and pulls them through catch-up.
func (r *Manager) flushLocked() {
	if len(r.buf) == 0 {
		return
	}
	r.seq++
	hb := r.buf[len(r.buf)-1].UpdateTime
	if hb > r.lastTS {
		r.lastTS = hb
	}
	targets := *r.targets.Load()
	if len(targets) == 0 {
		clear(r.buf)
		r.buf = r.buf[:0]
		return
	}
	// One message for every target DC's link, immutable from here on.
	m := msg.NewReplicateBatch(len(targets))
	next := m.Versions
	m.Versions, m.HBTime, m.Epoch, m.Seq, m.Floor, m.SlotEpoch = r.buf, hb, r.epoch, r.seq, r.floor, r.be.SlotEpoch()
	// The message owns the old buffer now; the next window starts in the
	// list a recycled batch left behind, as long as it has the capacity this
	// window reached — halved after a window that left most of it unused, so
	// it follows the load down as well as up.
	c := cap(r.buf)
	if len(r.buf) < c/4 {
		c /= 2
	}
	if cap(next) < c {
		next = make([]*item.Version, 0, c)
	}
	r.buf = next
	for _, dc := range targets {
		r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, m)
	}
}

// heartbeatLoop flushes the buffer every Δ — the flush cadence — and
// broadcasts the local clock when the sibling DCs have been told nothing for
// a heartbeat interval (Algorithm 2, lines 19-26). Heartbeats are suppressed
// while updates sit in the buffer, so they never overtake buffered versions
// with smaller timestamps. The rule reads lastTS, what the links last carried,
// not the local version-vector entry: RO-TX slices raise that entry and send
// nothing (core.Server.serveSlice), so a partition serving slices but no PUT
// would look busy forever and its siblings' entry for this DC would freeze.
func (r *Manager) heartbeatLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.mu.Lock()
		r.flushLocked()
		// A retired node's links carry nothing more: lastTS stays the final
		// its leave proposed, which a resumed leave proposes again.
		ct := r.clk.Now()
		idle := len(r.buf) == 0 && ct >= r.lastTS+vclock.Timestamp(r.cfg.HeartbeatInterval) && !r.retired.Load()
		if idle {
			if ct > r.lastTS {
				r.lastTS = ct
			}
			if targets := *r.targets.Load(); len(targets) > 0 {
				hb := msg.NewHeartbeat(len(targets))
				hb.Time, hb.Epoch, hb.Seq, hb.Floor = ct, r.epoch, r.seq, r.floor
				for _, dc := range targets {
					r.ep.Send(netemu.NodeID{DC: dc, Partition: r.n}, hb)
				}
			}
		}
		r.mu.Unlock()
		if idle {
			r.be.RaiseVV(r.m, ct)
		}
		if r.joining.Load() && !r.joinFailed.Load() {
			if r.cfg.JoinTimeout > 0 && time.Since(r.joinStart) > r.cfg.JoinTimeout {
				// Abandon the bootstrap: stop soliciting and let the owner
				// unwind the half-joined DC via JoinFailed.
				r.joinFailed.Store(true)
			} else {
				// A lost JoinRequest (or a sibling that was down) must not
				// wedge the bootstrap: re-ask until every active link has
				// made first contact — with jittered exponential backoff, so
				// a deployment that cannot answer is not flooded — and
				// re-check completion in case the last sync arrived without
				// a message to piggyback on.
				r.viewMu.Lock()
				wait := r.joinBackoff
				if wait > 0 {
					wait += time.Duration(rand.Int64N(int64(wait/2) + 1))
				}
				resend := time.Since(r.joinAskAt) > wait
				r.viewMu.Unlock()
				if resend {
					r.sendJoinRequests()
				}
				r.maybeFinishJoin()
			}
		}
		// Departed-DC gaps heal through ordinary catch-up on the live links;
		// retry until the recorded finals are reached (a one-shot round can
		// race a survivor that has not yet learned of the departure and
		// answers without a claim).
		r.fillDepartedGaps()
	}
}

// AdoptHistory raises the floor and resume point of this node's stream to t:
// a reshard copied in history of its own DC up to t that the stream never
// carried, which a later joiner must then fetch, not adopt the stream over.
func (r *Manager) AdoptHistory(t vclock.Timestamp) {
	r.mu.Lock()
	r.floor = max(r.floor, t)
	r.lastTS = max(r.lastTS, t)
	r.mu.Unlock()
}
