// Package msg defines the messages exchanged between partition servers:
// update replication, heartbeats (Algorithm 2, lines 12-28), the RO-TX slice
// protocol (lines 29-47), the Cure-style stabilization exchange used by the
// pessimistic mode and HA-POCC, and the garbage-collection exchange.
package msg

import (
	"sync"
	"sync/atomic"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// ReplicateBatch carries a batch of freshly created versions, in update-
// timestamp order (the FIFO links preserve it), to the sibling replicas of
// their partition in the other data centers. Senders accumulate updates and
// flush on the heartbeat tick (Δ) or when a size threshold is reached;
// HBTime is the covering heartbeat timestamp — receivers advance the sender
// DC's version-vector entry to max(HBTime, last version's update time), so a
// batch subsumes a separate heartbeat while updates flow.
//
// Epoch identifies the sender's incarnation (seeded from its clock at
// start-up, so it changes across restarts) and Seq numbers the sender's
// batches 1, 2, 3, … within that incarnation. Because every flush goes to
// every sibling DC, each link observes the same gap-free sequence; a
// receiver that sees a hole — or a new epoch — knows updates were lost on
// that link and can request a catch-up (internal/repl). A sender's epoch is
// never 0, and a receiver gives epoch 0 no special treatment: to it, that is
// one more incarnation it has not seen.
//
// Floor is the sender incarnation's starting history floor: every version
// it originated before this incarnation has a timestamp ≤ Floor (the
// recovered WAL floor; 0 for a fresh store). A receiver making first
// contact with the link adopts the stream only when its own progress covers
// Floor — otherwise the sender holds history the receiver never saw and a
// catch-up round is needed first.
//
// A batch travels as a *ReplicateBatch, and a heartbeat as a *Heartbeat: one
// flush is shared by every sibling, so a receiver never writes to *m. The
// sender draws both from a pool with one reference per target link, and each
// link releases its own once done (netemu.Lent): the last release recycles
// the message, Versions array included. A decoded or literal message is not
// pooled, and its Release does nothing.
type ReplicateBatch struct {
	Versions []*item.Version
	HBTime   vclock.Timestamp
	Epoch    uint64
	Seq      uint64
	Floor    vclock.Timestamp
	// SlotEpoch is the sender's slot-table epoch when the batch was flushed.
	// A receiver whose table has moved past it re-routes versions of moved
	// slots to their current in-DC owner (core's slot handoff) instead of
	// applying them to a server that no longer serves the slot. 0 = the
	// epoch-0 table.
	SlotEpoch uint64

	refs
}

// Heartbeat advertises the sender's current clock so idle replicas keep the
// receivers' version vectors moving (Algorithm 2, lines 19-28). Epoch and
// Seq mirror ReplicateBatch: Seq is the sender's last flushed batch
// sequence, letting receivers verify the link is gap-free before advancing
// their version vector on an otherwise data-free message (an idle restarted
// sender is detected exactly here). Floor is the incarnation's starting
// history floor (see ReplicateBatch), and a heartbeat is pooled the same way.
type Heartbeat struct {
	Time  vclock.Timestamp
	Epoch uint64
	Seq   uint64
	Floor vclock.Timestamp

	refs
}

// refs counts the links still holding a pooled message; the zero value
// marks one that is not pooled. n is touched only atomically.
type refs struct {
	n      int32
	pooled bool
}

// Refs reports the references still held (0 for a message not pooled).
func (r *refs) Refs() int32 { return atomic.LoadInt32(&r.n) }

// release drops one reference and reports whether it was the last. An
// over-release panics: it would recycle a message another DC still reads.
func (r *refs) release() bool {
	if !r.pooled {
		return false
	}
	n := atomic.AddInt32(&r.n, -1)
	if n < 0 {
		panic("msg: pooled replication message released more often than referenced")
	}
	return n == 0
}

var (
	batchPool     = sync.Pool{New: func() any { return &ReplicateBatch{refs: refs{pooled: true}} }}
	heartbeatPool = sync.Pool{New: func() any { return &Heartbeat{refs: refs{pooled: true}} }}
)

// NewReplicateBatch draws a batch holding n references, one per link it is
// sent on; Versions is empty at the capacity an earlier use left it.
func NewReplicateBatch(n int) *ReplicateBatch {
	b := batchPool.Get().(*ReplicateBatch)
	atomic.StoreInt32(&b.n, int32(n))
	return b
}

// Release drops one reference; the last clears the version slots and
// recycles b, which no holder may touch again.
func (b *ReplicateBatch) Release() {
	if b.release() {
		clear(b.Versions)
		b.Versions = b.Versions[:0]
		batchPool.Put(b)
	}
}

// NewHeartbeat draws a heartbeat holding n references, one per link.
func NewHeartbeat(n int) *Heartbeat {
	h := heartbeatPool.Get().(*Heartbeat)
	atomic.StoreInt32(&h.n, int32(n))
	return h
}

// Release drops one reference; the last recycles h.
func (h *Heartbeat) Release() {
	if h.release() {
		heartbeatPool.Put(h)
	}
}

// CatchUpRequest asks the sibling replica that feeds this link to re-ship
// every version it originated after From, which the requester sets to its
// version-vector entry for the sender's DC — the timestamp through which its
// received prefix is known complete. ReqID matches replies to the request
// round, so a re-issued request cannot be satisfied by a stale stream.
//
// Have is the requester's whole version vector at request time. When set, it
// additionally asks the sender to re-ship the history of *departed* (DCLeft)
// data centers: for every departed DC d the sender streams the versions d
// originated with Have[d] < UpdateTime ≤ min(final[d], sender's progress) out
// of its own log, and claims the shipped bound per DC on the Done reply
// (CatchUpReply.Departed). This is how a joiner — or a survivor left short by
// a forced eviction — obtains history whose origin is no longer around to
// serve it. A nil Have reads as zeros (vclock.VC.Get): every departed DC's
// history from 0, and a zero GC holdback floor at the sender.
type CatchUpRequest struct {
	ReqID uint64
	From  vclock.Timestamp
	Have  vclock.VC
}

// DepartedClaim is the sender's guarantee, carried on a final CatchUpReply,
// that the requester now holds every version the departed DC originated with
// a timestamp ≤ Through that the sender holds — and the sender's own
// version-vector entry for that DC covers Through, so the prefix is complete.
type DepartedClaim struct {
	DC      int
	Through vclock.Timestamp
}

// CatchUpReply carries one chunk of a catch-up stream, served straight out
// of the sender's write-ahead log. Chunks are numbered from 1 and
// acknowledged individually (CatchUpAck) so the sender can bound the data in
// flight. The final chunk has Done set and carries the resume point: with
// every chunk applied, the requester holds every version the sender
// originated with a timestamp ≤ Through, and batches after (ResumeEpoch,
// ResumeSeq) continue the link's sequence from there. Unsupported marks a
// sender without a durable log to stream from; the requester falls back to
// optimistic (pre-catch-up) semantics for the link. Departed carries the
// per-DC bounds of re-shipped departed history (see CatchUpRequest.Have); it
// is only set on the Done reply.
type CatchUpReply struct {
	ReqID uint64
	// Chunk numbers a data chunk of the round, from 1. On the Done reply it
	// counts the chunks sent before it: the requester completes the round
	// only if it applied chunks 1..Chunk, and otherwise asks again.
	Chunk       uint64
	Versions    []*item.Version
	Done        bool
	Unsupported bool
	ResumeEpoch uint64
	ResumeSeq   uint64
	Through     vclock.Timestamp
	Departed    []DepartedClaim
	// SlotEpoch is the sender's slot-table epoch for this chunk (see
	// ReplicateBatch.SlotEpoch); caught-up versions of since-moved slots get
	// re-routed by the receiver exactly like live traffic.
	SlotEpoch uint64
}

// CatchUpAck acknowledges receipt of one catch-up chunk, opening the
// sender's in-flight window for the next one (backpressure).
type CatchUpAck struct {
	ReqID uint64
	Chunk uint64
}

// Data-center membership statuses. The values form a lattice: a status only
// ever moves to a larger value (Unknown → Joining → Active → Left), so two
// divergent views merge by taking the entry-wise maximum and always agree
// eventually. Left is terminal — a departed DC's id is never reused, or its
// timestamps would collide with the departed history.
const (
	// DCUnknown marks a slot that has never held a member.
	DCUnknown uint8 = iota
	// DCJoining marks a member that is bootstrapping: it receives the live
	// update stream and pulls history via WAL-shipped catch-up, but has not
	// yet proven it holds every member's past.
	DCJoining
	// DCActive marks a fully synchronized member.
	DCActive
	// DCLeft marks a departed member. Its version-vector entries freeze at
	// the final its departure round settled (Membership.Final).
	DCLeft
)

// Membership is the epoch-stamped view of the deployment's data centers,
// owned by each server's replication manager and carried on every membership
// message. Status is indexed by DC id; ids beyond the slice are DCUnknown.
// Epoch counts view changes: a node that mutates its view locally sets
// Epoch to one past the largest epoch it has seen, so epochs order the
// changes a single admin drives while the entry-wise lattice merge keeps
// concurrent changes convergent.
// Final records, per DC id, the final timestamp of a departed (DCLeft)
// member: a graceful leaver's own last timestamp, which every survivor
// attested before the verdict (EvictProposal.Final), or for a forcibly
// evicted DC the value the survivors agreed on (repl's ProposeEvict), raised
// by any survivor whose entry lay above it at the verdict. Entries merge by
// numeric maximum alongside the statuses, so the view carries the final
// wherever it travels; zero means "not known / no cap". Entries for
// non-departed DCs are meaningless and stay zero.
type Membership struct {
	Epoch  uint64
	Status []uint8
	Final  vclock.VC
}

// Clone returns an independent copy of the view.
func (m Membership) Clone() Membership {
	out := Membership{Epoch: m.Epoch}
	if m.Status != nil {
		out.Status = append([]uint8(nil), m.Status...)
	}
	if m.Final != nil {
		out.Final = m.Final.Clone()
	}
	return out
}

// FinalOf returns the final timestamp recorded for a departed dc,
// or zero when none is known.
func (m Membership) FinalOf(dc int) vclock.Timestamp {
	if dc < 0 || dc >= len(m.Final) {
		return 0
	}
	return m.Final[dc]
}

// SetFinal records a departed DC's final timestamp, growing the vector as
// needed. It only ever raises the entry (the lattice order).
func (m *Membership) SetFinal(dc int, final vclock.Timestamp) {
	if dc < 0 {
		return
	}
	for len(m.Final) <= dc {
		m.Final = append(m.Final, 0)
	}
	if final > m.Final[dc] {
		m.Final[dc] = final
	}
}

// Get returns the status of dc (DCUnknown beyond the view).
func (m Membership) Get(dc int) uint8 {
	if dc < 0 || dc >= len(m.Status) {
		return DCUnknown
	}
	return m.Status[dc]
}

// IsMember reports whether dc currently participates in replication
// (Joining or Active).
func (m Membership) IsMember(dc int) bool {
	s := m.Get(dc)
	return s == DCJoining || s == DCActive
}

// Merge folds o into m entry-wise (statuses take the lattice maximum, the
// epoch takes the numeric maximum) and reports whether m changed. Entries of
// o beyond limit are ignored — the receiver's vector capacity bounds the DC
// ids it can track, and a hostile view must not grow state unboundedly.
func (m *Membership) Merge(o Membership, limit int) bool {
	changed := false
	n := len(o.Status)
	if n > limit {
		n = limit
	}
	if n > len(m.Status) {
		grown := make([]uint8, n)
		copy(grown, m.Status)
		m.Status = grown
		changed = true
	}
	for i := 0; i < n; i++ {
		if o.Status[i] > m.Status[i] {
			m.Status[i] = o.Status[i]
			changed = true
		}
	}
	nf := len(o.Final)
	if nf > limit {
		nf = limit
	}
	for i := 0; i < nf; i++ {
		if o.Final[i] > m.FinalOf(i) {
			m.SetFinal(i, o.Final[i])
			changed = true
		}
	}
	if o.Epoch > m.Epoch {
		m.Epoch = o.Epoch
		changed = true
	}
	return changed
}

// JoinRequest announces a joining DC's partition server to its sibling in a
// member DC: the sender asks to be added to the sibling's replication
// fan-out. View is the joiner's current view (itself marked DCJoining), so a
// sibling that never heard of the join learns it from the request itself.
type JoinRequest struct {
	DC   int
	View Membership
}

// MembershipUpdate carries a view to be folded in by the lattice merge: a
// joiner announcing itself DCActive once every inbound link has bootstrapped,
// a sibling's answer to a JoinRequest, or the verdict of a departure round —
// the departed DC recorded DCLeft with the final the survivors attested.
// What a receiver does on learning of a departure is repl's applyView.
type MembershipUpdate struct {
	View Membership
}

// EvictProposal opens a departure round: the proposer asks every surviving
// sibling how much of the departing DC's history it provably holds. A
// leaver proposes itself with Final, its last timestamp (> 0), which a
// survivor short of it fetches from the leaver; a survivor proposes a
// crashed DC with Final 0, whose final the survivors agree on. ReqID
// identifies the round; proposals are re-sent with backoff until every
// survivor has acknowledged, and acknowledging is idempotent.
type EvictProposal struct {
	DC    int
	ReqID uint64
	Final vclock.Timestamp
	View  Membership
}

// EvictAck answers an EvictProposal: Entry is the responder's version-vector
// entry for the departing DC — the timestamp through which its received
// prefix from that DC is gap-free and complete. An evicting proposer takes
// the maximum over all acks (and its own entry) as the agreed final; a
// leaver counts only an Entry at or above its Final.
type EvictAck struct {
	DC    int
	ReqID uint64
	Entry vclock.Timestamp
}

// SlotMapUpdate gossips an epoch-stamped slot table (keyspace.SlotMap).
// Receivers fold it in by the lattice merge and re-gossip on change, so a
// reshard driven at any one server converges across the deployment without
// coordination — the within-DC analogue of MembershipUpdate.
type SlotMapUpdate struct {
	Map *keyspace.SlotMap
}

// SlotHandoff forwards versions that reached a server which no longer owns
// their slots (a replication batch or catch-up chunk stamped with a
// pre-reshard slot epoch) to the slot's current in-DC owner. Handoff inserts
// are idempotent store writes only — they never advance the receiver's
// version vector, because the forwarding server cannot vouch for the
// origin's gap-free prefix. They are defense-in-depth: the reshard protocol
// drains in-flight traffic before flipping routing, so handoffs carry
// near-zero volume in practice.
type SlotHandoff struct {
	Versions []*item.Version
}

// SliceReq asks a same-DC partition to read keys within the transactional
// snapshot TV on behalf of a RO-TX coordinator. Visibility is fully encoded
// in TV (the coordinator builds it from its GSS for pessimistic transactions).
// Requests are pooled and own their Keys and TV: one may still be parked at a
// sibling after its transaction has failed. NewSliceReq draws one and whoever
// answers it calls Release — Send hands that duty over.
type SliceReq struct {
	TxID        uint64
	Coordinator netemu.NodeID
	Keys        []string
	TV          vclock.VC
}

// SliceResp returns the versions read for a SliceReq. Err is non-empty when
// the responder had to abort the slice (block timeout, shutdown, moved slot).
// Replies are pooled: NewSliceResp draws one and its last holder calls
// Release — Send hands that duty over (doc.go, "Ownership at each hand-off").
type SliceResp struct {
	TxID  uint64
	Items []ItemReply
	Err   string
}

var (
	sliceReqPool  = sync.Pool{New: func() any { return new(SliceReq) }}
	sliceRespPool = sync.Pool{New: func() any { return new(SliceResp) }}
)

// recycled empties a released message's buffer, clearing what it aliases
// (callers' keys, stored values), or drops one grown past 64 elements.
func recycled[T any](buf []T) []T {
	clear(buf)
	if cap(buf) > 64 {
		return nil
	}
	return buf[:0]
}

// NewSliceReq returns an empty request of transaction txID; Keys and TV keep
// the capacity an earlier use grew.
func NewSliceReq(txID uint64, coordinator netemu.NodeID) *SliceReq {
	r := sliceReqPool.Get().(*SliceReq)
	r.TxID, r.Coordinator = txID, coordinator
	return r
}

// Release recycles r, which the caller must not touch again.
func (r *SliceReq) Release() {
	*r = SliceReq{Keys: recycled(r.Keys), TV: recycled(r.TV)}
	sliceReqPool.Put(r)
}

// NewSliceResp returns an empty reply for txID; Items keeps the capacity an
// earlier use grew.
func NewSliceResp(txID uint64) *SliceResp {
	r := sliceRespPool.Get().(*SliceResp)
	r.TxID = txID
	return r
}

// Release recycles r, which the caller must not touch again.
func (r *SliceResp) Release() {
	*r = SliceResp{Items: recycled(r.Items)}
	sliceRespPool.Put(r)
}

// VVExchange is the stabilization message of the pessimistic protocol: nodes
// within a DC periodically broadcast their version vectors and compute the
// Globally Stable Snapshot as the aggregate minimum (§IV-C).
type VVExchange struct {
	Partition int
	VV        vclock.VC
}

// GCExchange carries a node's garbage-collection contribution: the aggregate
// minimum of its visibility vector and the snapshot vectors of its active
// transactions. The GC vector GV is the aggregate minimum across the DC.
type GCExchange struct {
	Partition int
	TV        vclock.VC
}

// ItemReply is the result of reading one key: the returned version's payload
// and causal metadata (value, update time, dependency vector, source replica
// — the GETReply of Algorithm 2, line 4) plus the chain statistics the
// evaluation reports.
type ItemReply struct {
	Key        string
	Exists     bool
	Value      []byte
	SrcReplica int
	UpdateTime vclock.Timestamp
	Deps       vclock.VC
	// Fresher counts LWW-newer versions hidden by the visibility rule
	// ("old" items, Fig. 2b); Invisible counts not-yet-visible versions in
	// the chain ("unmerged").
	Fresher   int
	Invisible int
}

// FromVersion builds an ItemReply for v (nil means the key has no visible
// version).
func FromVersion(key string, v *item.Version, fresher, invisible int) ItemReply {
	r := ItemReply{Key: key, Fresher: fresher, Invisible: invisible}
	if v != nil {
		r.Exists = true
		r.Value = v.Value
		r.SrcReplica = v.SrcReplica
		r.UpdateTime = v.UpdateTime
		r.Deps = v.Deps
	}
	return r
}
