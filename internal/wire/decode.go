// Decoding: a decoded message never aliases the frame buffer — strings,
// payloads and vectors are allocated individually (the RO-TX slice pair
// fills the lists and vectors of a pooled message), except in the
// version-list messages (ReplicateBatch, CatchUpReply, SlotHandoff), which
// copy the frame's tail once and carve everything out of that copy and one
// right-sized slab of records (see frameReader.versions).
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

var errShortFrame = fmt.Errorf("wire: short frame")

// frameReader walks one decoded frame. Methods record the first error; the
// caller checks err once at the end.
//
// While owned is set, keys and values alias b instead of being copied out one
// by one: the caller answers for b's lifetime. A version list sets it for a
// private copy of the frame's tail (see versions), and carves its records —
// version and dependency vector in one — from a slab sized from the list's
// count and the bytes left; a front-door request sets it for the frame itself,
// whose holder decides how long the request lives (see DecodeFrontDoorRequest).
type frameReader struct {
	b   []byte
	pos int
	err error

	owned bool
	slab  item.Slab
	left  int // versions of the list not yet decoded, this one included
}

func (f *frameReader) fail() {
	if f.err == nil {
		f.err = errShortFrame
	}
}

func (f *frameReader) byteVal() byte {
	if f.err != nil || f.pos >= len(f.b) {
		f.fail()
		return 0
	}
	v := f.b[f.pos]
	f.pos++
	return v
}

func (f *frameReader) uint() uint64 {
	if f.err != nil {
		return 0
	}
	v, n := binary.Uvarint(f.b[f.pos:])
	if n <= 0 {
		f.fail()
		return 0
	}
	f.pos += n
	return v
}

func (f *frameReader) bool() bool { return f.byteVal() != 0 }

func (f *frameReader) take(n uint64) []byte {
	if f.err != nil {
		return nil
	}
	if uint64(len(f.b)-f.pos) < n {
		f.fail()
		return nil
	}
	out := f.b[f.pos : f.pos+int(n)]
	f.pos += int(n)
	return out
}

func (f *frameReader) string() string {
	raw := f.take(f.uint())
	if !f.owned || len(raw) == 0 {
		return string(raw)
	}
	// Nobody writes to b while the string is in use: b is a version list's
	// private copy, or a request frame its holder keeps untouched.
	return unsafe.String(&raw[0], len(raw))
}

func (f *frameReader) bytes() []byte {
	n, present := f.listLen(1)
	if !present {
		return nil
	}
	raw := f.take(uint64(n))
	if f.err != nil {
		return nil
	}
	if f.owned {
		return raw[:len(raw):len(raw)]
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// finish returns the first recorded error, or a trailing-bytes error when
// the frame was not fully consumed: every decode in this package is strict.
func (f *frameReader) finish() error {
	if f.err != nil {
		return f.err
	}
	if f.pos != len(f.b) {
		return fmt.Errorf("wire: %d trailing bytes in frame", len(f.b)-f.pos)
	}
	return nil
}

// listLen reads a list's nil-preserving length marker: the element count
// and whether there is a list at all. Each element takes minBytes at least,
// so a count the unread bytes cannot hold fails before anything is sized
// from it.
func (f *frameReader) listLen(minBytes uint64) (n int, present bool) {
	marker := f.uint()
	if marker == 0 || f.err != nil {
		return 0, false
	}
	if uint64(len(f.b)-f.pos)/minBytes < marker-1 {
		f.fail()
		return 0, false
	}
	return int(marker - 1), true
}

// list decodes a nil-preserving list into buf's storage (a pooled message's,
// or none); an empty list gets room for one, to stay distinct from nil.
func list[T any](f *frameReader, buf []T, minBytes uint64, elem func() T) []T {
	n, present := f.listLen(minBytes)
	if !present {
		return nil
	}
	buf = slices.Grow(buf[:0], max(n, 1))
	for i := 0; i < n && f.err == nil; i++ {
		buf = append(buf, elem())
	}
	return buf
}

func (f *frameReader) vc() vclock.VC { return f.vcInto(nil) }

// vcInto decodes a vector into dst's storage, allocating only when dst is nil
// or too short.
func (f *frameReader) vcInto(dst vclock.VC) vclock.VC {
	n, present := f.listLen(1)
	if !present {
		return nil
	}
	if dst == nil || cap(dst) < n {
		dst = make(vclock.VC, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = vclock.Timestamp(f.uint())
	}
	return dst
}

// version decodes one version record: absolute timestamps, or — in a delta
// batch — UpdateTime and nonzero dependency entries as zigzag deltas against
// base (wraparound arithmetic, the exact inverse of appendVersionDelta). The
// scalar fields and the vector's length come first, then the record itself:
// version and vector in one allocation, carved inside a version list from a
// slab made when a size class first turns up, for the versions still to come
// — capped by how many records the unread bytes can hold — so a list of nil
// markers gets none, and a record of another class gets a slab of its own.
func (f *frameReader) version(delta bool, base uint64) *item.Version {
	if f.byteVal() == 0 {
		return nil
	}
	key, value, src, ut := f.string(), f.bytes(), int(f.uint()), f.uint()
	if delta {
		ut = base + unzigzag(ut)
	}
	n, present := f.listLen(1)
	if f.err != nil {
		return nil
	}
	v := f.slab.Take(n, max(min(f.left, (len(f.b)-f.pos)/minVersionBytes+1), 1))
	v.Key, v.Value, v.SrcReplica, v.UpdateTime = key, value, src, vclock.Timestamp(ut)
	for i := range v.Deps {
		t := f.uint()
		if delta && t != 0 {
			t = base + unzigzag(t-1)
		}
		v.Deps[i] = vclock.Timestamp(t)
	}
	if !present {
		v.Deps = nil
	}
	v.Optimistic = f.bool()
	if f.err != nil {
		return nil
	}
	return v
}

// minVersionBytes is the shortest encoding of a non-nil version record:
// presence byte, empty key, nil value, one-byte replica id and timestamp, nil
// dependency vector, optimistic flag.
const minVersionBytes = 7

// versions decodes a nil-preserving version list — the body of
// ReplicateBatch (delta or absolute records), CatchUpReply and SlotHandoff —
// allocating in proportion to the frame, not to the count it claims: one
// copy of the unread bytes that every key and value then aliases, one slab
// of records bounded by how many those bytes can hold (version) and the
// pointer list. The cost is retention at list granularity: a live version
// keeps its list's copy and slab reachable, so one that outlives its
// batch-mates holds at most one frame's worth of neighbors. Whoever stores a
// decoded version must keep nothing of it past the version itself (storage's
// chain map follows that rule for the key, see storage.Mem).
func (f *frameReader) versions(delta bool, base uint64) []*item.Version {
	n, present := f.listLen(1) // a nil version takes one byte
	if !present {
		return nil
	}
	out := make([]*item.Version, 0, n)
	if n == 0 {
		return out
	}
	own := bytes.Clone(f.b[f.pos:])
	f.b, f.pos, f.owned = own, 0, true
	for f.left = n; f.left > 0 && f.err == nil; f.left-- {
		out = append(out, f.version(delta, base))
	}
	f.owned = false
	return out
}

func (f *frameReader) membership() msg.Membership {
	return msg.Membership{Epoch: f.uint(), Status: f.bytes(), Final: f.vc()}
}

// slotMap decodes an epoch-stamped slot table and validates its structural
// invariants (owners in range, stamps below the epoch) so a corrupted frame
// cannot install a table that routes keys to nonexistent partitions.
func (f *frameReader) slotMap() *keyspace.SlotMap {
	if f.byteVal() == 0 {
		return nil
	}
	m := &keyspace.SlotMap{}
	m.Epoch = f.uint()
	m.Parts = int(f.uint())
	owners := f.take(keyspace.NumSlots)
	if f.err != nil {
		return nil
	}
	copy(m.Owner[:], owners)
	for s := 0; s < keyspace.NumSlots; s++ {
		m.Stamp[s] = f.uint()
	}
	if f.err != nil {
		return nil
	}
	if err := m.Validate(); err != nil {
		f.err = err
		return nil
	}
	return m
}

// minItemReplyBytes is the shortest item reply: eight one-byte fields.
const minItemReplyBytes = 8

func (f *frameReader) itemReply() msg.ItemReply {
	var r msg.ItemReply
	r.Key = f.string()
	r.Exists = f.bool()
	r.Value = f.bytes()
	r.SrcReplica = int(f.uint())
	r.UpdateTime = vclock.Timestamp(f.uint())
	r.Deps = f.vc()
	r.Fresher = int(f.uint())
	r.Invisible = int(f.uint())
	return r
}

func parsePayload(frame []byte) (Envelope, error) {
	var env Envelope
	f := &frameReader{b: frame}
	tag := f.byteVal()
	env.Src.DC = int(f.uint())
	env.Src.Partition = int(f.uint())
	switch tag {
	case tagReplicateBatch:
		var m msg.ReplicateBatch
		m.HBTime = vclock.Timestamp(f.uint())
		format := f.byteVal()
		if format > batchDelta {
			f.fail()
		}
		m.Versions = f.versions(format == batchDelta, uint64(m.HBTime))
		m.Epoch = f.uint()
		m.Seq = f.uint()
		m.Floor = vclock.Timestamp(f.uint())
		m.SlotEpoch = f.uint()
		env.Msg = m
	case tagHeartbeat:
		env.Msg = msg.Heartbeat{Time: vclock.Timestamp(f.uint()), Epoch: f.uint(),
			Seq: f.uint(), Floor: vclock.Timestamp(f.uint())}
	case tagSliceReq:
		// The slice pair is pooled: whoever answers a request, or folds in a
		// reply, releases it — or this function, when the frame is bad.
		m := msg.NewSliceReq(f.uint(), netemu.NodeID{DC: int(f.uint()), Partition: int(f.uint())})
		m.Keys = list(f, m.Keys, 1, f.string)
		m.TV = f.vcInto(m.TV)
		if err := f.finish(); err != nil {
			m.Release()
			return env, err
		}
		env.Msg = m
	case tagSliceResp:
		m := msg.NewSliceResp(f.uint())
		m.Items = list(f, m.Items, minItemReplyBytes, f.itemReply)
		m.Err = f.string()
		if err := f.finish(); err != nil {
			m.Release()
			return env, err
		}
		env.Msg = m
	case tagVVExchange:
		env.Msg = msg.VVExchange{Partition: int(f.uint()), VV: f.vc(),
			Watermark: vclock.Timestamp(f.uint())}
	case tagGCExchange:
		env.Msg = msg.GCExchange{Partition: int(f.uint()), TV: f.vc()}
	case tagCatchUpRequest:
		env.Msg = msg.CatchUpRequest{ReqID: f.uint(), From: vclock.Timestamp(f.uint()), Have: f.vc()}
	case tagCatchUpReply:
		var m msg.CatchUpReply
		m.ReqID = f.uint()
		m.Chunk = f.uint()
		m.Versions = f.versions(false, 0)
		m.Done = f.bool()
		m.Unsupported = f.bool()
		m.ResumeEpoch = f.uint()
		m.ResumeSeq = f.uint()
		m.Through = vclock.Timestamp(f.uint())
		m.FullResync = f.bool()
		m.Departed = list(f, nil, 2, func() msg.DepartedClaim {
			return msg.DepartedClaim{DC: int(f.uint()), Through: vclock.Timestamp(f.uint())}
		})
		m.SlotEpoch = f.uint()
		m.Progress = f.vc()
		env.Msg = m
	case tagCatchUpAck:
		env.Msg = msg.CatchUpAck{ReqID: f.uint(), Chunk: f.uint()}
	case tagJoinRequest:
		env.Msg = msg.JoinRequest{DC: int(f.uint()), View: f.membership()}
	case tagMembershipUpdate:
		env.Msg = msg.MembershipUpdate{View: f.membership()}
	case tagLeaveNotice:
		env.Msg = msg.LeaveNotice{DC: int(f.uint()), Final: vclock.Timestamp(f.uint()), View: f.membership()}
	case tagEvictProposal:
		env.Msg = msg.EvictProposal{DC: int(f.uint()), ReqID: f.uint(), View: f.membership()}
	case tagEvictAck:
		env.Msg = msg.EvictAck{DC: int(f.uint()), ReqID: f.uint(), Entry: vclock.Timestamp(f.uint())}
	case tagSlotMapUpdate:
		env.Msg = msg.SlotMapUpdate{Map: f.slotMap()}
	case tagSlotHandoff:
		var m msg.SlotHandoff
		m.Versions = f.versions(false, 0)
		env.Msg = m
	default:
		return env, fmt.Errorf("wire: unknown message tag %d", tag)
	}
	return env, f.finish()
}
