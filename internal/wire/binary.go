// The binary codec: a hand-rolled, length-prefixed wire format for the
// protocol message set. Each envelope is framed as
//
//	uvarint(payload length) || payload
//
// and the payload is
//
//	byte(message tag) || uvarint(src.DC) || uvarint(src.Partition) || fields
//
// Integers (timestamps, replica ids, counters) are unsigned varints — the
// protocol only carries non-negative values. Variable-length fields
// (strings, byte slices, vectors, version lists) carry a length marker that
// distinguishes nil from empty (0 = nil, n+1 = n elements), so a decoded
// message is structurally identical to the encoded one.
//
// The encoder reuses two scratch buffers across calls, so a steady-state
// Encode performs zero allocations and exactly one Write (one frame). The
// decoder reuses its frame buffer and a decoded message never aliases it:
// strings, payloads and vectors are allocated individually (the RO-TX slice
// pair fills the lists and vectors of a pooled message), except in the
// version-list messages (ReplicateBatch, CatchUpReply, SlotHandoff), which
// copy the frame's tail once and carve everything out of that copy and one
// right-sized slab of records (see frameReader.versions).
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"unsafe"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// Message tags. Three are reserved, so a frame that carries one is an
// unknown-tag decode error: tag 1 carried the single-version Replicate
// message, tags 12 and 17 JoinAccept and EvictNotice — each a membership view
// under a tag of its own, sent as a MembershipUpdate now.
const (
	_ = iota + 1
	tagReplicateBatch
	tagHeartbeat
	tagSliceReq
	tagSliceResp
	tagVVExchange
	tagGCExchange
	tagCatchUpRequest
	tagCatchUpReply
	tagCatchUpAck
	tagJoinRequest
	_ // 12, reserved
	tagMembershipUpdate
	tagLeaveNotice
	tagEvictProposal
	tagEvictAck
	_ // 17, reserved
	tagSlotMapUpdate
	tagSlotHandoff
)

// maxFrame bounds a frame's payload so a corrupted length prefix cannot ask
// the decoder to allocate gigabytes.
const maxFrame = 1 << 28

// BinaryEncoder writes binary-encoded envelopes to a stream.
type BinaryEncoder struct {
	w   io.Writer
	pay []byte // payload scratch, reused across Encode calls
	out []byte // frame scratch (length prefix + payload)
}

// NewBinaryEncoder wraps w.
func NewBinaryEncoder(w io.Writer) *BinaryEncoder {
	return &BinaryEncoder{w: w}
}

// Encode writes one envelope as a single frame (one Write call).
func (e *BinaryEncoder) Encode(env Envelope) error {
	pay, err := appendPayload(e.pay[:0], env)
	if err != nil {
		return err
	}
	e.pay = pay
	e.out = binary.AppendUvarint(e.out[:0], uint64(len(pay)))
	e.out = append(e.out, pay...)
	if _, err := e.w.Write(e.out); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return nil
}

// BinaryDecoder reads binary-encoded envelopes from a stream.
type BinaryDecoder struct {
	r   *bufio.Reader
	buf []byte // frame buffer, reused across Decode calls
}

// NewBinaryDecoder wraps r.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &BinaryDecoder{r: br}
}

// Decode reads one envelope. It returns io.EOF unwrapped at a clean stream
// end so callers can end their read loops.
func (d *BinaryDecoder) Decode() (Envelope, error) {
	var env Envelope
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		if err == io.EOF {
			return env, io.EOF
		}
		return env, fmt.Errorf("wire: decode: %w", err)
	}
	if n > maxFrame {
		return env, fmt.Errorf("wire: decode: frame of %d bytes exceeds limit", n)
	}
	if uint64(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	frame := d.buf[:n]
	if _, err := io.ReadFull(d.r, frame); err != nil {
		return env, fmt.Errorf("wire: decode: truncated frame: %w", err)
	}
	env, err = parsePayload(frame)
	if err != nil {
		return env, fmt.Errorf("wire: decode: %w", err)
	}
	return env, nil
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

func appendPayload(b []byte, env Envelope) ([]byte, error) {
	var tag byte
	switch env.Msg.(type) {
	case msg.ReplicateBatch:
		tag = tagReplicateBatch
	case msg.Heartbeat:
		tag = tagHeartbeat
	case *msg.SliceReq:
		tag = tagSliceReq
	case *msg.SliceResp:
		tag = tagSliceResp
	case msg.VVExchange:
		tag = tagVVExchange
	case msg.GCExchange:
		tag = tagGCExchange
	case msg.CatchUpRequest:
		tag = tagCatchUpRequest
	case msg.CatchUpReply:
		tag = tagCatchUpReply
	case msg.CatchUpAck:
		tag = tagCatchUpAck
	case msg.JoinRequest:
		tag = tagJoinRequest
	case msg.MembershipUpdate:
		tag = tagMembershipUpdate
	case msg.LeaveNotice:
		tag = tagLeaveNotice
	case msg.EvictProposal:
		tag = tagEvictProposal
	case msg.EvictAck:
		tag = tagEvictAck
	case msg.SlotMapUpdate:
		tag = tagSlotMapUpdate
	case msg.SlotHandoff:
		tag = tagSlotHandoff
	default:
		return b, fmt.Errorf("wire: encode: unsupported message type %T", env.Msg)
	}
	b = append(b, tag)
	b = appendUint(b, uint64(env.Src.DC))
	b = appendUint(b, uint64(env.Src.Partition))
	switch m := env.Msg.(type) {
	case msg.ReplicateBatch:
		// HBTime leads the payload: it is the delta base for the version
		// timestamps that follow. A format byte picks between the compact
		// zigzag-delta layout (the default — HLC timestamps inside one
		// batch cluster tightly around HBTime) and the absolute pre-HLC
		// layout, kept for the one delta value the dep encoding cannot
		// represent (see canDeltaBatch).
		b = appendUint(b, uint64(m.HBTime))
		if canDeltaBatch(m) {
			b = append(b, batchDelta)
			base := uint64(m.HBTime)
			if m.Versions == nil {
				b = appendUint(b, 0)
			} else {
				b = appendUint(b, uint64(len(m.Versions))+1)
				for _, v := range m.Versions {
					b = appendVersionDelta(b, v, base)
				}
			}
		} else {
			b = append(b, batchAbsolute)
			if m.Versions == nil {
				b = appendUint(b, 0)
			} else {
				b = appendUint(b, uint64(len(m.Versions))+1)
				for _, v := range m.Versions {
					b = appendVersion(b, v)
				}
			}
		}
		b = appendUint(b, m.Epoch)
		b = appendUint(b, m.Seq)
		b = appendUint(b, uint64(m.Floor))
		b = appendUint(b, m.SlotEpoch)
	case msg.Heartbeat:
		b = appendUint(b, uint64(m.Time))
		b = appendUint(b, m.Epoch)
		b = appendUint(b, m.Seq)
		b = appendUint(b, uint64(m.Floor))
	case *msg.SliceReq:
		b = appendUint(b, m.TxID)
		b = appendUint(b, uint64(m.Coordinator.DC))
		b = appendUint(b, uint64(m.Coordinator.Partition))
		if m.Keys == nil {
			b = appendUint(b, 0)
		} else {
			b = appendUint(b, uint64(len(m.Keys))+1)
			for _, k := range m.Keys {
				b = appendString(b, k)
			}
		}
		b = appendVC(b, m.TV)
	case *msg.SliceResp:
		b = appendUint(b, m.TxID)
		if m.Items == nil {
			b = appendUint(b, 0)
		} else {
			b = appendUint(b, uint64(len(m.Items))+1)
			for i := range m.Items {
				b = appendItemReply(b, &m.Items[i])
			}
		}
		b = appendString(b, m.Err)
	case msg.VVExchange:
		b = appendUint(b, uint64(m.Partition))
		b = appendVC(b, m.VV)
		b = appendUint(b, uint64(m.Watermark))
	case msg.GCExchange:
		b = appendUint(b, uint64(m.Partition))
		b = appendVC(b, m.TV)
	case msg.CatchUpRequest:
		b = appendUint(b, m.ReqID)
		b = appendUint(b, uint64(m.From))
		b = appendVC(b, m.Have)
	case msg.CatchUpReply:
		b = appendUint(b, m.ReqID)
		b = appendUint(b, m.Chunk)
		if m.Versions == nil {
			b = appendUint(b, 0)
		} else {
			b = appendUint(b, uint64(len(m.Versions))+1)
			for _, v := range m.Versions {
				b = appendVersion(b, v)
			}
		}
		b = appendBool(b, m.Done)
		b = appendBool(b, m.Unsupported)
		b = appendUint(b, m.ResumeEpoch)
		b = appendUint(b, m.ResumeSeq)
		b = appendUint(b, uint64(m.Through))
		b = appendBool(b, m.FullResync)
		if m.Departed == nil {
			b = appendUint(b, 0)
		} else {
			b = appendUint(b, uint64(len(m.Departed))+1)
			for _, c := range m.Departed {
				b = appendUint(b, uint64(c.DC))
				b = appendUint(b, uint64(c.Through))
			}
		}
		b = appendUint(b, m.SlotEpoch)
		b = appendVC(b, m.Progress)
	case msg.CatchUpAck:
		b = appendUint(b, m.ReqID)
		b = appendUint(b, m.Chunk)
	case msg.JoinRequest:
		b = appendUint(b, uint64(m.DC))
		b = appendMembership(b, m.View)
	case msg.MembershipUpdate:
		b = appendMembership(b, m.View)
	case msg.LeaveNotice:
		b = appendUint(b, uint64(m.DC))
		b = appendUint(b, uint64(m.Final))
		b = appendMembership(b, m.View)
	case msg.EvictProposal:
		b = appendUint(b, uint64(m.DC))
		b = appendUint(b, m.ReqID)
		b = appendMembership(b, m.View)
	case msg.EvictAck:
		b = appendUint(b, uint64(m.DC))
		b = appendUint(b, m.ReqID)
		b = appendUint(b, uint64(m.Entry))
	case msg.SlotMapUpdate:
		b = appendSlotMap(b, m.Map)
	case msg.SlotHandoff:
		if m.Versions == nil {
			b = appendUint(b, 0)
		} else {
			b = appendUint(b, uint64(len(m.Versions))+1)
			for _, v := range m.Versions {
				b = appendVersion(b, v)
			}
		}
	}
	return b, nil
}

// appendSlotMap encodes an epoch-stamped slot table: presence byte, epoch,
// partition count, the 256 owner bytes raw, then the 256 per-slot stamps as
// varints (almost all zero in steady state, so one byte each).
func appendSlotMap(b []byte, m *keyspace.SlotMap) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendUint(b, m.Epoch)
	b = appendUint(b, uint64(m.Parts))
	b = append(b, m.Owner[:]...)
	for s := 0; s < keyspace.NumSlots; s++ {
		b = appendUint(b, m.Stamp[s])
	}
	return b
}

func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = appendUint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBytes encodes a byte slice with a nil-preserving length marker.
func appendBytes(b, p []byte) []byte {
	if p == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(p))+1)
	return append(b, p...)
}

// appendVC encodes a vector clock with a nil-preserving length marker and
// varint entries (small timestamps — the common case after the per-process
// epoch anchoring — take few bytes).
func appendVC(b []byte, v vclock.VC) []byte {
	if v == nil {
		return appendUint(b, 0)
	}
	b = appendUint(b, uint64(len(v))+1)
	for _, t := range v {
		b = appendUint(b, uint64(t))
	}
	return b
}

func appendVersion(b []byte, v *item.Version) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendString(b, v.Key)
	b = appendBytes(b, v.Value)
	b = appendUint(b, uint64(v.SrcReplica))
	b = appendUint(b, uint64(v.UpdateTime))
	b = appendVC(b, v.Deps)
	b = appendBool(b, v.Optimistic)
	return b
}

// ReplicateBatch payload formats: version records carry either absolute
// timestamps (the pre-HLC layout) or varint zigzag deltas against the batch
// HBTime.
const (
	batchAbsolute = 0
	batchDelta    = 1
)

// zigzag maps a wrapped (two's-complement) timestamp delta to a varint-
// friendly unsigned value: small magnitudes of either sign take few bytes.
// It is a bijection on all 64-bit values; unzigzag inverts it.
func zigzag(d uint64) uint64   { return (d << 1) ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return (z >> 1) ^ -(z & 1) }

// canDeltaBatch reports whether the batch is representable in the delta
// format. The only gap: a nonzero dependency entry encodes as
// zigzag(entry-base)+1 so that zero entries keep their one-byte marker, and
// the +1 wraps onto the marker for the single delta value 1<<63. The encoder
// falls back to the absolute layout for such a batch; the decoder accepts
// both.
func canDeltaBatch(m msg.ReplicateBatch) bool {
	base := uint64(m.HBTime)
	for _, v := range m.Versions {
		if v == nil {
			continue
		}
		for _, t := range v.Deps {
			if t != 0 && uint64(t)-base == 1<<63 {
				return false
			}
		}
	}
	return true
}

// appendVersionDelta encodes a version record with UpdateTime and dependency
// entries as zigzag deltas against base (the batch HBTime). With hybrid
// clocks the timestamps in one flush window sit within microseconds of the
// base, so the 8-9 byte absolute varints collapse to 1-2 bytes each.
func appendVersionDelta(b []byte, v *item.Version, base uint64) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendString(b, v.Key)
	b = appendBytes(b, v.Value)
	b = appendUint(b, uint64(v.SrcReplica))
	b = appendUint(b, zigzag(uint64(v.UpdateTime)-base))
	if v.Deps == nil {
		b = appendUint(b, 0)
	} else {
		b = appendUint(b, uint64(len(v.Deps))+1)
		for _, t := range v.Deps {
			if t == 0 {
				b = appendUint(b, 0)
			} else {
				b = appendUint(b, zigzag(uint64(t)-base)+1)
			}
		}
	}
	b = appendBool(b, v.Optimistic)
	return b
}

// AppendVersion appends the codec's encoding of a version record to b — the
// same bytes an absolute-layout version list carries per version. The
// write-ahead log (internal/wal) reuses it for its durable version records,
// so a WAL record and a shipped catch-up version agree byte for byte.
func AppendVersion(b []byte, v *item.Version) []byte { return appendVersion(b, v) }

// MaxVersionSize bounds len(AppendVersion(nil, v)) from above without
// encoding: the marker and flag bytes, the key and value, and a longest
// varint for each of the five lengths and numbers and every vector entry.
func MaxVersionSize(v *item.Version) int {
	return 2 + len(v.Key) + len(v.Value) + (5+len(v.Deps))*binary.MaxVarintLen64
}

// VersionTag extracts just (SrcReplica, UpdateTime) from an encoded version
// record without decoding — or allocating — the rest. The write-ahead log
// uses it to tag the records it replays and checkpoints for its per-segment
// range index, so it must stay a few header reads, not a full decode.
// ok=false means the bytes are not a well-formed version record prefix.
func VersionTag(rec []byte) (src int, ts uint64, ok bool) {
	if len(rec) < 1 || rec[0] != 1 {
		return 0, 0, false
	}
	b := rec[1:]
	for i := 0; i < 2; i++ { // key string, then value bytes: skip both
		n, un := binary.Uvarint(b)
		if un <= 0 {
			return 0, 0, false
		}
		b = b[un:]
		if i == 1 { // value length carries a +1 nil marker
			if n == 0 {
				continue
			}
			n--
		}
		if uint64(len(b)) < n {
			return 0, 0, false
		}
		b = b[n:]
	}
	s, un := binary.Uvarint(b)
	if un <= 0 {
		return 0, 0, false
	}
	b = b[un:]
	t, un := binary.Uvarint(b)
	if un <= 0 {
		return 0, 0, false
	}
	return int(s), t, true
}

// DecodeVersion parses one version record from the front of b, returning the
// version and the number of bytes consumed. Corrupted or truncated input
// yields an error, never a panic, and a nil-version marker is rejected (logs
// only store real versions).
func DecodeVersion(b []byte) (*item.Version, int, error) {
	f := &frameReader{b: b}
	v := f.version(false, 0)
	if f.err != nil {
		return nil, 0, f.err
	}
	if v == nil {
		return nil, 0, fmt.Errorf("wire: nil version record")
	}
	return v, f.pos, nil
}

// appendMembership encodes an epoch-stamped membership view: the epoch, the
// status bytes, then the departed-final vector — both with nil-preserving
// length markers.
func appendMembership(b []byte, m msg.Membership) []byte {
	b = appendUint(b, m.Epoch)
	b = appendBytes(b, m.Status)
	return appendVC(b, m.Final)
}

func appendItemReply(b []byte, r *msg.ItemReply) []byte {
	b = appendString(b, r.Key)
	b = appendBool(b, r.Exists)
	b = appendBytes(b, r.Value)
	b = appendUint(b, uint64(r.SrcReplica))
	b = appendUint(b, uint64(r.UpdateTime))
	b = appendVC(b, r.Deps)
	b = appendUint(b, uint64(r.Fresher))
	b = appendUint(b, uint64(r.Invisible))
	return b
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

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
	marker := f.uint()
	if marker == 0 || f.err != nil {
		return nil
	}
	raw := f.take(marker - 1)
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

// vcLen reads a vector's nil-preserving length marker: the entry count and
// whether there is a vector at all. Each entry takes at least one byte, so a
// count the unread bytes cannot hold fails before anything is sized from it.
func (f *frameReader) vcLen() (n int, present bool) {
	marker := f.uint()
	if marker == 0 || f.err != nil {
		return 0, false
	}
	if uint64(len(f.b)-f.pos) < marker-1 {
		f.fail()
		return 0, false
	}
	return int(marker - 1), true
}

// list decodes a nil-preserving list into buf's storage (a pooled message's,
// or none). Each element takes minBytes at least, so a count the unread bytes
// cannot encode fails before buf is sized from it; an empty list gets room
// for one, to stay distinct from nil.
func list[T any](f *frameReader, buf []T, minBytes uint64, elem func() T) []T {
	marker := f.uint()
	if marker == 0 || f.err != nil {
		return nil
	}
	n := marker - 1
	if uint64(len(f.b)-f.pos)/minBytes < n {
		f.fail()
		return nil
	}
	buf = slices.Grow(buf[:0], max(int(n), 1))
	for i := uint64(0); i < n && f.err == nil; i++ {
		buf = append(buf, elem())
	}
	return buf
}

func (f *frameReader) vc() vclock.VC { return f.vcInto(nil) }

// vcInto decodes a vector into dst's storage, allocating only when dst is nil
// or too short.
func (f *frameReader) vcInto(dst vclock.VC) vclock.VC {
	n, present := f.vcLen()
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
	n, present := f.vcLen()
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
	marker := f.uint()
	if marker == 0 || f.err != nil {
		return nil
	}
	n := marker - 1
	rest := uint64(len(f.b) - f.pos)
	if rest < n { // a nil version takes one byte
		f.fail()
		return nil
	}
	out := make([]*item.Version, 0, n)
	if n == 0 {
		return out
	}
	own := make([]byte, rest)
	copy(own, f.b[f.pos:])
	f.b, f.pos, f.owned = own, 0, true
	for f.left = int(n); f.left > 0 && f.err == nil; f.left-- {
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
