// Encoding: the payload of an envelope is
//
//	byte(message tag) || uvarint(src.DC) || uvarint(src.Partition) || fields
//
// Integers (timestamps, replica ids, counters) are unsigned varints — the
// protocol only carries non-negative values. Variable-length fields
// (strings, byte slices, vectors, version lists) carry a length marker that
// distinguishes nil from empty (0 = nil, n+1 = n elements), so a decoded
// message is structurally identical to the encoded one.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// Message tags. Four are reserved, so a frame that carries one is an
// unknown-tag decode error: tag 1 carried the single-version Replicate
// message, tags 12 and 17 JoinAccept and EvictNotice — each a membership view
// under a tag of its own, sent as a MembershipUpdate now — and tag 14 the
// leave notice, a leave being a departure round (EvictProposal) now.
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
	_ // 14, reserved
	tagEvictProposal
	tagEvictAck
	_ // 17, reserved
	tagSlotMapUpdate
	tagSlotHandoff
)

// appendPayload appends env's payload: each case writes its message's tag
// and the source header, then the fields.
func appendPayload(b []byte, env Envelope) ([]byte, error) {
	switch m := env.Msg.(type) {
	case *msg.ReplicateBatch:
		b = appendBatch(b, env.Src, m)
	case *msg.Heartbeat:
		b = appendHeartbeat(b, env.Src, m)
	// The value forms only bench/probes.go still sends; ROADMAP arc 4's
	// leftover "pointer-typed messages" converts the probe and deletes them.
	case msg.ReplicateBatch:
		b = appendBatch(b, env.Src, &m)
	case msg.Heartbeat:
		b = appendHeartbeat(b, env.Src, &m)
	case *msg.SliceReq:
		b = appendHeader(b, tagSliceReq, env.Src)
		b = appendUint(b, m.TxID)
		b = appendUint(b, uint64(m.Coordinator.DC))
		b = appendUint(b, uint64(m.Coordinator.Partition))
		b = appendList(b, m.Keys, appendString)
		b = appendVC(b, m.TV)
	case *msg.SliceResp:
		b = appendHeader(b, tagSliceResp, env.Src)
		b = appendUint(b, m.TxID)
		b = appendList(b, m.Items, appendItemReply)
		b = appendString(b, m.Err)
	case msg.VVExchange:
		b = appendHeader(b, tagVVExchange, env.Src)
		b = appendUint(b, uint64(m.Partition))
		b = appendVC(b, m.VV)
		b = appendUint(b, uint64(m.Watermark))
	case msg.GCExchange:
		b = appendHeader(b, tagGCExchange, env.Src)
		b = appendUint(b, uint64(m.Partition))
		b = appendVC(b, m.TV)
	case msg.CatchUpRequest:
		b = appendHeader(b, tagCatchUpRequest, env.Src)
		b = appendUint(b, m.ReqID)
		b = appendUint(b, uint64(m.From))
		b = appendVC(b, m.Have)
	case msg.CatchUpReply:
		b = appendHeader(b, tagCatchUpReply, env.Src)
		b = appendUint(b, m.ReqID)
		b = appendUint(b, m.Chunk)
		b = appendList(b, m.Versions, AppendVersion)
		b = appendBool(b, m.Done)
		b = appendBool(b, m.Unsupported)
		b = appendUint(b, m.ResumeEpoch)
		b = appendUint(b, m.ResumeSeq)
		b = appendUint(b, uint64(m.Through))
		b = appendList(b, m.Departed, func(b []byte, c msg.DepartedClaim) []byte {
			return appendUint(appendUint(b, uint64(c.DC)), uint64(c.Through))
		})
		b = appendUint(b, m.SlotEpoch)
	case msg.CatchUpAck:
		b = appendHeader(b, tagCatchUpAck, env.Src)
		b = appendUint(b, m.ReqID)
		b = appendUint(b, m.Chunk)
	case msg.JoinRequest:
		b = appendHeader(b, tagJoinRequest, env.Src)
		b = appendUint(b, uint64(m.DC))
		b = appendMembership(b, m.View)
	case msg.MembershipUpdate:
		b = appendHeader(b, tagMembershipUpdate, env.Src)
		b = appendMembership(b, m.View)
	case msg.EvictProposal:
		b = appendHeader(b, tagEvictProposal, env.Src)
		b = appendUint(b, uint64(m.DC))
		b = appendUint(b, m.ReqID)
		b = appendUint(b, uint64(m.Final))
		b = appendMembership(b, m.View)
	case msg.EvictAck:
		b = appendHeader(b, tagEvictAck, env.Src)
		b = appendUint(b, uint64(m.DC))
		b = appendUint(b, m.ReqID)
		b = appendUint(b, uint64(m.Entry))
	case msg.SlotMapUpdate:
		b = appendHeader(b, tagSlotMapUpdate, env.Src)
		b = appendSlotMap(b, m.Map)
	case msg.SlotHandoff:
		b = appendHeader(b, tagSlotHandoff, env.Src)
		b = appendList(b, m.Versions, AppendVersion)
	default:
		return b, fmt.Errorf("wire: encode: unsupported message type %T", env.Msg)
	}
	return b, nil
}

// appendBatch appends a ReplicateBatch's payload. HBTime leads it: it is
// the delta base for the version timestamps that follow. A format byte picks
// between the compact zigzag-delta layout (the default — HLC timestamps
// inside one batch cluster tightly around HBTime) and the absolute pre-HLC
// layout, kept for the one delta value the dep encoding cannot represent
// (see canDeltaBatch).
func appendBatch(b []byte, src netemu.NodeID, m *msg.ReplicateBatch) []byte {
	b = appendHeader(b, tagReplicateBatch, src)
	b = appendUint(b, uint64(m.HBTime))
	if canDeltaBatch(m) {
		base := uint64(m.HBTime)
		b = append(b, batchDelta)
		b = appendList(b, m.Versions, func(b []byte, v *item.Version) []byte {
			return appendVersionDelta(b, v, base)
		})
	} else {
		b = append(b, batchAbsolute)
		b = appendList(b, m.Versions, AppendVersion)
	}
	b = appendUint(b, m.Epoch)
	b = appendUint(b, m.Seq)
	b = appendUint(b, uint64(m.Floor))
	return appendUint(b, m.SlotEpoch)
}

func appendHeartbeat(b []byte, src netemu.NodeID, m *msg.Heartbeat) []byte {
	b = appendHeader(b, tagHeartbeat, src)
	b = appendUint(b, uint64(m.Time))
	b = appendUint(b, m.Epoch)
	b = appendUint(b, m.Seq)
	return appendUint(b, uint64(m.Floor))
}

// appendHeader appends a payload's leading tag and source node.
func appendHeader(b []byte, tag byte, src netemu.NodeID) []byte {
	b = append(b, tag)
	b = appendUint(b, uint64(src.DC))
	return appendUint(b, uint64(src.Partition))
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

// appendMarker appends a nil-preserving length marker: 0 for nil, n+1 for
// n elements.
func appendMarker(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return appendUint(b, uint64(n)+1)
}

// appendBytes encodes a byte slice behind a nil-preserving length marker.
func appendBytes(b, p []byte) []byte {
	return append(appendMarker(b, len(p), p == nil), p...)
}

// appendList encodes a list behind a nil-preserving length marker, then
// each element — the encode twin of list.
func appendList[T any](b []byte, l []T, elem func([]byte, T) []byte) []byte {
	b = appendMarker(b, len(l), l == nil)
	for _, x := range l {
		b = elem(b, x)
	}
	return b
}

// appendVC encodes a vector clock as a list of varint entries (small
// timestamps — the common case after the per-process epoch anchoring — take
// few bytes).
func appendVC(b []byte, v vclock.VC) []byte {
	return appendList(b, v, appendTimestamp)
}

func appendTimestamp(b []byte, t vclock.Timestamp) []byte { return appendUint(b, uint64(t)) }

// AppendVersion appends the codec's encoding of a version record to b — the
// same bytes an absolute-layout version list carries per version. The
// write-ahead log (internal/wal) reuses it for its durable version records,
// so a WAL record and a shipped catch-up version agree byte for byte.
func AppendVersion(b []byte, v *item.Version) []byte {
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
func canDeltaBatch(m *msg.ReplicateBatch) bool {
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
	b = appendList(b, v.Deps, func(b []byte, t vclock.Timestamp) []byte {
		if t == 0 {
			return appendUint(b, 0)
		}
		return appendUint(b, zigzag(uint64(t)-base)+1)
	})
	b = appendBool(b, v.Optimistic)
	return b
}

// MaxVersionSize bounds len(AppendVersion(nil, v)) from above without
// encoding: the marker and flag bytes, the key and value, and a longest
// varint for each of the five lengths and numbers and every vector entry.
func MaxVersionSize(v *item.Version) int {
	return 2 + len(v.Key) + len(v.Value) + (5+len(v.Deps))*binary.MaxVarintLen64
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

func appendItemReply(b []byte, r msg.ItemReply) []byte {
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
