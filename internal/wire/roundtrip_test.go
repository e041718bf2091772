package wire

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// genVC returns nil, empty, or a random vector — the three shapes dependency
// vectors take on the wire.
func genVC(r *rand.Rand) vclock.VC {
	switch r.IntN(4) {
	case 0:
		return nil
	case 1:
		return vclock.VC{}
	default:
		v := make(vclock.VC, 1+r.IntN(5))
		for i := range v {
			v[i] = vclock.Timestamp(r.Uint64N(1 << 62))
		}
		return v
	}
}

func genBytes(r *rand.Rand) []byte {
	switch r.IntN(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	default:
		b := make([]byte, r.IntN(64))
		for i := range b {
			b[i] = byte(r.Uint32())
		}
		return b
	}
}

func genString(r *rand.Rand) string {
	n := r.IntN(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.IntN(26))
	}
	return string(b)
}

func genVersion(r *rand.Rand) *item.Version {
	return &item.Version{
		Key:        genString(r),
		Value:      genBytes(r),
		SrcReplica: r.IntN(8),
		UpdateTime: vclock.Timestamp(r.Uint64N(1 << 62)),
		Deps:       genVC(r),
		Optimistic: r.IntN(2) == 0,
	}
}

func genItemReply(r *rand.Rand) msg.ItemReply {
	return msg.ItemReply{
		Key:        genString(r),
		Exists:     r.IntN(2) == 0,
		Value:      genBytes(r),
		SrcReplica: r.IntN(8),
		UpdateTime: vclock.Timestamp(r.Uint64N(1 << 62)),
		Deps:       genVC(r),
		Fresher:    r.IntN(10),
		Invisible:  r.IntN(10),
	}
}

// genMembership returns nil-status, empty, or a random membership view.
func genMembership(r *rand.Rand) msg.Membership {
	m := msg.Membership{Epoch: r.Uint64()}
	switch r.IntN(4) {
	case 0: // nil Status
	case 1:
		m.Status = []uint8{}
	default:
		m.Status = make([]uint8, 1+r.IntN(6))
		for i := range m.Status {
			m.Status[i] = uint8(r.IntN(4)) // DCUnknown..DCLeft
		}
	}
	m.Final = genVC(r)
	return m
}

func genDeparted(r *rand.Rand) []msg.DepartedClaim {
	switch r.IntN(4) {
	case 0:
		return nil
	case 1:
		return []msg.DepartedClaim{}
	default:
		out := make([]msg.DepartedClaim, 1+r.IntN(4))
		for i := range out {
			out[i] = msg.DepartedClaim{DC: r.IntN(8), Through: vclock.Timestamp(r.Uint64N(1 << 62))}
		}
		return out
	}
}

// genSlotMap returns nil or a random *valid* slot map — the decoder
// validates structural invariants, so generated maps must satisfy them.
func genSlotMap(r *rand.Rand) *keyspace.SlotMap {
	if r.IntN(4) == 0 {
		return nil
	}
	m := &keyspace.SlotMap{Epoch: r.Uint64N(1 << 40), Parts: 1 + r.IntN(keyspace.NumSlots)}
	for s := 0; s < keyspace.NumSlots; s++ {
		m.Owner[s] = uint8(r.IntN(m.Parts))
		if m.Epoch > 0 {
			m.Stamp[s] = r.Uint64N(m.Epoch + 1)
		}
	}
	return m
}

// genMsg draws one random protocol message of the i-th type.
func genMsg(r *rand.Rand, kind int) any {
	switch kind % numMsgKinds {
	case 0:
		m := msg.ReplicateBatch{
			HBTime:    vclock.Timestamp(r.Uint64N(1 << 62)),
			Epoch:     r.Uint64(),
			Seq:       r.Uint64(),
			Floor:     vclock.Timestamp(r.Uint64N(1 << 62)),
			SlotEpoch: r.Uint64N(1 << 40),
		}
		switch r.IntN(4) {
		case 0: // nil Versions
		case 1:
			m.Versions = []*item.Version{}
		default:
			for i := 0; i < 1+r.IntN(6); i++ {
				m.Versions = append(m.Versions, genVersion(r))
			}
		}
		return m
	case 1:
		return msg.Heartbeat{
			Time:  vclock.Timestamp(r.Uint64N(1 << 62)),
			Epoch: r.Uint64(),
			Seq:   r.Uint64(),
			Floor: vclock.Timestamp(r.Uint64N(1 << 62)),
		}
	case 2:
		m := &msg.SliceReq{
			TxID:        r.Uint64(),
			Coordinator: netemu.NodeID{DC: r.IntN(8), Partition: r.IntN(8)},
			TV:          genVC(r),
		}
		switch r.IntN(4) {
		case 0: // nil Keys
		case 1:
			m.Keys = []string{}
		default:
			for i := 0; i < 1+r.IntN(5); i++ {
				m.Keys = append(m.Keys, genString(r))
			}
		}
		return m
	case 3:
		m := &msg.SliceResp{TxID: r.Uint64(), Err: genString(r)}
		switch r.IntN(4) {
		case 0: // nil Items
		case 1:
			m.Items = []msg.ItemReply{}
		default:
			for i := 0; i < 1+r.IntN(5); i++ {
				m.Items = append(m.Items, genItemReply(r))
			}
		}
		return m
	case 4:
		return msg.VVExchange{Partition: r.IntN(8), VV: genVC(r),
			Watermark: vclock.Timestamp(r.Uint64N(1 << 62))}
	case 5:
		return msg.GCExchange{Partition: r.IntN(8), TV: genVC(r)}
	case 6:
		return msg.CatchUpRequest{ReqID: r.Uint64(), From: vclock.Timestamp(r.Uint64N(1 << 62)), Have: genVC(r)}
	case 7:
		m := msg.CatchUpReply{
			ReqID:       r.Uint64(),
			Chunk:       r.Uint64(),
			Done:        r.IntN(2) == 0,
			Unsupported: r.IntN(2) == 0,
			ResumeEpoch: r.Uint64(),
			ResumeSeq:   r.Uint64(),
			Through:     vclock.Timestamp(r.Uint64N(1 << 62)),
			FullResync:  r.IntN(2) == 0,
			Departed:    genDeparted(r),
			SlotEpoch:   r.Uint64N(1 << 40),
			Progress:    genVC(r),
		}
		switch r.IntN(4) {
		case 0: // nil Versions
		case 1:
			m.Versions = []*item.Version{}
		default:
			for i := 0; i < 1+r.IntN(6); i++ {
				m.Versions = append(m.Versions, genVersion(r))
			}
		}
		return m
	case 8:
		return msg.CatchUpAck{ReqID: r.Uint64(), Chunk: r.Uint64()}
	case 9:
		return msg.JoinRequest{DC: r.IntN(8), View: genMembership(r)}
	case 10:
		return msg.MembershipUpdate{View: genMembership(r)}
	case 11:
		return msg.LeaveNotice{DC: r.IntN(8), Final: vclock.Timestamp(r.Uint64N(1 << 62)), View: genMembership(r)}
	case 12:
		return msg.EvictProposal{DC: r.IntN(8), ReqID: r.Uint64(), View: genMembership(r)}
	case 13:
		return msg.EvictAck{DC: r.IntN(8), ReqID: r.Uint64(), Entry: vclock.Timestamp(r.Uint64N(1 << 62))}
	case 14:
		return msg.SlotMapUpdate{Map: genSlotMap(r)}
	default:
		m := msg.SlotHandoff{}
		switch r.IntN(4) {
		case 0: // nil Versions
		case 1:
			m.Versions = []*item.Version{}
		default:
			for i := 0; i < 1+r.IntN(6); i++ {
				m.Versions = append(m.Versions, genVersion(r))
			}
		}
		return m
	}
}

// numMsgKinds is the number of distinct message types genMsg produces —
// keep it in sync with the switch above so the property tests cover every
// wire type.
const numMsgKinds = 16

func binaryRoundTrip(t *testing.T, env Envelope) Envelope {
	t.Helper()
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf)
	if err := enc.Encode(env); err != nil {
		t.Fatalf("binary encode %T: %v", env.Msg, err)
	}
	out, err := NewBinaryDecoder(&buf).Decode()
	if err != nil {
		t.Fatalf("binary decode %T: %v", env.Msg, err)
	}
	return out
}

// TestBinaryRoundTripProperty: for every message type and hundreds of
// random instances (plus nil/empty edge cases), the binary codec decodes
// exactly what was encoded — including the nil-vs-empty distinction.
func TestBinaryRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 42))
	for kind := 0; kind < numMsgKinds; kind++ {
		t.Run(fmt.Sprintf("kind%d", kind), func(t *testing.T) {
			for i := 0; i < 200; i++ {
				env := Envelope{
					Src: netemu.NodeID{DC: r.IntN(8), Partition: r.IntN(16)},
					Msg: genMsg(r, kind),
				}
				got := binaryRoundTrip(t, env)
				if !reflect.DeepEqual(env, got) {
					t.Fatalf("binary round-trip mangled message:\n in: %#v\nout: %#v", env, got)
				}
			}
		})
	}
}

// TestBinaryRoundTripEdgeCases pins the shapes most likely to regress.
func TestBinaryRoundTripEdgeCases(t *testing.T) {
	cases := []any{
		msg.SlotHandoff{Versions: []*item.Version{{}}},
		msg.SlotHandoff{Versions: []*item.Version{{Deps: vclock.VC{}}}},
		msg.ReplicateBatch{},
		msg.ReplicateBatch{Versions: []*item.Version{}},
		msg.ReplicateBatch{Versions: []*item.Version{{Key: "k", Deps: vclock.New(3)}}, HBTime: 9},
		msg.Heartbeat{},
		&msg.SliceReq{},
		&msg.SliceReq{Keys: []string{}},
		&msg.SliceReq{Keys: []string{""}, TV: vclock.VC{0}},
		&msg.SliceResp{},
		&msg.SliceResp{Items: []msg.ItemReply{}},
		&msg.SliceResp{Items: []msg.ItemReply{{}}},
		msg.VVExchange{},
		msg.VVExchange{VV: vclock.VC{}},
		msg.GCExchange{TV: vclock.New(3)},
		msg.CatchUpRequest{},
		msg.CatchUpRequest{ReqID: 1, From: 99},
		msg.CatchUpReply{},
		msg.CatchUpReply{Versions: []*item.Version{}},
		msg.CatchUpReply{Versions: []*item.Version{{Key: "k", Deps: vclock.New(3)}}, Chunk: 2},
		msg.CatchUpReply{Done: true, ResumeEpoch: 7, ResumeSeq: 8, Through: 9},
		msg.CatchUpReply{Done: true, Unsupported: true},
		msg.CatchUpAck{},
		msg.CatchUpAck{ReqID: 3, Chunk: 4},
		msg.ReplicateBatch{Epoch: 1, Seq: 2, Floor: 3},
		msg.Heartbeat{Time: 5, Epoch: 6, Seq: 7, Floor: 8},
		msg.JoinRequest{},
		msg.JoinRequest{DC: 3, View: msg.Membership{Epoch: 9, Status: []uint8{}}},
		msg.JoinRequest{DC: 3, View: msg.Membership{Epoch: 9, Status: []uint8{msg.DCActive, msg.DCJoining}}},
		msg.MembershipUpdate{},
		msg.MembershipUpdate{View: msg.Membership{Epoch: 4, Status: []uint8{msg.DCLeft, msg.DCActive, msg.DCUnknown}}},
		msg.LeaveNotice{},
		msg.LeaveNotice{DC: 1, Final: 1234, View: msg.Membership{Epoch: 5, Status: []uint8{msg.DCActive, msg.DCLeft}}},
		msg.CatchUpRequest{ReqID: 2, From: 7, Have: vclock.VC{1, 2, 3}},
		msg.CatchUpRequest{ReqID: 2, Have: vclock.VC{}},
		msg.CatchUpReply{Done: true, FullResync: true, Through: 42},
		msg.CatchUpReply{Done: true, Departed: []msg.DepartedClaim{}},
		msg.CatchUpReply{Done: true, Departed: []msg.DepartedClaim{{DC: 2, Through: 99}}},
		msg.MembershipUpdate{View: msg.Membership{Epoch: 4, Status: []uint8{msg.DCLeft}, Final: vclock.VC{77}}},
		msg.EvictProposal{},
		msg.EvictProposal{DC: 2, ReqID: 9, View: msg.Membership{Epoch: 3, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCActive}}},
		msg.EvictAck{},
		msg.EvictAck{DC: 2, ReqID: 9, Entry: 123},
		msg.MembershipUpdate{View: msg.Membership{Epoch: 7, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCLeft}, Final: vclock.VC{0, 0, 456}}},
		msg.SlotMapUpdate{},
		msg.SlotMapUpdate{Map: keyspace.DefaultMap(4)},
		msg.ReplicateBatch{Epoch: 1, Seq: 2, Floor: 3, SlotEpoch: 4},
		msg.CatchUpReply{Done: true, SlotEpoch: 5, Progress: vclock.VC{1, 0, 9}},
		msg.CatchUpReply{Done: true, Progress: vclock.VC{}},
		msg.SlotHandoff{},
		msg.SlotHandoff{Versions: []*item.Version{}},
		msg.SlotHandoff{Versions: []*item.Version{{Key: "k", Deps: vclock.New(3)}}},
		// Lean stabilization: watermark-only exchange (VV nil).
		msg.VVExchange{Partition: 3, Watermark: 1 << 61},
		msg.VVExchange{Partition: 1, VV: vclock.VC{5, 6}, Watermark: 7},
		// Delta batch extremes: timestamps far below and far above the
		// HBTime base (wraparound zigzag deltas), zero dep entries mixed
		// with nonzero ones, and the one dep delta (1<<63) the delta
		// format cannot carry — the encoder must fall back to absolute.
		msg.ReplicateBatch{HBTime: 1 << 61, Versions: []*item.Version{
			{Key: "lo", UpdateTime: 1, Deps: vclock.VC{0, 1, 1 << 62}},
			{Key: "hi", UpdateTime: 1<<63 + 9, Deps: vclock.VC{1<<61 + 1, 0}},
		}},
		msg.ReplicateBatch{HBTime: 0, Versions: []*item.Version{
			{Key: "fallback", UpdateTime: 3, Deps: vclock.VC{1 << 63}},
		}},
		msg.ReplicateBatch{HBTime: 2, Versions: []*item.Version{
			{Key: "k", UpdateTime: 2 + 1<<63, Deps: vclock.VC{2 + 1<<63}},
		}},
		// One list, several record size classes: delta and absolute layout.
		msg.ReplicateBatch{HBTime: 1 << 20, Versions: mixedLengthVersions()},
		msg.CatchUpReply{ReqID: 1, Versions: mixedLengthVersions(), Done: true},
		msg.SlotHandoff{Versions: mixedLengthVersions()},
	}
	for i, m := range cases {
		env := Envelope{Src: netemu.NodeID{DC: 1, Partition: 2}, Msg: m}
		got := binaryRoundTrip(t, env)
		if !reflect.DeepEqual(env, got) {
			t.Fatalf("case %d (%T):\n in: %#v\nout: %#v", i, m, env, got)
		}
	}
}

// mixedLengthVersions is a version list whose records carry 3, then 9, then
// no (nil), then 3, then 17 dependency entries: the decoder's record slab is
// made for the class it meets first, so the 9-entry record needs one of
// another class, the nil vector must stay nil, the second 3-entry record
// comes from the first slab again and 17 entries are above every class.
// Every entry is distinct, so a vector overlapping a neighbour's shows.
func mixedLengthVersions() []*item.Version {
	var out []*item.Version
	next := vclock.Timestamp(1 << 20)
	for i, n := range []int{3, 9, -1, 3, 17} {
		v := &item.Version{Key: fmt.Sprintf("k%d", i), Value: []byte{byte(i)}, SrcReplica: i, UpdateTime: next}
		next++
		if n >= 0 {
			v.Deps = make(vclock.VC, n)
			for j := range v.Deps {
				v.Deps[j] = next
				next++
			}
		}
		out = append(out, v)
	}
	return out
}

// TestMixedVectorLengthsDecodeApart: whatever mix of size classes one list
// holds, every decoded vector is exactly sized (len == cap), so appending to
// one reallocates instead of writing into the record behind it.
func TestMixedVectorLengthsDecodeApart(t *testing.T) {
	want := mixedLengthVersions()
	env := binaryRoundTrip(t, Envelope{Msg: msg.ReplicateBatch{HBTime: 1 << 20, Versions: want}})
	got := env.Msg.(msg.ReplicateBatch).Versions
	for _, v := range got {
		if len(v.Deps) != cap(v.Deps) {
			t.Fatalf("%s: len(Deps) = %d, cap = %d", v.Key, len(v.Deps), cap(v.Deps))
		}
		_ = append(v.Deps, 1, 2, 3)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("appending to decoded vectors changed a neighbour:\n in: %#v\nout: %#v", want, got)
	}
}

// TestBinaryRejectsReservedTag: three tags carried messages nothing sends
// anymore — 1 the single-version Replicate, 12 and 17 the two view-only
// membership messages that are a MembershipUpdate now. The tags stay reserved,
// so a frame that carries one — here the exact bytes the old encoder produced,
// from node (1,2) — is a decode error, not a message.
func TestBinaryRejectsReservedTag(t *testing.T) {
	for tag, frame := range reservedTagFrames() {
		env, err := NewBinaryDecoder(bytes.NewReader(frame)).Decode()
		if want := fmt.Sprintf("unknown message tag %d", tag); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("tag-%d frame decoded to %#v, err = %v; want %q", tag, env.Msg, err, want)
		}
	}
}

// reservedTagFrames returns, by reserved tag, a frame as its retired message
// was encoded.
func reservedTagFrames() map[byte][]byte {
	view := msg.Membership{Epoch: 7, Status: []uint8{msg.DCActive, msg.DCLeft}, Final: vclock.VC{0, 456}}
	return map[byte][]byte{
		1:  frameOf(AppendVersion([]byte{1, 1, 2}, &item.Version{Key: "k"})), // Replicate{Version}
		12: retiredJoinAccept(view, 77),
		17: retiredEvictNotice(1, 456, view),
	}
}

// retiredJoinAccept is the frame JoinAccept{View, Through} was, from node (1,2).
func retiredJoinAccept(view msg.Membership, through uint64) []byte {
	return frameOf(appendUint(appendMembership([]byte{12, 1, 2}, view), through))
}

// retiredEvictNotice is the frame EvictNotice{DC, Final, View} was, from node (1,2).
func retiredEvictNotice(dc, final uint64, view msg.Membership) []byte {
	return frameOf(appendMembership(appendUint(appendUint([]byte{17, 1, 2}, dc), final), view))
}

// frameOf length-prefixes a payload short enough for a one-byte prefix.
func frameOf(pay []byte) []byte { return append([]byte{byte(len(pay))}, pay...) }

// TestBinaryRejectsTruncatedFrames: every prefix of a valid frame must fail
// cleanly (error, not panic or garbage success).
func TestBinaryRejectsTruncatedFrames(t *testing.T) {
	var buf bytes.Buffer
	enc := NewBinaryEncoder(&buf)
	if err := enc.Encode(Envelope{
		Src: netemu.NodeID{DC: 1, Partition: 1},
		Msg: &msg.SliceReq{TxID: 7, Keys: []string{"a", "b"}, TV: vclock.VC{1, 2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		dec := NewBinaryDecoder(bytes.NewReader(full[:n]))
		if _, err := dec.Decode(); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded successfully", n, len(full))
		}
	}
}

// TestBinaryDeltaBatchProperty drives the delta ReplicateBatch layout with
// HLC-shaped traffic: timestamps clustered within a flush window of the
// HBTime base. Every batch must round-trip exactly, and the delta encoding
// must beat the absolute (pre-HLC) layout on bytes per version — the
// tentpole claim of the hybrid-clock arc, pinned here at the unit level. Each
// absolute version record must also fit MaxVersionSize, the bound the WAL's
// stage cap and encode buffer count it at.
func TestBinaryDeltaBatchProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	var deltaBytes, absBytes, versions int
	for i := 0; i < 300; i++ {
		base := vclock.Timestamp(1<<40 + r.Uint64N(1<<44))
		m := msg.ReplicateBatch{HBTime: base, Epoch: 1 + r.Uint64N(9), Seq: r.Uint64N(1 << 20)}
		for j := 0; j < 1+r.IntN(8); j++ {
			deps := make(vclock.VC, 3)
			for d := range deps {
				if r.IntN(4) > 0 {
					// Within a heartbeat interval of the base, either side.
					deps[d] = base - 500_000 + vclock.Timestamp(r.Uint64N(1_000_000))
				}
			}
			m.Versions = append(m.Versions, &item.Version{
				Key:        genString(r),
				Value:      genBytes(r),
				SrcReplica: r.IntN(3),
				UpdateTime: base - vclock.Timestamp(r.Uint64N(200_000)),
				Deps:       deps,
				Optimistic: true,
			})
		}
		env := Envelope{Src: netemu.NodeID{DC: 1, Partition: 2}, Msg: m}
		got := binaryRoundTrip(t, env)
		if !reflect.DeepEqual(env, got) {
			t.Fatalf("delta batch mangled:\n in: %#v\nout: %#v", env, got)
		}
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf).Encode(env); err != nil {
			t.Fatal(err)
		}
		deltaBytes += buf.Len()
		// The pre-HLC layout: absolute version records + absolute header.
		abs := 0
		for _, v := range m.Versions {
			n := len(AppendVersion(nil, v))
			if n > MaxVersionSize(v) {
				t.Fatalf("version record of %d bytes exceeds MaxVersionSize %d", n, MaxVersionSize(v))
			}
			abs += n
		}
		absBytes += abs
		versions += len(m.Versions)
	}
	if deltaBytes >= absBytes {
		t.Fatalf("delta encoding (%d bytes) not smaller than absolute (%d bytes) over %d versions",
			deltaBytes, absBytes, versions)
	}
	t.Logf("bytes/version: delta %.1f vs absolute %.1f over %d versions",
		float64(deltaBytes)/float64(versions), float64(absBytes)/float64(versions), versions)
}
