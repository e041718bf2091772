package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// FuzzCatchUpDecode feeds arbitrary bytes through the binary envelope
// decoder, asserting that corrupted or truncated frames — including the
// catch-up and sequenced-replication message set the recovery path depends
// on — only ever produce errors, never panics or runaway allocations. This
// is exactly what a tcpnet reader does with bytes off an untrusted wire, with
// one decoder for the whole stream: each frame is decoded as well behind the
// valid seeds, and must come out the same (decodeAfter).
func FuzzCatchUpDecode(f *testing.F) {
	// Seed with well-formed frames of every replication-plane message so the
	// fuzzer mutates realistic input.
	seeds := []any{
		&msg.ReplicateBatch{
			Versions: []*item.Version{{
				Key: "user:42", Value: []byte("payload"), SrcReplica: 1,
				UpdateTime: 123456, Deps: vclock.VC{7, 0, 99}, Optimistic: true,
			}},
			HBTime: 123456, Epoch: 77, Seq: 3, Floor: 1000,
		},
		&msg.Heartbeat{Time: 4242, Epoch: 77, Seq: 3, Floor: 1000},
		msg.CatchUpRequest{ReqID: 9, From: 500},
		msg.CatchUpReply{
			ReqID: 9, Chunk: 2,
			Versions: []*item.Version{{Key: "k", Deps: vclock.New(3)}},
		},
		msg.CatchUpReply{ReqID: 9, Done: true, ResumeEpoch: 77, ResumeSeq: 3, Through: 123456},
		msg.CatchUpReply{ReqID: 9, Done: true, Unsupported: true},
		msg.CatchUpRequest{ReqID: 10, From: 500, Have: vclock.VC{7, 0, 99}},
		msg.CatchUpReply{ReqID: 10, Done: true, Through: 123456,
			Departed: []msg.DepartedClaim{{DC: 2, Through: 777}}},
		msg.CatchUpAck{ReqID: 9, Chunk: 2},
		msg.CatchUpReply{ReqID: 11, Versions: mixedLengthVersions()},
	}
	lead := addSeeds(f, seeds)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// Short frames whose version list claims a huge count: the decoder must
	// size nothing from the claim.
	f.Add(hostileListFrame(catchUpHead, 1<<40, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	f.Add(hostileListFrame(catchUpHead, 60, make([]byte, 64)))
	f.Add(hostileListFrame(handoffHead, 1<<27, []byte{1, 1, 'k'}))
	f.Add(reservedTagFrames()[1]) // the retired single-version message: an unknown tag

	f.Fuzz(func(t *testing.T, data []byte) {
		// An error is the accepted outcome; a frame that decodes must
		// re-encode: the codec round-trips every value it is willing to
		// produce.
		decodeAfter(t, lead, data, func(env Envelope) {
			var buf bytes.Buffer
			if err := NewBinaryEncoder(&buf).Encode(env); err != nil {
				t.Fatalf("decoded envelope failed to re-encode: %v (%#v)", err, env)
			}
		})
	})
}

// addSeeds adds each message's frame, and its first half, to the corpus, and
// returns the whole frames.
func addSeeds(f *testing.F, seeds []any) (frames [][]byte) {
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf).Encode(Envelope{
			Src: netemu.NodeID{DC: 1, Partition: 2}, Msg: m,
		}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncated frame
		frames = append(frames, buf.Bytes())
	}
	return frames
}

// decodeAfter decodes data through a fresh decoder and, in lockstep, through
// one that has decoded the valid frames lead first — lent a batch, a
// heartbeat and its pointer list, and grown its frame buffer. Every frame
// must give both the same message or the same error: a decoder's lending
// leaks nothing from one frame into the next. each sees every envelope that
// decodes, before either decoder moves on.
func decodeAfter(t *testing.T, lead [][]byte, data []byte, each func(Envelope)) {
	t.Helper()
	fresh := NewBinaryDecoder(bytes.NewReader(data))
	used := NewBinaryDecoder(bytes.NewReader(append(bytes.Join(lead, nil), data...)))
	for range lead {
		if _, err := used.Decode(); err != nil {
			t.Fatalf("lead frame: %v", err)
		}
	}
	for {
		env, err := fresh.Decode()
		got, gotErr := used.Decode()
		if fmt.Sprint(err) != fmt.Sprint(gotErr) || err == nil && !reflect.DeepEqual(env, got) {
			t.Fatalf("a used decoder disagrees with a fresh one:\nfresh: %v %+v, %v\n used: %v %+v, %v",
				env.Src, env.Msg, err, got.Src, got.Msg, gotErr)
		}
		if err != nil {
			return
		}
		each(env)
	}
}

// FuzzMembershipDecode drives the binary decoder with mutations of the
// membership message set (join/update/leave, the eviction round) and of the
// two retired view-only frames, whose tags must stay unknown. Membership
// views carry a length-marked status vector and are merged into per-node
// state on receipt, so a corrupted frame must fail cleanly — and any frame
// that does decode must re-encode byte-identically: the membership protocol
// relies on relayed views (the answer to a JoinRequest forwards the merged
// view) surviving re-serialization unchanged.
func FuzzMembershipDecode(f *testing.F) {
	views := []msg.Membership{
		{},
		{Epoch: 1, Status: []uint8{}},
		{Epoch: 7, Status: []uint8{msg.DCActive, msg.DCActive, msg.DCJoining}},
		{Epoch: 9, Status: []uint8{msg.DCLeft, msg.DCActive, msg.DCUnknown, msg.DCJoining}},
		{Epoch: 11, Status: []uint8{msg.DCActive, msg.DCLeft}, Final: vclock.VC{0, 4242}},
	}
	var seeds []any
	for _, v := range views {
		seeds = append(seeds,
			msg.JoinRequest{DC: 3, View: v},
			msg.MembershipUpdate{View: v},
			msg.EvictProposal{DC: 1, ReqID: 7, View: v},
			msg.EvictProposal{DC: 1, ReqID: 7, Final: 98765, View: v},
		)
		// The three retired membership frames, as they were encoded.
		for _, frame := range [][]byte{retiredJoinAccept(v, 123456), retiredFinalView(14, 1, 98765, v), retiredFinalView(17, 1, 98765, v)} {
			f.Add(frame)
			f.Add(frame[:len(frame)/2])
		}
	}
	seeds = append(seeds, msg.EvictAck{DC: 1, ReqID: 7, Entry: 98765})
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := NewBinaryEncoder(&buf).Encode(Envelope{
			Src: netemu.NodeID{DC: 2, Partition: 1}, Msg: m,
		}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncated frame
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewBinaryDecoder(bytes.NewReader(data))
		for {
			env, err := dec.Decode()
			if err != nil {
				return // corrupted input must fail, not panic
			}
			var buf bytes.Buffer
			if err := NewBinaryEncoder(&buf).Encode(env); err != nil {
				t.Fatalf("decoded envelope failed to re-encode: %v (%#v)", err, env)
			}
			re, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes())).Decode()
			if err != nil {
				t.Fatalf("re-encoded envelope failed to decode: %v (%#v)", err, env)
			}
			if !reflect.DeepEqual(env, re) {
				t.Fatalf("re-encode changed the message:\n in: %#v\nout: %#v", env, re)
			}
		}
	})
}

// FuzzSlotMapDecode drives the binary decoder with mutations of the slot
// table message set (SlotMapUpdate/SlotHandoff) plus slot-epoch-stamped
// replication and catch-up frames. A slot map installs directly into every
// server's routing state, so a corrupted frame must either fail cleanly or
// yield a map whose invariants hold (owners in range, stamps below the
// epoch) — and any frame that decodes must re-encode to the same message.
func FuzzSlotMapDecode(f *testing.F) {
	m4 := keyspace.DefaultMap(4)
	moved, err := m4.MoveSlots([]int{0, 4, 8, 12}, 4)
	if err != nil {
		f.Fatal(err)
	}
	seeds := []any{
		msg.SlotMapUpdate{},
		msg.SlotMapUpdate{Map: m4},
		msg.SlotMapUpdate{Map: moved},
		msg.SlotHandoff{Versions: []*item.Version{{
			Key: "user:42", Value: []byte("payload"), SrcReplica: 1,
			UpdateTime: 123456, Deps: vclock.VC{7, 0, 99},
		}}},
		&msg.ReplicateBatch{HBTime: 123456, Epoch: 77, Seq: 3, Floor: 1000, SlotEpoch: 2},
		msg.CatchUpReply{ReqID: 9, Done: true, Through: 123456, SlotEpoch: 2},
	}
	addSeeds(f, seeds)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewBinaryDecoder(bytes.NewReader(data))
		for {
			env, err := dec.Decode()
			if err != nil {
				return // corrupted input must fail, not panic
			}
			if u, ok := env.Msg.(msg.SlotMapUpdate); ok && u.Map != nil {
				if verr := u.Map.Validate(); verr != nil {
					t.Fatalf("decoder produced an invalid slot map: %v", verr)
				}
			}
			var buf bytes.Buffer
			if err := NewBinaryEncoder(&buf).Encode(env); err != nil {
				t.Fatalf("decoded envelope failed to re-encode: %v (%#v)", err, env)
			}
			re, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes())).Decode()
			if err != nil {
				t.Fatalf("re-encoded envelope failed to decode: %v (%#v)", err, env)
			}
			if !reflect.DeepEqual(env, re) {
				t.Fatalf("re-encode changed the message:\n in: %#v\nout: %#v", env, re)
			}
		}
	})
}

// FuzzHLCDecode drives the binary decoder with mutations of the hybrid-clock
// message set: delta-encoded ReplicateBatch frames (zigzag timestamps against
// the HBTime base, absolute-fallback format byte) and watermark-carrying
// VVExchange frames. Corrupted input must fail cleanly, and any frame that
// decodes must survive re-encoding semantically — the encoder is free to pick
// the canonical format byte, so equality is checked on the decoded message,
// not the bytes. Behind the valid seeds, in a decoder that has lent batches
// and heartbeats already, every frame must decode as in a fresh one
// (decodeAfter).
func FuzzHLCDecode(f *testing.F) {
	base := vclock.Timestamp(1 << 44)
	seeds := []any{
		&msg.ReplicateBatch{HBTime: base, Epoch: 77, Seq: 3, Floor: base - 5000,
			Versions: []*item.Version{{
				Key: "user:42", Value: []byte("payload"), SrcReplica: 1,
				UpdateTime: base - 700, Deps: vclock.VC{base - 900, 0, base - 40000}, Optimistic: true,
			}}},
		&msg.ReplicateBatch{HBTime: base, Epoch: 1, Seq: 9,
			Versions: []*item.Version{
				{Key: "lo", UpdateTime: 1, Deps: vclock.VC{0, 1, 1 << 62}},
				{Key: "hi", UpdateTime: base + 1<<50, Deps: vclock.VC{base + 1, 0}},
			}},
		// Absolute-fallback batch: a dep delta of exactly 1<<63.
		&msg.ReplicateBatch{HBTime: 2, Versions: []*item.Version{
			{Key: "fb", UpdateTime: 3, Deps: vclock.VC{2 + 1<<63}},
		}},
		&msg.ReplicateBatch{HBTime: 1 << 20, Epoch: 1, Seq: 10, Versions: mixedLengthVersions()},
		msg.VVExchange{Partition: 1, VV: vclock.VC{base, 0, base - 1}, Watermark: base - 1},
		msg.VVExchange{Partition: 2, Watermark: base},
		&msg.Heartbeat{Time: base, Epoch: 77, Seq: 4, Floor: base - 5000},
	}
	lead := addSeeds(f, seeds)
	// Hand-built frame with an unknown batch format byte: must be rejected.
	var bad bytes.Buffer
	if err := NewBinaryEncoder(&bad).Encode(Envelope{
		Src: netemu.NodeID{DC: 1, Partition: 2},
		Msg: &msg.ReplicateBatch{HBTime: base},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(bad.Bytes())
	f.Add([]byte{})
	// Short delta batches whose version list claims a huge count.
	f.Add(hostileListFrame(batchHead, 1<<40, []byte{1, 0, 0, 0, 0, 0, 0, 0}))
	f.Add(hostileListFrame(batchHead, 60, make([]byte, 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Corrupted input must fail, not panic.
		decodeAfter(t, lead, data, func(env Envelope) {
			var buf bytes.Buffer
			if err := NewBinaryEncoder(&buf).Encode(env); err != nil {
				t.Fatalf("decoded envelope failed to re-encode: %v (%#v)", err, env)
			}
			re, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes())).Decode()
			if err != nil {
				t.Fatalf("re-encoded envelope failed to decode: %v (%#v)", err, env)
			}
			if !reflect.DeepEqual(env, re) {
				t.Fatalf("re-encode changed the message:\n in: %#v\nout: %#v", env, re)
			}
		})
	})
}

// FuzzSliceDecode drives the binary decoder with mutations of the RO-TX slice
// pair, the two messages that travel as pointers. Both come from msg's pool
// with the buffers an earlier use grew, so on top of the usual contract —
// corrupted input fails cleanly, whatever decodes survives a re-encode — a
// frame must not be able to size a pooled buffer from the count it claims (an
// item takes minItemReplyBytes at least, a key one byte), and a decode that
// fails returns what it drew: every message a test run sees is released, so
// one corrupted by an earlier failure, or left with a stale tail by a longer
// one, would turn up here as a mangled round trip. Multi-frame seeds decode a
// short request right behind a longer one, the nil TV included.
func FuzzSliceDecode(f *testing.F) {
	item := msg.ItemReply{
		Key: "user:42", Exists: true, Value: []byte("payload"), SrcReplica: 1,
		UpdateTime: 123456, Deps: vclock.VC{7, 0, 99}, Fresher: 2, Invisible: 1,
	}
	long := &msg.SliceReq{TxID: 8, Keys: []string{"a", "b", "c", "d", "e"}, TV: vclock.VC{1, 2, 3, 4, 5, 6}}
	seeds := [][]any{
		{&msg.SliceReq{TxID: 9, Coordinator: netemu.NodeID{DC: 2, Partition: 1}, Keys: []string{"a", "b"}, TV: vclock.VC{4, 5, 6}}},
		{&msg.SliceReq{TxID: 9, Keys: []string{}, TV: vclock.VC{}}},
		{&msg.SliceReq{TxID: 9}},
		{&msg.SliceResp{TxID: 9, Items: []msg.ItemReply{item, item, item}}},
		{&msg.SliceResp{TxID: 10}},
		{&msg.SliceResp{TxID: 11, Items: []msg.ItemReply{}}},
		{&msg.SliceResp{TxID: 13, Err: "core: server stopped"}},
		{long, &msg.SliceReq{TxID: 9, Keys: []string{"x"}, TV: vclock.VC{7, 8}}},
		{long, &msg.SliceReq{TxID: 9, Keys: []string{}, TV: vclock.VC{}}},
		{long, &msg.SliceReq{TxID: 9}, long, &msg.SliceReq{TxID: 9, Keys: []string{"x"}}},
	}
	for _, stream := range seeds {
		var buf bytes.Buffer
		for _, m := range stream {
			if err := NewBinaryEncoder(&buf).Encode(Envelope{
				Src: netemu.NodeID{DC: 1, Partition: 2}, Msg: m,
			}); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncated frame
	}
	f.Add([]byte{})
	// Short replies whose item list claims a huge count, and one whose count
	// the bytes could just about hold if an item took a single byte.
	respHead := []byte{tagSliceResp, 1, 2, 9}
	f.Add(hostileListFrame(respHead, 1<<40, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}))
	f.Add(hostileListFrame(respHead, 60, make([]byte, 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		dec := NewBinaryDecoder(in)
		read := 0 // bytes of data the frames decoded so far took
		for {
			env, err := dec.Decode()
			if err != nil {
				return // corrupted input must fail, not panic
			}
			frame := len(data) - in.Len() - dec.r.Buffered() - read
			read += frame
			// What the bytes can encode, doubled for the allocator's rounding,
			// on top of what a recycled buffer may already hold.
			switch r := env.Msg.(type) {
			case *msg.SliceResp:
				if cap(r.Items) > 64+2*len(data)/minItemReplyBytes {
					t.Fatalf("a %d-byte input left a reply holding room for %d items", len(data), cap(r.Items))
				}
			case *msg.SliceReq:
				if cap(r.Keys) > 64+2*len(data) || cap(r.TV) > 64+2*len(data) {
					t.Fatalf("a %d-byte input left a request holding room for %d keys and %d entries", len(data), cap(r.Keys), cap(r.TV))
				}
			}
			var buf bytes.Buffer
			if err := NewBinaryEncoder(&buf).Encode(env); err != nil {
				t.Fatalf("decoded envelope failed to re-encode: %v (%#v)", err, env)
			}
			// Re-encoding drops what a frame may carry redundantly (a varint
			// longer than it need be, a bool byte other than 1) and adds
			// nothing — unless the message kept a stale tail of a recycled
			// buffer.
			switch env.Msg.(type) {
			case *msg.SliceReq, *msg.SliceResp:
				if buf.Len() > frame {
					t.Fatalf("a %d-byte frame re-encodes to %d bytes: %#v", frame, buf.Len(), env.Msg)
				}
			}
			re, err := NewBinaryDecoder(bytes.NewReader(buf.Bytes())).Decode()
			if err != nil {
				t.Fatalf("re-encoded envelope failed to decode: %v (%#v)", err, env)
			}
			if !reflect.DeepEqual(env, re) {
				t.Fatalf("re-encode changed the message:\n in: %#v\nout: %#v", env, re)
			}
			for _, m := range []any{env.Msg, re.Msg} {
				switch r := m.(type) {
				case *msg.SliceReq:
					r.Release()
				case *msg.SliceResp:
					r.Release()
				}
			}
		}
	})
}
