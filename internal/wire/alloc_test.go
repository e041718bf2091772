package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/racedetect"
	"repro/internal/vclock"
)

// TestBinaryEncodeAllocs pins the encoder's steady state: once its buffer has
// grown, an Encode of any message type allocates nothing.
func TestBinaryEncodeAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	enc := NewBinaryEncoder(io.Discard)
	for name, m := range goldenMessages() {
		env := Envelope{Src: goldenSrc, Msg: m}
		if n := testing.AllocsPerRun(100, func() {
			if err := enc.Encode(env); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per Encode, want 0", name, n)
		}
	}
}

// TestValueFormEncodeAllocs: the value forms of a batch and a heartbeat,
// which only bench/probes.go still sends (ROADMAP arc 4's leftover deletes
// them), encode to the pointer forms' bytes and, like them, without
// allocating.
func TestValueFormEncodeAllocs(t *testing.T) {
	var ptr, val bytes.Buffer
	for name, m := range goldenMessages() {
		var v any
		switch p := m.(type) {
		case *msg.ReplicateBatch:
			v = *p
		case *msg.Heartbeat:
			v = *p
		default:
			continue
		}
		ptr.Reset()
		val.Reset()
		if err := NewBinaryEncoder(&ptr).Encode(Envelope{Src: goldenSrc, Msg: m}); err != nil {
			t.Fatal(err)
		}
		enc := NewBinaryEncoder(&val)
		encode := func() {
			val.Reset()
			if err := enc.Encode(Envelope{Src: goldenSrc, Msg: v}); err != nil {
				t.Fatal(err)
			}
		}
		encode()
		if !bytes.Equal(ptr.Bytes(), val.Bytes()) {
			t.Errorf("%s: the value form encodes differently", name)
		}
		if n := testing.AllocsPerRun(100, encode); n != 0 && !racedetect.Enabled {
			t.Errorf("%s: %v allocations per value-form Encode, want 0", name, n)
		}
	}
}

// deltaBatchFrame encodes a ReplicateBatch of n versions with 64-byte values
// and timestamps of deployed magnitude (so it takes the delta layout).
func deltaBatchFrame(t testing.TB, n int) []byte {
	t.Helper()
	base := vclock.Timestamp(1 << 44)
	m := &msg.ReplicateBatch{HBTime: base, Epoch: 3, Seq: 1 << 16, Floor: base - 5000}
	for i := 0; i < n; i++ {
		m.Versions = append(m.Versions, &item.Version{
			Key: "p1-k000042", Value: bytes.Repeat([]byte{'v'}, 64), SrcReplica: 1,
			UpdateTime: base - vclock.Timestamp(700-i), Optimistic: true,
			Deps: vclock.VC{base - 900, 0, base - 40000},
		})
	}
	var buf bytes.Buffer
	if err := NewBinaryEncoder(&buf).Encode(Envelope{Src: netemu.NodeID{DC: 1, Partition: 2}, Msg: m}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeCost decodes frame repeatedly through one decoder and returns the
// allocations and bytes allocated per decode.
func decodeCost(t *testing.T, frame []byte) (allocs float64, bytesPer uint64) {
	t.Helper()
	const rounds = 200
	r := bytes.NewReader(nil)
	stream := bytes.Repeat(frame, rounds+1)
	dec := NewBinaryDecoder(r)
	decode := func() {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	r.Reset(stream)
	decode() // grows the decoder's frame buffer or lent list, once
	allocs = testing.AllocsPerRun(rounds-1, decode)

	r.Reset(stream)
	dec = NewBinaryDecoder(r)
	decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / rounds
}

// recordSize is what one version costs a list's slab when its vector has up
// to four entries (or none): the struct and item's smallest inline array, in
// one object.
const recordSize = uint64(unsafe.Sizeof(item.Version{}) + 4*unsafe.Sizeof(vclock.Timestamp(0)))

// TestBatchDecodeAllocs pins the steady state of one decoder, the way a
// tcpnet reader runs it: a batch costs its own frame buffer, which keys and
// values alias, and one record slab (versions and their vectors) — not one
// allocation per key, value and vector, no copy of the frame, no pointer list
// and no box, which the decoder lends instead. A heartbeat costs nothing.
func TestBatchDecodeAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frame := deltaBatchFrame(t, 8)
	allocs, size := decodeCost(t, frame)
	// A quarter of the frame for its size class's rounding.
	if limit := uint64(len(frame))*5/4 + 8*recordSize; allocs > 2 || size > limit {
		t.Fatalf("8-version batch (%d-byte frame): %v allocs, %d bytes per decode; want <= 2 allocs, <= %d bytes",
			len(frame), allocs, size, limit)
	}

	frame = deltaBatchFrame(t, 1)
	allocs, size = decodeCost(t, frame)
	if allocs > 2 || size >= 512 {
		t.Fatalf("1-version batch (%d-byte frame): %v allocs, %d bytes per decode; want <= 2 allocs, < 512 B",
			len(frame), allocs, size)
	}

	var hb bytes.Buffer
	if err := NewBinaryEncoder(&hb).Encode(Envelope{Src: netemu.NodeID{DC: 1, Partition: 2},
		Msg: &msg.Heartbeat{Time: 1 << 44, Epoch: 3, Seq: 1 << 16, Floor: 1<<44 - 5000}}); err != nil {
		t.Fatal(err)
	}
	if allocs, size = decodeCost(t, hb.Bytes()); allocs != 0 || size != 0 {
		t.Fatalf("heartbeat: %v allocs, %d bytes per decode; want none", allocs, size)
	}
}

// hostileListFrame is a frame whose version list claims count versions and
// then carries body where the records and the trailing fields should be.
// head is the payload up to the list: tag, source and the message's leading
// fields.
func hostileListFrame(head []byte, count uint64, body []byte) []byte {
	pay := binary.AppendUvarint(append([]byte(nil), head...), count+1)
	pay = append(pay, body...)
	return append(binary.AppendUvarint(nil, uint64(len(pay))), pay...)
}

// Payload heads of the three version-list messages (source DC 1, partition
// 2): a delta ReplicateBatch with a one-byte HBTime, a CatchUpReply with
// ReqID 9 and Chunk 2, a SlotHandoff.
var (
	batchHead   = []byte{tagReplicateBatch, 1, 2, 100, batchDelta}
	catchUpHead = []byte{tagCatchUpReply, 1, 2, 9, 2}
	handoffHead = []byte{tagSlotHandoff, 1, 2}
)

// TestHostileCountAllocs: what a version list makes the decoder allocate is
// bounded by what the frame's remaining bytes can encode, never by the count
// the frame claims.
func TestHostileCountAllocs(t *testing.T) {
	decodeBytes := func(frame []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewBinaryDecoder(bytes.NewReader(frame)).Decode()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	// The reader's own buffers, size-class rounding, and whatever else the
	// process allocates meanwhile.
	const slack = 128 << 10
	// What a byte of the frame may cost: its buffer, the list's copy and an
	// 8-byte pointer. The race runtime adds 8 bytes a byte on top (both
	// frames below measured exactly 524 288 B more under -race at 64 KiB:
	// 1 126 544 B for the nil versions, 2 257 040 B with one record), so
	// under -race the per-byte budget doubles. A list sized from a claimed
	// count of 2^27 would still overrun it a thousandfold.
	perByte := uint64(1 + 1 + 8)
	if racedetect.Enabled {
		perByte *= 2
	}

	// A short frame claiming 2^27 versions is rejected before anything is
	// sized from the count.
	if n, err := decodeBytes(hostileListFrame(batchHead, 1<<27, make([]byte, 64))); err == nil || n > slack {
		t.Fatalf("short frame claiming 2^27 versions: err=%v, %d bytes allocated", err, n)
	}

	// Zero bytes read as nil versions, one byte each, so a count of about
	// the frame's length is well-formed: it costs the frame buffer, the
	// list's copy and the 8-byte pointers, and no version structs.
	const size = 64 << 10
	body := make([]byte, size)
	n, err := decodeBytes(hostileListFrame(batchHead, size-4, body)) // 4 trailing fields
	if err != nil {
		t.Fatalf("frame of nil versions: %v", err)
	}
	if limit := size*perByte + slack; n > limit {
		t.Fatalf("%d-byte frame of nil versions allocated %d bytes, want <= %d", size, n, limit)
	}

	// One real (minimal) record in front: the record slab is sized for the
	// records the remaining bytes could hold, a seventh of the count.
	copy(body, []byte{1, 0, 0, 0, 0, 0, 0})
	n, err = decodeBytes(hostileListFrame(batchHead, size-4-(minVersionBytes-1), body))
	if err != nil {
		t.Fatalf("frame of one version and nil versions: %v", err)
	}
	slab := recordSize * (size/minVersionBytes + 1)
	if limit := size*perByte + slack + slab; n > limit {
		t.Fatalf("%d-byte frame claiming %d versions allocated %d bytes, want <= %d", size, size-10, n, limit)
	}
}

// TestFrontDoorDecodeAllocs pins what a request costs the server before it
// reaches a session: decoding allocates nothing (the request aliases its
// frame), so a GET or a PUT, which borrow their frame, cost nothing here, and
// a request without bytes detaches for free. The RO-TX key list is the
// decode's one allocation, its detached keys a second.
func TestFrontDoorDecodeAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	payload := func(r FrontDoorRequest) []byte {
		frame := AppendFrontDoorRequest(nil, &r)
		_, n := binary.Uvarint(frame)
		return frame[n:]
	}
	for _, c := range []struct {
		name   string
		req    FrontDoorRequest
		detach bool
		want   float64
	}{
		{"GET", FrontDoorRequest{Op: FDGet, ID: 1 << 20, Session: 7, Key: "p0-k000042"}, false, 0},
		{"PUT borrowed", FrontDoorRequest{Op: FDPut, ID: 1 << 20, Session: 7, Key: "p0-k000042", Value: []byte("12345678")}, false, 0},
		{"PING detached", FrontDoorRequest{Op: FDPing, ID: 1 << 20, Session: 7}, true, 0},
		{"RO-TX detached", FrontDoorRequest{Op: FDROTx, ID: 1 << 20, Session: 7, Keys: []string{"p0-k000042", "p1-k000042"}}, true, 2},
	} {
		frame := payload(c.req)
		if n := testing.AllocsPerRun(500, func() {
			req, err := DecodeFrontDoorRequest(frame)
			if err != nil {
				t.Fatal(err)
			}
			if c.detach {
				req.Detach()
			}
		}); n > c.want {
			t.Errorf("%s: %v allocations per request, want <= %v", c.name, n, c.want)
		}
	}
}
