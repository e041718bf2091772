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

// deltaBatchFrame encodes a ReplicateBatch of n versions with 64-byte values
// and timestamps of deployed magnitude (so it takes the delta layout).
func deltaBatchFrame(t testing.TB, n int) []byte {
	t.Helper()
	base := vclock.Timestamp(1 << 44)
	m := msg.ReplicateBatch{HBTime: base, Epoch: 3, Seq: 1 << 16, Floor: base - 5000}
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
	decode() // grows the decoder's frame buffer, once
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

// TestBatchDecodeAllocs pins the batch decode to allocations in proportion
// to its frame: the private copy of the frame's tail, the record slab
// (versions and their vectors), the pointer list and the boxed message — not
// one per key, value and vector, and no fixed-size chunks.
func TestBatchDecodeAllocs(t *testing.T) {
	if racedetect.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	frame := deltaBatchFrame(t, 8)
	allocs, size := decodeCost(t, frame)
	if limit := 2*uint64(len(frame)) + 8*recordSize; allocs > 4 || size > limit {
		t.Fatalf("8-version batch (%d-byte frame): %v allocs, %d bytes per decode; want <= 4 allocs, <= %d bytes",
			len(frame), allocs, size, limit)
	}

	frame = deltaBatchFrame(t, 1)
	allocs, size = decodeCost(t, frame)
	if allocs > 4 || size >= 1024 {
		t.Fatalf("1-version batch (%d-byte frame): %v allocs, %d bytes per decode; want <= 4 allocs, < 1 KB",
			len(frame), allocs, size)
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
	if limit := uint64(size*(1+1+8) + slack); n > limit {
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
	if limit := uint64(size*(1+1+8)+slack) + slab; n > limit {
		t.Fatalf("%d-byte frame claiming %d versions allocated %d bytes, want <= %d", size, size-10, n, limit)
	}
}

// TestFrontDoorDecodeAllocs pins what a request costs the server before it
// reaches a session: decoding allocates nothing (the request aliases its
// frame), detaching a PUT allocates once for key and value together, and a
// request without bytes detaches for free. The RO-TX key list is the decode's
// one allocation, its detached keys a second.
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
		{"PUT detached", FrontDoorRequest{Op: FDPut, ID: 1 << 20, Session: 7, Key: "p0-k000042", Value: []byte("12345678")}, true, 1},
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
