package wire

import (
	"bufio"
	"bytes"
	"io"
	"math/rand/v2"
	"reflect"
	"testing"
)

func genFrontDoorRequest(r *rand.Rand) FrontDoorRequest {
	req := FrontDoorRequest{
		ID:      r.Uint64N(1 << 62),
		Session: r.Uint64N(1 << 20),
	}
	switch r.IntN(6) {
	case 0:
		req.Op = FDPing
	case 1:
		req.Op = FDPut
		req.Key = genString(r)
		req.Value = genBytes(r)
	case 2:
		req.Op = FDGet
		req.Key = genString(r)
	case 3:
		req.Op = FDROTx
		switch r.IntN(3) {
		case 0:
			req.Keys = nil
		case 1:
			req.Keys = []string{}
		default:
			req.Keys = make([]string, 1+r.IntN(6))
			for i := range req.Keys {
				req.Keys[i] = genString(r)
			}
		}
	case 4:
		req.Op = FDStats
	default:
		req.Op = FDAdmin
		req.Line = genString(r) + " " + genString(r)
	}
	return req
}

func genFrontDoorResponse(r *rand.Rand) FrontDoorResponse {
	resp := FrontDoorResponse{ID: r.Uint64N(1 << 62)}
	switch r.IntN(5) {
	case 0:
		resp.Kind = FDOK
	case 1:
		resp.Kind = FDErr
		resp.Code = byte(r.IntN(5))
		resp.Text = genString(r)
	case 2:
		resp.Kind = FDValue
		resp.Exists = r.IntN(2) == 0
		resp.Value = genBytes(r)
	case 3:
		resp.Kind = FDTx
		switch r.IntN(3) {
		case 0:
			resp.Items = nil
		case 1:
			resp.Items = []FrontDoorTxItem{}
		default:
			resp.Items = make([]FrontDoorTxItem, 1+r.IntN(6))
			for i := range resp.Items {
				resp.Items[i] = FrontDoorTxItem{
					Key:    genString(r),
					Exists: r.IntN(2) == 0,
					Value:  genBytes(r),
				}
			}
		}
	default:
		resp.Kind = FDText
		resp.Text = genString(r)
	}
	return resp
}

// TestFrontDoorRequestRoundTrip drives random requests through the frame
// encode/decode pair and requires structural identity — the same property
// the 19-message envelope suite asserts for the replication plane.
func TestFrontDoorRequestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 23))
	var buf []byte
	for i := 0; i < 2000; i++ {
		want := genFrontDoorRequest(r)
		buf = AppendFrontDoorRequest(buf[:0], &want)
		frame, err := ReadFrontDoorFrame(bufio.NewReader(bytes.NewReader(buf)), nil)
		if err != nil {
			t.Fatalf("read frame: %v (req %+v)", err, want)
		}
		got, err := DecodeFrontDoorRequest(frame)
		if err != nil {
			t.Fatalf("decode: %v (req %+v)", err, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestFrontDoorDetachOwnsItsBytes pins the decode contract from both sides: a
// decoded request aliases its frame (so the frame's owner decides how long it
// lives), and a detached one — any request but a GET or a PUT, which borrow
// their frame — shares nothing with it: overwriting the frame afterwards
// changes no key list or line.
func TestFrontDoorDetachOwnsItsBytes(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 19))
	var buf []byte
	for i := 0; i < 2000; i++ {
		want := genFrontDoorRequest(r)
		if want.Op == FDGet || want.Op == FDPut {
			continue
		}
		buf = AppendFrontDoorRequest(buf[:0], &want)
		frame, err := ReadFrontDoorFrame(bufio.NewReader(bytes.NewReader(buf)), nil)
		if err != nil {
			t.Fatalf("read frame: %v (req %+v)", err, want)
		}
		got, err := DecodeFrontDoorRequest(frame)
		if err != nil {
			t.Fatalf("decode: %v (req %+v)", err, want)
		}
		got.Detach()
		for j := range frame {
			frame[j] ^= 0xFF
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a detached request changed with its frame:\n got %+v\nwant %+v", got, want)
		}
	}

	get := FrontDoorRequest{Op: FDGet, ID: 9, Session: 1, Key: "user:42"}
	frame, err := ReadFrontDoorFrame(bufio.NewReader(bytes.NewReader(AppendFrontDoorRequest(nil, &get))), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrontDoorRequest(frame)
	if err != nil || got.Key != get.Key {
		t.Fatalf("decode = %+v, %v", got, err)
	}
	copy(frame[len(frame)-len(get.Key):], "USER")
	if got.Key != "USER:42" {
		t.Fatalf("a decoded key reads %q after its frame changed: it must alias the frame, not copy it", got.Key)
	}
}

// TestFrontDoorResponseRoundTrip is the response-side twin.
func TestFrontDoorResponseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 31))
	var buf []byte
	for i := 0; i < 2000; i++ {
		want := genFrontDoorResponse(r)
		buf = AppendFrontDoorResponse(buf[:0], &want)
		frame, err := ReadFrontDoorFrame(bufio.NewReader(bytes.NewReader(buf)), nil)
		if err != nil {
			t.Fatalf("read frame: %v (resp %+v)", err, want)
		}
		got, err := DecodeFrontDoorResponse(frame)
		if err != nil {
			t.Fatalf("decode: %v (resp %+v)", err, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestFrontDoorPipelinedStream appends many frames to one buffer — the
// pipelining primitive — and reads them back through one bufio.Reader,
// asserting order and a clean EOF at the end.
func TestFrontDoorPipelinedStream(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 7))
	var buf []byte
	want := make([]FrontDoorRequest, 100)
	for i := range want {
		want[i] = genFrontDoorRequest(r)
		want[i].ID = uint64(i)
		buf = AppendFrontDoorRequest(buf, &want[i])
	}
	br := bufio.NewReader(bytes.NewReader(buf))
	var scratch []byte
	for i := range want {
		frame, err := ReadFrontDoorFrame(br, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		scratch = frame
		got, err := DecodeFrontDoorRequest(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("frame %d mismatch:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if _, err := ReadFrontDoorFrame(br, scratch); err != io.EOF {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

// TestFrontDoorDecodeRejectsCorruption truncates and bit-flips well-formed
// payloads: every corruption must yield an error or a decodable (different)
// value — never a panic — and trailing garbage must be rejected.
func TestFrontDoorDecodeRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 13))
	for i := 0; i < 500; i++ {
		req := genFrontDoorRequest(r)
		full := AppendFrontDoorRequest(nil, &req)
		frame, err := ReadFrontDoorFrame(bufio.NewReader(bytes.NewReader(full)), nil)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(frame); cut++ {
			_, _ = DecodeFrontDoorRequest(frame[:cut]) // must not panic
		}
		if _, err := DecodeFrontDoorRequest(append(append([]byte{}, frame...), 0xEE)); err == nil {
			t.Fatal("trailing byte not rejected")
		}
	}
	if _, err := DecodeFrontDoorRequest([]byte{}); err == nil {
		t.Fatal("empty request frame not rejected")
	}
	if _, err := DecodeFrontDoorResponse([]byte{0xFF, 0x01}); err == nil {
		t.Fatal("unknown response kind not rejected")
	}
}
