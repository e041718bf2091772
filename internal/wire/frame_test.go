package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
)

// TestFrameLimit: closeFrame writes the same prefix binary.AppendUvarint
// would for every prefix width the reservation holds, and a payload over the
// limit leaves the buffer as it was, whatever lies in front of the frame.
func TestFrameLimit(t *testing.T) {
	head := []byte("earlier frames")
	for _, n := range []int{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<21 - 1, 1 << 21} {
		pay := bytes.Repeat([]byte{0xA5}, n)
		b, base := openFrame(bytes.Clone(head))
		got, ok := closeFrame(append(b, pay...), base, n)
		want := append(binary.AppendUvarint(bytes.Clone(head), uint64(n)), pay...)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload at its limit: ok=%v, frame differs from uvarint(len) || payload", n, ok)
		}
		if n == 0 {
			continue
		}
		b, base = openFrame(bytes.Clone(head))
		if got, ok := closeFrame(append(b, pay...), base, n-1); ok || !bytes.Equal(got, head) {
			t.Fatalf("%d-byte payload over a limit of %d: ok=%v, %d bytes left, want %d", n, n-1, ok, len(got), len(head))
		}
	}
}

// TestFrontDoorOversize: a request too large for a frame appends nothing, and
// a response too large for one is answered with FDErr naming the limit; the
// frames before them stay intact.
func TestFrontDoorOversize(t *testing.T) {
	huge := make([]byte, MaxFrontDoorFrame)
	head := AppendFrontDoorRequest(nil, &FrontDoorRequest{Op: FDPing, ID: 1})
	req := FrontDoorRequest{Op: FDPut, ID: 2, Session: 3, Key: "k", Value: huge}
	if got := AppendFrontDoorRequest(bytes.Clone(head), &req); !bytes.Equal(got, head) {
		t.Fatalf("oversize request appended %d bytes, want none", len(got)-len(head))
	}

	resp := FrontDoorResponse{Kind: FDValue, ID: 9, Exists: true, Value: huge}
	br := bufio.NewReader(bytes.NewReader(AppendFrontDoorResponse(bytes.Clone(head), &resp)))
	if _, err := ReadFrontDoorFrame(br, nil); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrontDoorFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrontDoorResponse(frame)
	if err != nil || got.Kind != FDErr || got.ID != 9 || !strings.Contains(got.Text, strconv.Itoa(MaxFrontDoorFrame)) {
		t.Fatalf("oversize response became %+v (err %v), want FDErr for id 9 naming the limit", got, err)
	}
}
