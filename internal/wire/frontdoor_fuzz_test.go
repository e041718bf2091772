package wire

import (
	"bufio"
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/item"
)

// FuzzFrontDoorDecode feeds arbitrary bytes through the front-door frame
// reader and both payload decoders — exactly what a kvserver does with bytes
// off an untrusted client socket. Corrupted or truncated input must only
// ever produce errors, never panics or runaway allocations, and any frame
// that decodes must re-encode to the same value (the client pool relies on
// responses surviving re-serialization in proxies and tests). A request is
// decoded in place, so it is first detached the way kvserver detaches what a
// PUT or an RO-TX keeps, and its frame overwritten: the round trip runs on
// the copies alone. A response decodes through both forms alike — exact
// copies, and carved from one chunk the way the client pool decodes — and a
// carved response is never overwritten by later decodes through its chunk.
func FuzzFrontDoorDecode(f *testing.F) {
	reqs := []FrontDoorRequest{
		{Op: FDPing, ID: 1, Session: 1},
		{Op: FDPut, ID: 2, Session: 1, Key: "user:42", Value: []byte("payload")},
		{Op: FDPut, ID: 3, Session: 2, Key: "", Value: nil},
		{Op: FDGet, ID: 4, Session: 1, Key: "user:42"},
		{Op: FDROTx, ID: 5, Session: 3, Keys: []string{"a", "b", "c"}},
		{Op: FDROTx, ID: 6, Session: 3, Keys: []string{}},
		{Op: FDStats, ID: 7, Session: 1},
		{Op: FDAdmin, ID: 8, Session: 1, Line: "WHEREIS user:42"},
	}
	resps := []FrontDoorResponse{
		{Kind: FDOK, ID: 1},
		{Kind: FDErr, ID: 2, Code: FDCodeWrongSlotEpoch, Text: "wrong slot epoch"},
		{Kind: FDValue, ID: 3, Exists: true, Value: []byte("payload")},
		{Kind: FDValue, ID: 4, Exists: false, Value: nil},
		{Kind: FDTx, ID: 5, Items: []FrontDoorTxItem{
			{Key: "a", Exists: true, Value: []byte("x")},
			{Key: "b", Exists: false},
		}},
		{Kind: FDText, ID: 6, Text: "stats line"},
	}
	for i := range reqs {
		b := AppendFrontDoorRequest(nil, &reqs[i])
		f.Add(b)
		f.Add(b[:len(b)/2]) // truncated frame
	}
	var stream []byte // every response, one after another through one chunk
	for i := range resps {
		b := AppendFrontDoorResponse(nil, &resps[i])
		f.Add(b)
		f.Add(b[:len(b)/2])
		stream = append(stream, b...)
	}
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var vals item.Chunk
		var carved, exact []FrontDoorResponse // carved[i] decoded equal to exact[i]
		defer func() {
			for i := range carved {
				if !reflect.DeepEqual(carved[i], exact[i]) {
					t.Fatalf("a later decode through the chunk changed response %d:\n was: %#v\n now: %#v", i, exact[i], carved[i])
				}
			}
		}()
		for {
			frame, err := ReadFrontDoorFrame(br, nil)
			if err != nil {
				if err != io.EOF && !bytes.Contains([]byte(err.Error()), []byte("front door")) {
					t.Fatalf("unexpected error shape: %v", err)
				}
				return
			}
			scratch := bytes.Clone(frame) // frame itself is decoded again below
			if req, err := DecodeFrontDoorRequest(scratch); err == nil {
				if req.Op != FDGet && req.Op != FDPut { // GET and PUT borrow their frame
					req.Detach()
					for i := range scratch {
						scratch[i] ^= 0xFF
					}
				}
				re := AppendFrontDoorRequest(nil, &req)
				frame2, err := ReadFrontDoorFrame(bufio.NewReader(bytes.NewReader(re)), nil)
				if err != nil {
					t.Fatalf("re-encoded request unreadable: %v (%#v)", err, req)
				}
				req2, err := DecodeFrontDoorRequest(frame2)
				if err != nil {
					t.Fatalf("re-encoded request failed to decode: %v (%#v)", err, req)
				}
				if !reflect.DeepEqual(req, req2) {
					t.Fatalf("re-encode changed the request:\n in: %#v\nout: %#v", req, req2)
				}
			}
			// The same bytes interpreted as a response must also fail cleanly
			// or round-trip, and decode alike through the chunk, twice over:
			// each copy is carved past the last.
			resp, err := DecodeFrontDoorResponse(frame)
			for range 2 {
				scratch = bytes.Clone(frame)
				c, cerr := DecodeFrontDoorResponseChunked(scratch, &vals)
				if (cerr == nil) != (err == nil) || err == nil && !reflect.DeepEqual(c, resp) {
					t.Fatalf("the chunked decode differs:\n exact: %#v, %v\n chunked: %#v, %v", resp, err, c, cerr)
				}
				clear(scratch) // a carved response never aliases its frame
				if cerr == nil {
					carved, exact = append(carved, c), append(exact, resp)
				}
			}
			if err == nil {
				re := AppendFrontDoorResponse(nil, &resp)
				frame2, err := ReadFrontDoorFrame(bufio.NewReader(bytes.NewReader(re)), nil)
				if err != nil {
					t.Fatalf("re-encoded response unreadable: %v (%#v)", err, resp)
				}
				resp2, err := DecodeFrontDoorResponse(frame2)
				if err != nil {
					t.Fatalf("re-encoded response failed to decode: %v (%#v)", err, resp)
				}
				if !reflect.DeepEqual(resp, resp2) {
					t.Fatalf("re-encode changed the response:\n in: %#v\nout: %#v", resp, resp2)
				}
			}
		}
	})
}
