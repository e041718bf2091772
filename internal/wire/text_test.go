package wire

import (
	"reflect"
	"testing"
)

func TestParseTextRequest(t *testing.T) {
	for _, tc := range []struct {
		line string
		want FrontDoorRequest
		err  string // "" = no error
	}{
		{line: "PING", want: FrontDoorRequest{Op: FDPing}},
		{line: "put k a value  with spaces", want: FrontDoorRequest{Op: FDPut, Key: "k", Value: []byte("a value  with spaces")}},
		{line: "PUT k ", want: FrontDoorRequest{Op: FDPut, Key: "k", Value: []byte{}}},
		{line: "PUT onlykey", err: "usage: PUT <key> <value>"},
		{line: "Get k", want: FrontDoorRequest{Op: FDGet, Key: "k"}},
		{line: "GET", err: "usage: GET <key>"},
		{line: "GET two words", err: "usage: GET <key>"},
		{line: "TX a  b c", want: FrontDoorRequest{Op: FDROTx, Keys: []string{"a", "b", "c"}}},
		{line: "TX", err: "usage: TX <key> [key...]"},
		{line: "STATS", want: FrontDoorRequest{Op: FDStats}},
		{line: "quit", err: ErrTextQuit.Error()},
		{line: "SPLIT 0", want: FrontDoorRequest{Op: FDAdmin, Line: "SPLIT 0"}},
		{line: "FLY me", want: FrontDoorRequest{Op: FDAdmin, Line: "FLY me"}},
	} {
		got, err := ParseTextRequest(tc.line)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%q: err = %v, want %q", tc.line, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q = %+v, %v; want %+v", tc.line, got, err, tc.want)
		}
	}
}

func TestAppendTextResponse(t *testing.T) {
	for _, tc := range []struct {
		op   byte
		resp FrontDoorResponse
		want string
	}{
		{FDPing, FrontDoorResponse{Kind: FDOK}, "PONG\n"},
		{FDPut, FrontDoorResponse{Kind: FDOK}, "OK\n"},
		{FDGet, FrontDoorResponse{Kind: FDValue, Exists: true, Value: []byte("a b")}, "VALUE a b\n"},
		{FDGet, FrontDoorResponse{Kind: FDValue, Exists: true}, "VALUE \n"},
		{FDGet, FrontDoorResponse{Kind: FDValue}, "NIL\n"},
		{FDROTx, FrontDoorResponse{Kind: FDTx, Items: []FrontDoorTxItem{
			{Key: "a", Exists: true, Value: []byte("1")}, {Key: "ghost"},
		}}, "TXVAL a 1\nTXNIL ghost\nTXEND\n"},
		{FDROTx, FrontDoorResponse{Kind: FDTx}, "TXEND\n"},
		{FDAdmin, FrontDoorResponse{Kind: FDText, Text: "SLOTS epoch=0 parts=2\nSLOTEND"}, "SLOTS epoch=0 parts=2\nSLOTEND\n"},
		{FDGet, FrontDoorResponse{Kind: FDErr, Code: FDCodeStopped, Text: "server stopped"}, "ERR server stopped\n"},
	} {
		// Appended after what dst already holds, never over it.
		if got := string(AppendTextResponse([]byte("> "), tc.op, &tc.resp)); got != "> "+tc.want {
			t.Errorf("op %d %+v rendered %q, want %q", tc.op, tc.resp, got, tc.want)
		}
	}
}
