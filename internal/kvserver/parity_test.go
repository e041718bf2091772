package kvserver

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/keyspace"
	"repro/internal/wire"
)

// TestTextBinaryParity drives every op through both encodings of the front
// door against the same server and asserts the same outcome, error cases
// included. The text side types the line and reads the reply; the binary
// side does what pocccli does — parse the line, send the frame, render the
// response frame — so any difference is the server treating the two sockets
// differently, which one dispatcher cannot do.
func TestTextBinaryParity(t *testing.T) {
	srv := testServer(t)
	text := dial(t, srv.Addr(0))
	bin := dialRawFrontDoor(t, srv)
	whereis := fmt.Sprintf("PARTITION %d", srv.store.PartitionOf("k"))
	// The epoch-0 table over two partitions: even slots to 0, odd slots to 1.
	var even, odd strings.Builder
	for s := 0; s < keyspace.NumSlots; s += 2 {
		fmt.Fprintf(&even, " %d", s)
		fmt.Fprintf(&odd, " %d", s+1)
	}
	slots := "SLOTS epoch=0 parts=2\nSLOT 0" + even.String() + "\nSLOT 1" + odd.String() + "\nSLOTEND"

	for _, tc := range []struct {
		name string
		line string // typed on the text connection; "" = no text spelling
		op   byte   // the op the line must parse to
		// frame, when set, is sent instead of the parsed line: a request only
		// a binary client can build.
		frame *wire.FrontDoorRequest
		want  string // the reply's lines; a trailing "…" makes it a prefix
	}{
		{name: "PING", line: "PING", op: wire.FDPing, want: "PONG"},
		{name: "PUT", line: "PUT k hello world", op: wire.FDPut, want: "OK"},
		{name: "GET hit", line: "GET k", op: wire.FDGet, want: "VALUE hello world"},
		{name: "GET miss", line: "get ghost", op: wire.FDGet, want: "NIL"},
		{name: "TX", line: "TX k ghost", op: wire.FDROTx, want: "TXVAL k hello world\nTXNIL ghost\nTXEND"},
		{name: "TX duplicate and missing keys", line: "TX ghost k ghost k", op: wire.FDROTx,
			want: "TXNIL ghost\nTXVAL k hello world\nTXNIL ghost\nTXVAL k hello world\nTXEND"},
		{name: "STATS", line: "STATS", op: wire.FDStats, want: "STATS ops=…"},
		{name: "WHEREIS", line: "WHEREIS k", op: wire.FDAdmin, want: whereis},
		{name: "SLOTS", line: "SLOTS", op: wire.FDAdmin, want: slots},
		{name: "unknown verb", line: "FLY me", op: wire.FDAdmin, want: `ERR unknown command "FLY"`},
		{name: "admin usage error", line: "WHEREIS", op: wire.FDAdmin, want: "ERR usage: WHEREIS <key>"},
		{name: "data usage error", line: "PUT onlykey", want: "ERR usage: PUT <key> <value>"},
		{name: "data verb in an admin frame", want: `ERR unknown command "PUT"`,
			frame: &wire.FrontDoorRequest{Op: wire.FDAdmin, Line: "PUT k smuggled"}},
		{name: "the smuggled PUT wrote nothing", line: "GET k", op: wire.FDGet, want: "VALUE hello world"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := func(format, got string) {
				t.Helper()
				if prefix, ok := strings.CutSuffix(tc.want, "…"); ok && strings.HasPrefix(got, prefix) {
					return
				}
				if got != tc.want {
					t.Errorf("%s: %q -> %q, want %q", format, tc.line, got, tc.want)
				}
			}
			if tc.line != "" {
				lines := []string{text.send(t, tc.line)}
				for range strings.Count(tc.want, "\n") {
					lines = append(lines, readLine(t, text.r))
				}
				check("text", strings.Join(lines, "\n"))
			}

			req := tc.frame
			var resp wire.FrontDoorResponse
			if req == nil {
				parsed, err := wire.ParseTextRequest(tc.line)
				if parsed.Op != tc.op {
					t.Fatalf("%q parsed to op %d, want %d", tc.line, parsed.Op, tc.op)
				}
				if err != nil { // a usage error never leaves the client
					resp = wire.FrontDoorResponse{Kind: wire.FDErr, Text: err.Error()}
				}
				req = &parsed
			}
			if resp.Kind == 0 {
				req.ID, req.Session = 42, 1
				if resp = bin.roundTrip(t, nil, req); resp.ID != 42 {
					t.Fatalf("response id = %d", resp.ID)
				}
			}
			rendered := string(wire.AppendTextResponse(nil, req.Op, &resp))
			check("binary", strings.TrimSuffix(rendered, "\n"))
		})
	}
}
