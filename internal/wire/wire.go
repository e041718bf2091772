// Package wire holds the system's two wire formats, each in one place.
//
// Between servers (internal/tcpnet) protocol messages travel as envelopes —
// the source node and one message — in a hand-rolled binary format with
// varint-encoded timestamps and a reusable scratch buffer: the
// zero-allocation encode path of the replication hot loop. encode.go writes
// an envelope's payload and decode.go parses it. It is the only replication
// codec; a stream speaks it end to end.
//
// Between a client and a server, requests and responses are
// FrontDoorRequest/FrontDoorResponse values with two encodings: binary
// frames (frontdoor.go) and the line-text protocol a telnet session can type
// (text.go). Both decode to the same request and render the same response,
// so a server needs one dispatcher per socket, not one per format.
//
// Both binary streams share one frame layer (frame.go): a length prefix
// reserved and closed in place on the way out, one reader on the way in, and
// a per-stream limit on both sides, so a frame too large for its stream
// fails alone and is never half written.
package wire

import "repro/internal/netemu"

// Envelope frames one protocol message on the wire.
type Envelope struct {
	Src netemu.NodeID
	Msg any
}
