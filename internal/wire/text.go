// The text encoding of the front-door protocol: one request per line,
// line-oriented responses — what a telnet or nc session types and reads. A
// line parses into the same FrontDoorRequest a binary frame decodes into, and
// a FrontDoorResponse renders as the protocol's lines, so the server (and any
// client that wants the familiar shapes) dispatches requests, never formats.
//
//	PING                      -> PONG
//	PUT <key> <value>         -> OK
//	GET <key>                 -> VALUE <value> | NIL
//	TX <key> [key...]         -> TXVAL <key> <value> | TXNIL <key> (one per
//	                             key, in request order) then TXEND
//	STATS                     -> STATS ops=<n> blocked=<n> ...
//	QUIT                      -> BYE (the server closes the connection)
//
// Every other verb travels as an FDAdmin line and is the server's to
// interpret (internal/kvserver lists them). Errors are reported as
// "ERR <message>". Keys must not contain spaces; values may (everything
// after the key is the value).
package wire

import (
	"errors"
	"strings"
)

// ErrTextQuit is ParseTextRequest's answer to QUIT: the line asks for the
// end of the connection, which is not a request.
var ErrTextQuit = errors.New("wire: text: QUIT")

// ParseTextRequest parses one non-empty text-protocol line. ID and Session
// are left zero: a text connection is one session, answered in order. A
// malformed data command is a usage error; its message is what the peer
// should be told after "ERR ".
func ParseTextRequest(line string) (FrontDoorRequest, error) {
	verb, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(verb) {
	case "PING":
		return FrontDoorRequest{Op: FDPing}, nil
	case "PUT":
		key, value, ok := strings.Cut(rest, " ")
		if !ok || key == "" {
			return FrontDoorRequest{}, errors.New("usage: PUT <key> <value>")
		}
		return FrontDoorRequest{Op: FDPut, Key: key, Value: []byte(value)}, nil
	case "GET":
		key := strings.TrimSpace(rest)
		if key == "" || strings.ContainsRune(key, ' ') {
			return FrontDoorRequest{}, errors.New("usage: GET <key>")
		}
		return FrontDoorRequest{Op: FDGet, Key: key}, nil
	case "TX":
		keys := strings.Fields(rest)
		if len(keys) == 0 {
			return FrontDoorRequest{}, errors.New("usage: TX <key> [key...]")
		}
		return FrontDoorRequest{Op: FDROTx, Keys: keys}, nil
	case "STATS":
		return FrontDoorRequest{Op: FDStats}, nil
	case "QUIT":
		return FrontDoorRequest{}, ErrTextQuit
	default:
		return FrontDoorRequest{Op: FDAdmin, Line: line}, nil
	}
}

// AppendTextResponse appends r, the answer to a request of the given op,
// to dst as the protocol's lines, each newline-terminated. The op is needed
// because a binary FDOK does not say what it acknowledges and the text
// protocol does.
func AppendTextResponse(dst []byte, op byte, r *FrontDoorResponse) []byte {
	switch r.Kind {
	case FDOK:
		if op == FDPing {
			return append(dst, "PONG\n"...)
		}
		return append(dst, "OK\n"...)
	case FDValue:
		if !r.Exists {
			return append(dst, "NIL\n"...)
		}
		dst = append(dst, "VALUE "...)
		dst = append(dst, r.Value...)
	case FDTx:
		for i := range r.Items {
			it := &r.Items[i]
			if !it.Exists {
				dst = append(append(dst, "TXNIL "...), it.Key...)
			} else {
				dst = append(append(dst, "TXVAL "...), it.Key...)
				dst = append(append(dst, ' '), it.Value...)
			}
			dst = append(dst, '\n')
		}
		dst = append(dst, "TXEND"...)
	case FDText:
		dst = append(dst, r.Text...)
	default: // FDErr
		dst = append(append(dst, "ERR "...), r.Text...)
	}
	return append(dst, '\n')
}
