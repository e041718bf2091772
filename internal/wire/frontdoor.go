// The front-door protocol: the framed binary request/response format the
// kvserver serving path speaks to external clients (internal/client's
// connection pool, cmd/pocccli). It shares the replication stream's frames
// (frame.go) and primitive encodings, but carries client operations instead
// of replication-plane messages.
//
// A request payload is
//
//	byte(op) || uvarint(request id) || uvarint(session id) || fields
//
// and a response payload is
//
//	byte(kind) || uvarint(request id) || fields
//
// The request id ties a response back to its request: many requests may be
// in flight on one connection, and the server completes them out of order
// (a causally-blocked GET never stalls requests of other sessions behind
// it), so responses carry no positional meaning. The session id multiplexes
// many client sessions onto one connection: requests of one session execute
// in FIFO order (a session is a single thread of execution in the causality
// order), requests of different sessions execute independently.
//
// A binary connection is negotiated by its first byte: a client opens with
// FrontDoorMagic (0xB1, never the first byte of a text-protocol line), and
// everything after it is frames. Connections that open with anything else
// carry the same requests and responses as text lines (text.go).
package wire

import (
	"bufio"
	"fmt"
	"unsafe"
)

// FrontDoorMagic is the first byte of a binary front-door connection. Text
// protocol lines start with printable ASCII, so the byte unambiguously
// selects the protocol.
const FrontDoorMagic = 0xB1

// MaxFrontDoorFrame bounds a front-door frame's payload so a corrupted length
// prefix cannot ask either side to allocate gigabytes. 16 MiB comfortably
// fits the largest legal request (a PUT value) and response (a wide RO-TX);
// a frame that would exceed it is never sent (see AppendFrontDoorRequest
// and AppendFrontDoorResponse).
const MaxFrontDoorFrame = 1 << 24

// Front-door request ops.
const (
	// FDPing checks liveness; the reply is FDOK.
	FDPing byte = iota + 1
	// FDPut writes Key=Value on the request's session; the reply is FDOK.
	FDPut
	// FDGet reads Key; the reply is FDValue.
	FDGet
	// FDROTx reads Keys atomically from a causal snapshot; the reply is FDTx.
	FDROTx
	// FDStats returns the server's stats line; the reply is FDText.
	FDStats
	// FDAdmin runs one admin command line (WHEREIS/SPLIT/MOVESLOTS/SLOTS/
	// JOIN/LEAVE/EVICT/STATS) and returns its text-protocol output verbatim
	// as FDText — possibly multi-line (SLOTS).
	FDAdmin
)

// Front-door response kinds.
const (
	// FDOK acknowledges a request with no payload (PUT, PING).
	FDOK byte = iota + 1
	// FDErr reports a failure: a machine-readable code plus the error text.
	FDErr
	// FDValue answers a GET: an exists flag and the value bytes.
	FDValue
	// FDTx answers an RO-TX: one item per requested key, in request order.
	FDTx
	// FDText carries a text payload (STATS line, admin command output).
	FDText
)

// Machine-readable error codes on FDErr responses. Clients use them to
// re-map wire errors onto the canonical error values (errors.Is works again
// on the far side of the connection) and to drive retry policy without
// string matching.
const (
	// FDCodeGeneric is any error without a dedicated code.
	FDCodeGeneric byte = iota
	// FDCodeWrongSlotEpoch: the key's slot moved mid-reshard and the
	// server-side retry budget expired. Retryable, but not by the client
	// pool, which surfaces it: the budget already outlasted a healthy
	// reshard.
	FDCodeWrongSlotEpoch
	// FDCodeSessionClosed: the server closed the session (HA-POCC suspected
	// a network partition). The client must re-initialize its session state.
	FDCodeSessionClosed
	// FDCodeStopped: the operation raced a stopping or restarting server.
	// Transient — retry once the server is back.
	FDCodeStopped
	// FDCodeNoDataCenter: the session's data center left the deployment.
	// Permanent — open a session against a surviving DC.
	FDCodeNoDataCenter
)

// FrontDoorRequest is one decoded request frame. Op selects which fields
// are meaningful: Key+Value for FDPut, Key for FDGet, Keys for FDROTx, Line
// for FDAdmin.
type FrontDoorRequest struct {
	Op      byte
	ID      uint64 // request id, echoed on the response
	Session uint64 // session id, multiplexing key on the connection
	Key     string
	Value   []byte
	Keys    []string
	Line    string
}

// FrontDoorTxItem is one RO-TX result item.
type FrontDoorTxItem struct {
	Key    string
	Exists bool
	Value  []byte
}

// FrontDoorResponse is one decoded response frame. Kind selects which
// fields are meaningful: Code+Text for FDErr, Exists+Value for FDValue,
// Items for FDTx, Text for FDText.
type FrontDoorResponse struct {
	Kind   byte
	ID     uint64 // the request this answers
	Code   byte   // FDErr: machine-readable error code
	Exists bool   // FDValue: false means the key has no visible version
	Value  []byte
	Items  []FrontDoorTxItem
	Text   string // FDText payload or FDErr message
}

// AppendFrontDoorRequest appends one complete request frame (length prefix
// included) to dst and returns the extended slice. Appending to a reused
// buffer makes the steady-state encode path allocation-free, and many
// frames appended to one buffer reach the socket in a single write — the
// client-side pipelining primitive. A request whose payload would exceed
// MaxFrontDoorFrame appends nothing: dst comes back as it was, and the
// caller fails that request alone.
func AppendFrontDoorRequest(dst []byte, r *FrontDoorRequest) []byte {
	dst, base := openFrame(dst)
	dst = append(dst, r.Op)
	dst = appendUint(dst, r.ID)
	dst = appendUint(dst, r.Session)
	switch r.Op {
	case FDPut:
		dst = appendString(dst, r.Key)
		dst = appendBytes(dst, r.Value)
	case FDGet:
		dst = appendString(dst, r.Key)
	case FDROTx:
		dst = appendList(dst, r.Keys, appendString)
	case FDAdmin:
		dst = appendString(dst, r.Line)
	}
	dst, _ = closeFrame(dst, base, MaxFrontDoorFrame)
	return dst
}

// AppendFrontDoorResponse appends one complete response frame (length
// prefix included) to dst — the server-side twin of AppendFrontDoorRequest.
// A response whose payload would exceed MaxFrontDoorFrame is answered with
// an FDErr frame that names the limit instead.
func AppendFrontDoorResponse(dst []byte, r *FrontDoorResponse) []byte {
	dst, base := openFrame(dst)
	dst = append(dst, r.Kind)
	dst = appendUint(dst, r.ID)
	switch r.Kind {
	case FDErr:
		dst = append(dst, r.Code)
		dst = appendString(dst, r.Text)
	case FDValue:
		dst = appendBool(dst, r.Exists)
		dst = appendBytes(dst, r.Value)
	case FDTx:
		dst = appendList(dst, r.Items, func(b []byte, it FrontDoorTxItem) []byte {
			b = appendString(b, it.Key)
			b = appendBool(b, it.Exists)
			return appendBytes(b, it.Value)
		})
	case FDText:
		dst = appendString(dst, r.Text)
	}
	dst, ok := closeFrame(dst, base, MaxFrontDoorFrame)
	if !ok {
		return AppendFrontDoorResponse(dst, &FrontDoorResponse{Kind: FDErr, ID: r.ID,
			Text: fmt.Sprintf("wire: front door: response exceeds the %d-byte frame limit", MaxFrontDoorFrame)})
	}
	return dst
}

// ReadFrontDoorFrame reads one frame payload, reusing buf when it is large
// enough. It returns io.EOF unwrapped at a clean stream end so read loops can
// terminate.
func ReadFrontDoorFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	return readFrame(r, buf, MaxFrontDoorFrame, "front door")
}

// DecodeFrontDoorRequest parses one request payload (the frame body, length
// prefix already stripped) in place: the request's Key, Value, Keys and Line
// alias frame, so it is valid only while the caller keeps frame untouched.
// Whoever must keep the request past that — or hand its strings to something
// that stores them — calls Detach first. Corrupted input yields an error,
// never a panic.
func DecodeFrontDoorRequest(frame []byte) (FrontDoorRequest, error) {
	var r FrontDoorRequest
	f := &frameReader{b: frame, owned: true}
	r.Op = f.byteVal()
	r.ID = f.uint()
	r.Session = f.uint()
	switch r.Op {
	case FDPing, FDStats:
	case FDPut:
		r.Key = f.string()
		r.Value = f.bytes()
	case FDGet:
		r.Key = f.string()
	case FDROTx:
		r.Keys = list(f, nil, 1, f.string)
	case FDAdmin:
		r.Line = f.string()
	default:
		if f.err == nil {
			return r, fmt.Errorf("wire: front door: unknown request op %d", r.Op)
		}
	}
	return r, f.finish()
}

// Detach makes the request independent of the frame it was decoded from:
// every byte that aliases the frame moves into one allocation — a PUT's key
// and value share the stored version's lifetime, as the versions of a decoded
// replication batch share one copy — after which the frame may be reused. A
// request that carries no bytes (PING, STATS) allocates nothing.
func (r *FrontDoorRequest) Detach() {
	n := len(r.Key) + len(r.Value) + len(r.Line)
	for _, k := range r.Keys {
		n += len(k)
	}
	own := make([]byte, 0, n)
	own, r.Key = detachString(own, r.Key)
	own, r.Line = detachString(own, r.Line)
	for i, k := range r.Keys {
		own, r.Keys[i] = detachString(own, k)
	}
	if r.Value != nil { // nil and empty stay distinct
		own = append(own, r.Value...)
		r.Value = own[len(own)-len(r.Value) : len(own) : len(own)]
	}
}

// detachString appends s to own, which has room for it, and returns the
// string re-pointed at those bytes; nothing writes to them again.
func detachString(own []byte, s string) ([]byte, string) {
	if s == "" {
		return own, ""
	}
	own = append(own, s...)
	return own, unsafe.String(&own[len(own)-len(s)], len(s))
}

// DecodeFrontDoorResponse parses one response payload.
func DecodeFrontDoorResponse(frame []byte) (FrontDoorResponse, error) {
	var r FrontDoorResponse
	f := &frameReader{b: frame}
	r.Kind = f.byteVal()
	r.ID = f.uint()
	switch r.Kind {
	case FDOK:
	case FDErr:
		r.Code = f.byteVal()
		r.Text = f.string()
	case FDValue:
		r.Exists = f.bool()
		r.Value = f.bytes()
	case FDTx:
		// Each item takes three bytes at least: key length, flag, value marker.
		r.Items = list(f, nil, 3, func() FrontDoorTxItem {
			return FrontDoorTxItem{Key: f.string(), Exists: f.bool(), Value: f.bytes()}
		})
	case FDText:
		r.Text = f.string()
	default:
		if f.err == nil {
			return r, fmt.Errorf("wire: front door: unknown response kind %d", r.Kind)
		}
	}
	return r, f.finish()
}
