// Stream framing, the one frame layer both streams share: replication
// envelopes between servers (BinaryEncoder, BinaryDecoder) and front-door
// requests and responses (AppendFrontDoorRequest/Response,
// ReadFrontDoorFrame). Every frame is
//
//	uvarint(payload length) || payload
//
// A frame is appended in place: openFrame reserves room for the prefix, the
// payload is appended behind it, and closeFrame writes the prefix and moves
// the payload down against it. Each stream bounds its payloads — maxFrame,
// MaxFrontDoorFrame — on both sides: a payload over the limit is never
// written, and a prefix over it is never read past.
//
// The encoder reuses one scratch buffer across calls, so a steady-state
// Encode performs zero allocations and exactly one Write (one frame). The
// decoder reuses its frame buffer.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// maxFrame bounds a replication frame's payload so a corrupted length prefix
// cannot ask the decoder to allocate gigabytes.
const maxFrame = 1 << 28

// framePrefix is the room openFrame reserves: the longest uvarint of a
// payload length either stream allows (maxFrame takes five bytes).
const framePrefix = 5

// openFrame reserves the length prefix of a frame about to be appended to b
// and returns where the frame starts.
func openFrame(b []byte) ([]byte, int) {
	return append(b, 0, 0, 0, 0, 0), len(b)
}

// closeFrame writes the length prefix of the frame opened at base and moves
// the payload down against it. A payload over limit is cut off instead,
// leaving b as it was before openFrame, and ok is false.
func closeFrame(b []byte, base, limit int) (_ []byte, ok bool) {
	n := len(b) - base - framePrefix
	if n > limit {
		return b[:base], false
	}
	p := binary.PutUvarint(b[base:base+framePrefix], uint64(n))
	copy(b[base+p:], b[base+framePrefix:])
	return b[:base+p+n], true
}

// readFrame reads one frame's payload into buf, or into a new buffer when
// buf is too small, refusing a length over limit; stream names the stream in
// its errors. It returns io.EOF unwrapped at a clean stream end so read loops
// can terminate.
func readFrame(r *bufio.Reader, buf []byte, limit uint64, stream string) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: %s: %w", stream, err)
	}
	if n > limit {
		return nil, fmt.Errorf("wire: %s: frame of %d bytes exceeds the %d-byte limit", stream, n, limit)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	frame := buf[:n]
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, fmt.Errorf("wire: %s: truncated frame: %w", stream, err)
	}
	return frame, nil
}

// BinaryEncoder writes binary-encoded envelopes to a stream.
type BinaryEncoder struct {
	w   io.Writer
	buf []byte // frame scratch, reused across Encode calls
}

// NewBinaryEncoder wraps w.
func NewBinaryEncoder(w io.Writer) *BinaryEncoder {
	return &BinaryEncoder{w: w}
}

// Encode writes one envelope as a single frame (one Write call). An envelope
// whose payload would exceed maxFrame is an error, and nothing is written.
func (e *BinaryEncoder) Encode(env Envelope) error {
	b, base := openFrame(e.buf[:0])
	b, err := appendPayload(b, env)
	if err != nil {
		return err
	}
	b, ok := closeFrame(b, base, maxFrame)
	e.buf = b
	if !ok {
		return fmt.Errorf("wire: encode: %T exceeds the %d-byte frame limit", env.Msg, maxFrame)
	}
	if _, err := e.w.Write(b); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return nil
}

// BinaryDecoder reads binary-encoded envelopes from a stream.
type BinaryDecoder struct {
	r   *bufio.Reader
	buf []byte // frame buffer, reused across Decode calls
}

// NewBinaryDecoder wraps r.
func NewBinaryDecoder(r io.Reader) *BinaryDecoder {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &BinaryDecoder{r: br}
}

// Decode reads one envelope. It returns io.EOF unwrapped at a clean stream
// end so callers can end their read loops.
func (d *BinaryDecoder) Decode() (Envelope, error) {
	frame, err := readFrame(d.r, d.buf, maxFrame, "decode")
	if err != nil {
		return Envelope{}, err
	}
	d.buf = frame
	env, err := parsePayload(frame)
	if err != nil {
		return env, fmt.Errorf("wire: decode: %w", err)
	}
	return env, nil
}
