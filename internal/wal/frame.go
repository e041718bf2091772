package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// idxMagic prefixes the payload of an index trailer record — the per-origin
// [min,max] timestamp ranges a rolled segment persists about itself. The
// first byte is outside the wire codec's marker space and outside printable
// ASCII, so engine payloads can never collide with it.
var idxMagic = []byte{0xF7, 'w', 'i', 'd', 'x', '1'}

// appendFrame appends one framed record to b.
func appendFrame(b, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// appendRecordFrame appends r's payload framed as appendFrame frames it: the
// payload is encoded past room for the longest header, then slid down to meet
// its real one.
func appendRecordFrame(b []byte, r Record) []byte {
	start := len(b)
	b = r.AppendTo(append(b, make([]byte, frameHeaderMax)...))
	payload := b[start+frameHeaderMax:]
	var hdr [frameHeaderMax]byte
	h := binary.PutUvarint(hdr[:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[h:], crc32.Checksum(payload, crcTable))
	h += 4
	n := copy(b[start+h:], payload)
	copy(b[start:], hdr[:h])
	return b[:start+h+n]
}

// appendIdxTrailer frames a segment's range index as a trailer record; nil if
// there is nothing to persist (no tagged records and no untagged marker —
// an empty segment needs no trailer).
func appendIdxTrailer(b []byte, r *partRange) []byte {
	n := 0
	for _, lo := range r.lo {
		if lo > 0 {
			n++
		}
	}
	if n == 0 && !r.untagged {
		return b
	}
	p := make([]byte, 0, len(idxMagic)+2+n*15)
	p = append(p, idxMagic...)
	if r.untagged {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.AppendUvarint(p, uint64(n))
	for o, lo := range r.lo {
		if lo == 0 {
			continue
		}
		p = binary.AppendUvarint(p, uint64(o))
		p = binary.AppendUvarint(p, lo)
		p = binary.AppendUvarint(p, r.hi[o])
	}
	return appendFrame(b, p)
}

func isIdxTrailer(rec []byte) bool {
	return len(rec) >= len(idxMagic) && string(rec[:len(idxMagic)]) == string(idxMagic)
}

// parseIdxTrailer decodes an index trailer payload; ok=false if rec is a
// regular record. A recognizable but malformed trailer yields an untagged
// (never-skippable) range rather than an error — the index is advisory.
func parseIdxTrailer(rec []byte) (*partRange, bool) {
	if !isIdxTrailer(rec) {
		return nil, false
	}
	r := &partRange{}
	b := rec[len(idxMagic):]
	bad := &partRange{untagged: true}
	if len(b) < 1 {
		return bad, true
	}
	r.untagged = b[0] != 0
	b = b[1:]
	n, un := binary.Uvarint(b)
	if un <= 0 || n > 1<<20 {
		return bad, true
	}
	b = b[un:]
	for i := uint64(0); i < n; i++ {
		o, un := binary.Uvarint(b)
		if un <= 0 || o > 1<<20 {
			return bad, true
		}
		b = b[un:]
		lo, un := binary.Uvarint(b)
		if un <= 0 {
			return bad, true
		}
		b = b[un:]
		hi, un := binary.Uvarint(b)
		if un <= 0 {
			return bad, true
		}
		b = b[un:]
		r.add(int(o), lo)
		r.add(int(o), hi)
	}
	return r, true
}

// nextFrame parses the first framed record of b, returning the payload and
// the bytes consumed. io.EOF means b is empty; io.ErrUnexpectedEOF means the
// record is torn (bytes missing at the end of b); ErrCorrupt means the bytes
// present cannot be a valid record.
func nextFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) == 0 {
		return nil, 0, io.EOF
	}
	length, un := binary.Uvarint(b)
	if un == 0 {
		return nil, 0, io.ErrUnexpectedEOF // varint cut off at buffer end
	}
	if un < 0 || length > maxRecordBytes {
		return nil, 0, ErrCorrupt
	}
	rest := b[un:]
	if uint64(len(rest)) < 4+length {
		return nil, 0, io.ErrUnexpectedEOF
	}
	sum := binary.LittleEndian.Uint32(rest)
	payload = rest[4 : 4+length]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, un + 4 + int(length), nil
}

// walk invokes replay for every record in data and returns how many bytes
// of whole records it consumed. With tolerateTorn, a torn record at the tail
// is silently dropped (the caller truncates the file to the consumed
// length); corruption — or a torn record when not tolerated — is an error.
func walk(data []byte, replay func(rec []byte) error, tolerateTorn bool) (int, error) {
	pos := 0
	for {
		payload, n, err := nextFrame(data[pos:])
		if err == io.EOF {
			return pos, nil
		}
		if err == io.ErrUnexpectedEOF && tolerateTorn {
			return pos, nil
		}
		if err != nil {
			return pos, fmt.Errorf("offset %d: %w", pos, err)
		}
		if rerr := replay(payload); rerr != nil {
			return pos, fmt.Errorf("offset %d: %w", pos, rerr)
		}
		pos += n
	}
}

func fileName(seq uint64, suffix string) string {
	return fmt.Sprintf("%018d%s", seq, suffix)
}

func parseName(name, suffix string) (uint64, bool) {
	seq, err := strconv.ParseUint(strings.TrimSuffix(name, suffix), 10, 64)
	return seq, err == nil && seq > 0
}
