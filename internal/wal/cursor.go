package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// cursorPart is one file of a cursor's iteration (ReadFrom's or ReadRange's),
// pinned open while the cursor runs so a concurrent checkpoint unlinking it
// cannot invalidate the read.
type cursorPart struct {
	seq   uint64 // segment sequence, 0 for the snapshot
	f     *os.File
	limit int64 // bytes to read; -1 = whole file
}

// ReadFrom replays the log's durable records in order, invoking fn with each
// record's part — its segment sequence number, 0 for the snapshot — and
// payload (the payload slice is only valid during the call). Iteration starts
// at segment seq: when seq is at or below the sequence the snapshot was cut
// at, the snapshot's records are replayed first, followed by every live
// segment ≥ seq. The boundary is captured atomically at the call: records
// durably committed before ReadFrom is invoked are included, staged or later
// appends are not, and concurrent appends or checkpoints never corrupt the
// iteration (files are pinned open before the lock is released). Replication
// catch-up does not read through it: it reads through ReadRange
// (storage.Durable.ForEachDurable). ReadFrom's callers are tests, which use it
// as the full scan that range_diff_test.go checks ReadRange against; that
// reference is why it stays.
func (l *Log) ReadFrom(seq uint64, fn func(seg uint64, rec []byte) error) error {
	_, err := l.read(seq, false, nil, nil, fn)
	return err
}

// ReadRange replays, in order, the durable records that may fall inside the
// per-origin window (lo[o], hi[o]] — request entries past either slice's
// length are unbounded. It consults the segment range index to skip the
// snapshot and any segment that cannot intersect the window, and returns how
// many such parts it skipped (the seek win) without reading them. fn may
// still see records outside the window: ranges are per-part summaries, so
// callers keep their per-record filter.
func (l *Log) ReadRange(lo, hi []uint64, fn func(seg uint64, rec []byte) error) (skipped int, err error) {
	return l.read(0, true, lo, hi, fn)
}

func (l *Log) read(seq uint64, ranged bool, lo, hi []uint64, fn func(seg uint64, rec []byte) error) (int, error) {
	l.mu.Lock()
	if l.f == nil || l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	skipped := 0
	var parts []cursorPart
	fail := func(err error) error {
		l.mu.Unlock()
		for _, p := range parts {
			p.f.Close()
		}
		return fmt.Errorf("wal: cursor: %w", err)
	}
	if l.snap > 0 && seq <= l.snap {
		if ranged && !l.snapRng.overlaps(lo, hi) {
			skipped++
		} else {
			f, err := os.Open(filepath.Join(l.dir, fileName(l.snap, snapSuffix)))
			if err != nil {
				return skipped, fail(err)
			}
			parts = append(parts, cursorPart{seq: 0, f: f, limit: -1})
		}
	}
	first := l.firstSeg
	if seq > first {
		first = seq
	}
	for s := first; s <= l.seq; s++ {
		rng := l.cur
		if s != l.seq {
			rng = l.idx[s]
		}
		if ranged && !rng.overlaps(lo, hi) {
			skipped++
			continue
		}
		f, err := os.Open(filepath.Join(l.dir, fileName(s, segSuffix)))
		if err != nil {
			if os.IsNotExist(err) {
				continue // pruned by an earlier checkpoint; snapshot covers it
			}
			return skipped, fail(err)
		}
		limit := int64(-1)
		if s == l.seq {
			// The active segment may grow after the lock drops; stop at the
			// committed size, which is always a whole-record boundary.
			limit = l.size
		}
		parts = append(parts, cursorPart{seq: s, f: f, limit: limit})
	}
	l.mu.Unlock()

	var err error
	for _, p := range parts {
		if err == nil {
			err = readPart(p, fn)
		}
		p.f.Close()
	}
	return skipped, err
}

// readPart replays one pinned cursor file. Every record must parse: cursor
// files never carry a torn tail (the active segment is cut at a commit
// boundary and older files were fully committed), so any framing error is
// real corruption. Index trailer records are filtered out.
func readPart(p cursorPart, fn func(seg uint64, rec []byte) error) error {
	var data []byte
	var err error
	if p.limit >= 0 {
		data = make([]byte, p.limit)
		_, err = io.ReadFull(p.f, data)
	} else {
		data, err = io.ReadAll(p.f)
	}
	if err != nil {
		return fmt.Errorf("wal: cursor: segment %d: %w", p.seq, err)
	}
	_, err = walk(data, func(rec []byte) error {
		if isIdxTrailer(rec) {
			return nil
		}
		return fn(p.seq, rec)
	}, false)
	if err != nil {
		return fmt.Errorf("wal: cursor: segment %d: %w", p.seq, err)
	}
	return nil
}
