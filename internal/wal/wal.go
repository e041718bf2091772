// Package wal implements the segmented write-ahead log behind the durable
// storage engine (storage.Durable). The log is a directory of append-only
// segment files plus at most one snapshot file:
//
//	000000000000000001.wal   log segments, ascending sequence numbers
//	000000000000000003.wal
//	000000000000000003.snap  checkpoint covering every segment ≤ 3
//
// Each record — in segments and snapshots alike — is framed as
//
//	uvarint(payload length) || uint32le(crc32c payload checksum) || payload
//
// where the payload is opaque to the log (the storage engine stores
// internal/wire version records).
//
// # Pipelined group commit
//
// Commits are pipelined through a single background committer goroutine.
// Append and AppendAsync copy byte records onto the stage; AppendRecords and
// AppendRecordAsync stage a Record — an immutable value the committer
// encodes itself — so an appender's work per record is one lock and one slice
// append. Appends then return (the Async forms) or wait for durability, while
// the committer drains everything staged as one commit group: it frames the
// group's records in stage order into one reused encode buffer, writing the
// buffer out whenever the next record might not fit, and then, unless NoSync
// is set, fsyncs once — no matter how many concurrent appenders contributed.
// While a group's fsync is in flight the next group accumulates, so the disk
// is never idle between commits and the fsync cost amortizes across every
// record staged meanwhile. Barrier waits until everything staged
// so far is durable; Err reports the sticky persistence error that fails the
// log permanently once the committer cannot write (the error is also pushed
// to Options.OnError, and every staged-but-unsynced append is failed rather
// than silently dropped). Close and Checkpoint drain the pipeline first, so
// an orderly shutdown never loses an acknowledged-async record.
//
// # Per-segment range index
//
// The log parses no payload: a record's (origin, timestamp) index tag comes
// from the code that knows its format. A Record reports its own (Tag) when
// the committer or a checkpoint frames it, Open's replay callback returns the
// tag of each record it decodes, and a byte record staged by Append or
// AppendAsync is untagged. Each part tracks the [min,max] timestamp range it
// holds per origin. A rolled segment persists its range as an index
// trailer record (a reserved payload the log filters out of replay and
// cursor reads); Open rebuilds the in-memory index from the trailers and — for
// the snapshot and the tail segment, which have none — from the replay tags.
// ReadRange uses the index to skip the snapshot and every segment whose
// ranges cannot intersect a requested per-origin (lo, hi] window, which turns
// a catch-up of a small recent gap from an O(store) scan into an O(gap) read
// of the last segment(s).
//
// Checkpoint atomically replaces the log's history with a snapshot: the
// snapshot is written to a temp file, fsynced and renamed to
// <activeseq>.snap, after which every segment ≤ activeseq (and any older
// snapshot) is removed and a fresh segment is started. Recovery (Open) loads
// the newest snapshot, replays every younger segment in order, and tolerates
// a torn record at the very tail of the final segment — the footprint of a
// crash mid-commit — by truncating it away. A short or corrupt record
// anywhere else is real corruption and fails the open.
//
// ReadFrom is the cursor over the same history for a live log: it replays
// snapshot + segments from a given segment sequence without blocking
// appends, pinning the files open so concurrent checkpoints cannot yank
// them away; ReadRange is the same cursor behind the range index, and the
// replication plane (internal/repl) streams catch-up data through it. A
// cursor attributes each record to the part it was read from — the snapshot
// is part 0, live segments number from 1 — so a reader tells compacted
// history from the append-ordered log without sampling a floor. Cursors see
// only committed bytes: records staged but not yet written by the committer
// are invisible, so a cursor can never replay data that a crash could still
// lose.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	segSuffix  = ".wal"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"

	defaultSegmentBytes = 4 << 20

	// maxRecordBytes bounds a record so a corrupted length prefix cannot ask
	// recovery to allocate gigabytes (mirrors wire's frame limit).
	maxRecordBytes = 1 << 28

	// maxStageBytes bounds the stage: appenders block once this much is
	// waiting on the committer, bounding memory and the ack-to-durable gap. A
	// byte record counts its length, a Record its MaxSize bound.
	maxStageBytes = 8 << 20

	// encodeBufBytes is the committer's encode buffer. A commit group is
	// written in as many buffers as it fills; only a record whose bound
	// exceeds the buffer grows it, for that group alone.
	encodeBufBytes = 64 << 10

	// frameHeaderMax bounds a frame's header: the uvarint length and the CRC.
	frameHeaderMax = binary.MaxVarintLen64 + 4
)

// Sentinel errors.
var (
	// ErrClosed is returned for operations on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt marks a structurally invalid record that cannot be a torn
	// tail write (bad checksum with all bytes present, absurd length, ...).
	ErrCorrupt = errors.New("wal: corrupt record")
)

// Options parameterizes a Log.
type Options struct {
	// SegmentBytes rolls to a new segment once the active one reaches this
	// size; 0 selects the default (4 MiB).
	SegmentBytes int64
	// NoSync skips the fsync at each commit boundary. Cheap, but a process
	// crash may lose the last commits; machine crashes may lose more.
	NoSync bool
	// GroupWindow is how long the committer lingers after the first record of
	// a group is staged, coalescing concurrent appends into one fsync. 0
	// commits as soon as the committer is free (pipelining alone already
	// groups whatever accumulated during the previous fsync).
	GroupWindow time.Duration
	// OnError is invoked once, without internal locks held, when the
	// background committer hits a persistence error and the log goes sticky-
	// failed. Synchronous callers additionally get the error returned.
	OnError func(error)
}

// Stats counts durable-path work. Aggregate with Merge.
type Stats struct {
	Groups  uint64 // commit groups written
	Fsyncs  uint64 // fsyncs issued (file and directory)
	Records uint64 // records committed

	GroupMax  uint64     // largest commit group, in records
	GroupHist [17]uint64 // records-per-group histogram, bucket i ≈ 2^i records

	AckLagSumNS int64 // total stage→durable latency across groups, ns
	AckLagMaxNS int64 // worst stage→durable latency of any group, ns
}

// Merge folds o into s (sums counters, maxes the maxima).
func (s *Stats) Merge(o Stats) {
	s.Groups += o.Groups
	s.Fsyncs += o.Fsyncs
	s.Records += o.Records
	if o.GroupMax > s.GroupMax {
		s.GroupMax = o.GroupMax
	}
	for i := range s.GroupHist {
		s.GroupHist[i] += o.GroupHist[i]
	}
	s.AckLagSumNS += o.AckLagSumNS
	if o.AckLagMaxNS > s.AckLagMaxNS {
		s.AckLagMaxNS = o.AckLagMaxNS
	}
}

// GroupP50 returns the approximate median commit-group size in records
// (the lower bound of the histogram bucket holding the median), 0 if no
// groups have committed.
func (s Stats) GroupP50() uint64 {
	if s.Groups == 0 {
		return 0
	}
	half := (s.Groups + 1) / 2
	var seen uint64
	for i, n := range s.GroupHist {
		seen += n
		if seen >= half {
			return uint64(1) << i
		}
	}
	return s.GroupMax
}

// Record is a log record the committer encodes off the appender's goroutine.
// The log reads a staged Record until its commit group is written and drops
// it then, so a Record must not change once staged.
type Record interface {
	// AppendTo appends the record's payload to b.
	AppendTo(b []byte) []byte
	// MaxSize bounds the payload's length from above.
	MaxSize() int
	// Tag is the record's range-index tag; origin -1 leaves it untagged
	// (its part is never skippable) and Neutral hides it from the index.
	Tag() (origin int, ts uint64)
}

// Neutral is the origin a record's tag carries to stay invisible to the range
// index: it neither tags its part nor makes it unskippable, so engine
// bookkeeping records do not defeat the seek.
const Neutral = -2

// staged is one record awaiting the committer: a Record, or (rec nil) the
// byte record that ends at end in the stage's payload bytes.
type staged struct {
	rec Record
	end int
}

// partRange is the per-origin [min,max] timestamp range of one log part
// (segment or snapshot). lo[o] == 0 means origin o is absent (real tags
// carry physical-clock timestamps, which are always > 0).
type partRange struct {
	lo, hi   []uint64
	untagged bool // holds at least one record without a tag: never skippable
}

func (p *partRange) add(o int, ts uint64) {
	if o == Neutral {
		return
	}
	if o < 0 {
		p.untagged = true
		return
	}
	for len(p.lo) <= o {
		p.lo = append(p.lo, 0)
		p.hi = append(p.hi, 0)
	}
	if p.lo[o] == 0 || ts < p.lo[o] {
		p.lo[o] = ts
	}
	if ts > p.hi[o] {
		p.hi[o] = ts
	}
}

// merge widens p to cover o.
func (p *partRange) merge(o *partRange) {
	p.untagged = p.untagged || o.untagged
	for i, lo := range o.lo {
		if lo != 0 {
			p.add(i, lo)
			p.add(i, o.hi[i])
		}
	}
}

// overlaps reports whether the part may hold a record inside the per-origin
// window (lo[o], hi[o]]. Missing request entries are unbounded (lo 0, hi
// +inf), an unknown range (nil) or an untagged record forces a read.
func (p *partRange) overlaps(lo, hi []uint64) bool {
	if p == nil || p.untagged {
		return true
	}
	for o, plo := range p.lo {
		if plo == 0 {
			continue
		}
		var rlo uint64
		rhi := ^uint64(0)
		if o < len(lo) {
			rlo = lo[o]
		}
		if o < len(hi) {
			rhi = hi[o]
		}
		if p.hi[o] > rlo && plo <= rhi {
			return true
		}
	}
	return false
}

// Log is a segmented append-only log. It is safe for concurrent use.
type Log struct {
	dir      string
	segBytes int64
	noSync   bool
	window   time.Duration
	onErr    func(error)

	mu     sync.Mutex
	stageC sync.Cond // signals the committer: work staged / closing
	doneC  sync.Cond // signals appenders: group committed / state change

	f        *os.File // active segment, nil after Close
	seq      uint64   // active segment sequence number
	firstSeg uint64   // oldest live segment sequence number
	snap     uint64   // current snapshot sequence number, 0 if none
	size     int64    // committed bytes in the active segment
	since    int64    // bytes committed (or replayed) since the last checkpoint
	closed   bool
	done     bool  // committer goroutine has exited
	err      error // sticky persistence error; the log is dead once set

	stage      []staged  // records awaiting the committer, in stage order
	stageBytes []byte    // the staged byte records' payloads, back to back
	stageSize  int       // what the stage counts against maxStageBytes
	stageFirst time.Time // when the oldest staged record arrived
	spare      []staged  // recycled group slices, cleared
	spareBytes []byte
	stagedID   uint64 // id the currently-staging group will commit under
	committed  uint64 // id of the last durably committed group
	committing bool   // committer is writing a group outside the lock

	idx     map[uint64]*partRange // ranges of sealed segments
	cur     *partRange            // range of the active segment
	snapRng *partRange            // range of the snapshot, nil if unknown
	buf     []byte                // checkpoint frame scratch
	stats   Stats
}

// Open opens (creating if necessary) the log in dir and replays its state:
// first the newest snapshot's records, then every younger segment's records
// in append order, invoking replay for each payload. The payload slice is
// only valid during the call. replay returns the record's index tag, with
// Record.Tag's origin convention; it rebuilds the ranges of the snapshot and
// of the tail segment, the parts that carry no trailer. A torn record at the
// tail of the final segment is truncated away; corruption anywhere else fails
// the open.
func Open(dir string, opts Options, replay func(rec []byte) (origin int, ts uint64, err error)) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, snapSeq, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	l := &Log{
		dir:      dir,
		segBytes: opts.SegmentBytes,
		noSync:   opts.NoSync,
		window:   opts.GroupWindow,
		onErr:    opts.OnError,
		snap:     snapSeq,
		stagedID: 1,
		idx:      make(map[uint64]*partRange),
	}
	l.stageC.L = &l.mu
	l.doneC.L = &l.mu

	// sift wraps replay: index trailers are consumed into trailer (never shown
	// to the engine), every other record is replayed and its tag added to rng.
	sift := func(rng *partRange, trailer **partRange) func(rec []byte) error {
		return func(rec []byte) error {
			if tr, ok := parseIdxTrailer(rec); ok {
				if trailer != nil {
					*trailer = tr
				}
				return nil
			}
			o, ts, err := replay(rec)
			if err != nil {
				return err
			}
			rng.add(o, ts)
			return nil
		}
	}

	if snapSeq > 0 {
		data, err := os.ReadFile(filepath.Join(dir, fileName(snapSeq, snapSuffix)))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		// Snapshots are renamed into place after an fsync, so a readable
		// snapshot must parse end to end; any framing error is corruption.
		rng := &partRange{}
		if _, err := walk(data, sift(rng, nil), false); err != nil {
			return nil, fmt.Errorf("wal: snapshot %d: %w", snapSeq, err)
		}
		l.snapRng = rng
	}

	var tailLen, tailValid int // final segment: file size and valid prefix
	for i, seq := range segs {
		data, err := os.ReadFile(filepath.Join(dir, fileName(seq, segSuffix)))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		rng := &partRange{}
		var trailer *partRange
		consumed, werr := walk(data, sift(rng, &trailer), i == len(segs)-1)
		if werr != nil {
			return nil, fmt.Errorf("wal: segment %d: %w", seq, werr)
		}
		if trailer != nil {
			// A sealed segment's persisted index is authoritative: it holds
			// the tags the records had when they were committed.
			rng = trailer
		}
		l.idx[seq] = rng
		l.since += int64(consumed)
		tailLen, tailValid = len(data), consumed
	}

	// Reopen the last segment for appending (its torn tail, if any, was
	// already measured by walk and is truncated here), or start a fresh one.
	if n := len(segs); n > 0 {
		l.seq = segs[n-1]
		l.firstSeg = segs[0]
		l.cur = l.idx[l.seq]
		delete(l.idx, l.seq)
		path := filepath.Join(dir, fileName(l.seq, segSuffix))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if tailValid < tailLen {
			if err := f.Truncate(int64(tailValid)); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		if _, err := f.Seek(int64(tailValid), io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.size = f, int64(tailValid)
	} else {
		if err := l.startSegmentLocked(snapSeq + 1); err != nil {
			return nil, err
		}
		l.firstSeg = snapSeq + 1
	}
	if l.cur == nil {
		l.cur = &partRange{}
	}
	go l.committer()
	return l, nil
}

// scanDir classifies the directory's files: ascending segment sequences
// newer than the newest snapshot, and that snapshot's sequence (0 if none).
// Stale temp files and files made obsolete by the snapshot (leftovers of a
// crash mid-checkpoint) are removed.
func scanDir(dir string) (segs []uint64, snapSeq uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var snaps []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, segSuffix):
			if seq, ok := parseName(name, segSuffix); ok {
				segs = append(segs, seq)
			}
		case strings.HasSuffix(name, snapSuffix):
			if seq, ok := parseName(name, snapSuffix); ok {
				snaps = append(snaps, seq)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		for _, s := range snaps[:len(snaps)-1] {
			_ = os.Remove(filepath.Join(dir, fileName(s, snapSuffix)))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	live := segs[:0]
	for _, s := range segs {
		if s <= snapSeq {
			_ = os.Remove(filepath.Join(dir, fileName(s, segSuffix)))
			continue
		}
		live = append(live, s)
	}
	return live, snapSeq, nil
}
