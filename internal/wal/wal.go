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
// When Options.TagOf is set, every byte record is tagged with an (origin,
// timestamp) pair as the committer frames it (a Record carries its own tag)
// and each segment tracks the [min,max] timestamp
// range it holds per origin. A rolled segment persists its range as an index
// trailer record (a reserved payload the log filters out of replay and
// cursor reads); Open rebuilds the in-memory index from the trailers and — for
// the tail segment, which has none — from the replayed records themselves.
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
// them away. The replication plane (internal/repl) streams catch-up data
// through it, and SnapshotSeq exposes the durable floor below which history
// exists only in compacted (snapshot) form. Cursors see only committed
// bytes: records staged but not yet written by the committer are invisible,
// so a cursor can never replay data that a crash could still lose.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// idxMagic prefixes the payload of an index trailer record — the per-origin
// [min,max] timestamp ranges a rolled segment persists about itself. The
// first byte is outside the wire codec's marker space and outside printable
// ASCII, so engine payloads can never collide with it.
var idxMagic = []byte{0xF7, 'w', 'i', 'd', 'x', '1'}

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
	// TagOf extracts the (origin, timestamp) index tag from a record payload;
	// ok=false marks the record untagged, which makes its segment never
	// skippable by ReadRange. nil disables the range index.
	TagOf func(rec []byte) (origin int, ts uint64, ok bool)
	// Neutral, when set, marks records that are invisible to the range
	// index: they neither tag their segment nor force it unskippable, so
	// engine bookkeeping records (which TagOf cannot parse) do not defeat
	// the seek optimization. Checked before TagOf.
	Neutral func(rec []byte) bool
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
	// Tag is the record's range-index tag; origin -1 leaves it untagged.
	Tag() (origin int, ts uint64)
}

// staged is one record awaiting the committer: a Record, or (rec nil) the
// byte record that ends at end in the stage's payload bytes.
type staged struct {
	rec Record
	end int
}

// A record's index tag is an (origin, timestamp) pair; origin -1 means
// untagged, tagNeutral invisible to the index (see Options.Neutral).
const tagNeutral = -2

// partRange is the per-origin [min,max] timestamp range of one log part
// (segment or snapshot). lo[o] == 0 means origin o is absent (real tags
// carry physical-clock timestamps, which are always > 0).
type partRange struct {
	lo, hi   []uint64
	untagged bool // holds at least one record without a tag: never skippable
}

func (p *partRange) add(o int, ts uint64) {
	if o == tagNeutral {
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
	tagOf    func(rec []byte) (int, uint64, bool)
	neutral  func(rec []byte) bool
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
// only valid during the call. A torn record at the tail of the final segment
// is truncated away; corruption anywhere else fails the open.
func Open(dir string, opts Options, replay func(rec []byte) error) (*Log, error) {
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
		tagOf:    opts.TagOf,
		neutral:  opts.Neutral,
		onErr:    opts.OnError,
		snap:     snapSeq,
		stagedID: 1,
		idx:      make(map[uint64]*partRange),
	}
	l.stageC.L = &l.mu
	l.doneC.L = &l.mu

	// sift wraps replay: index trailers are consumed into trailer (never shown
	// to the engine), every other record is tagged into rng and replayed.
	sift := func(rng *partRange, trailer **partRange) func(rec []byte) error {
		return func(rec []byte) error {
			if tr, ok := parseIdxTrailer(rec); ok {
				if trailer != nil {
					*trailer = tr
				}
				return nil
			}
			rng.add(l.tag(rec))
			return replay(rec)
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
			// A sealed segment's persisted index is authoritative — it keeps
			// ranges available even when this open has no TagOf.
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

// tag computes a byte record's index tag.
func (l *Log) tag(rec []byte) (int, uint64) {
	if l.neutral != nil && l.neutral(rec) {
		return tagNeutral, 0
	}
	if l.tagOf != nil {
		if o, ts, ok := l.tagOf(rec); ok && o >= 0 {
			return o, ts
		}
	}
	return -1, 0
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

// ---------------------------------------------------------------------------
// The commit pipeline
// ---------------------------------------------------------------------------

// Append commits the given records and waits until they are durable: the
// records join the stage, coalesce with every other append staged meanwhile
// into a single commit group — one fsync (unless NoSync) — and Append returns
// once that group has committed. The record slices are copied before staging
// and not retained.
func (l *Log) Append(recs ...[]byte) error { return l.enqueue(recs, 0, nil, true) }

// AppendAsync stages the given records for the committer and returns without
// waiting for durability: the ack-to-durable gap is bounded by the staging
// cap plus one in-flight commit group. A later persistence failure fails the
// log (Err, Options.OnError) rather than dropping the records silently, and
// Close/Checkpoint/Barrier drain the pipeline. The record slices are copied
// before return and not retained.
func (l *Log) AppendAsync(recs ...[]byte) error { return l.enqueue(recs, 0, nil, false) }

// AppendRecords is Append for the n Records rec(0), ..., rec(n-1), staged in
// that order: the committer encodes them.
func (l *Log) AppendRecords(n int, rec func(i int) Record) error {
	return l.enqueue(nil, n, rec, true)
}

// AppendRecordAsync is AppendAsync for one Record, which the log holds until
// its commit group is written.
func (l *Log) AppendRecordAsync(r Record) error {
	return l.enqueue(nil, 1, func(int) Record { return r }, false)
}

// enqueue stages the byte records recs, then the n Records rec(i), blocking
// first while the stage is over its cap, and with wait returns once their
// commit group is durable.
func (l *Log) enqueue(recs [][]byte, n int, rec func(int) Record, wait bool) error {
	if len(recs) == 0 && n == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.closed {
			return ErrClosed
		}
		if l.err != nil {
			return l.err
		}
		if l.f == nil {
			return ErrClosed
		}
		if l.stageSize < maxStageBytes {
			break
		}
		l.doneC.Wait()
	}
	if len(l.stage) == 0 {
		l.stageFirst = time.Now()
	}
	for _, r := range recs {
		l.stageBytes = append(l.stageBytes, r...)
		l.stage = append(l.stage, staged{end: len(l.stageBytes)})
		l.stageSize += len(r)
	}
	for i := 0; i < n; i++ {
		r := rec(i)
		l.stage = append(l.stage, staged{rec: r, end: len(l.stageBytes)})
		l.stageSize += r.MaxSize()
	}
	l.stageC.Signal()
	for id := l.stagedID; wait && l.committed < id; {
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		l.doneC.Wait()
	}
	return nil
}

// Barrier waits until every record staged before the call is durable (or the
// log has failed). It is the sync boundary async appenders order against:
// catch-up completeness claims and replication-plane VV advancement call it
// before promising history to a remote.
func (l *Log) Barrier() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.err != nil {
			return l.err
		}
		if l.closed || l.f == nil {
			return ErrClosed
		}
		if len(l.stage) == 0 && !l.committing {
			return nil
		}
		l.doneC.Wait()
	}
}

// Stats returns a snapshot of the log's durable-path counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// committer is the single background goroutine that drains the stage: each
// cycle takes everything staged as one commit group, frames and writes it
// through the encode buffer and (unless NoSync) fsyncs once — outside the
// lock, so the next group accumulates meanwhile — then publishes the new
// durable boundary.
func (l *Log) committer() {
	var enc []byte      // the encode buffer, made for the first group
	rng := &partRange{} // the group's index range, merged into l.cur
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for !l.closed && l.err == nil && len(l.stage) == 0 {
			l.stageC.Wait()
		}
		if l.closed || l.err != nil {
			// After a sticky error the staged tail is undeliverable; park
			// until Close so late wakeups keep finding a live Cond.
			for !l.closed {
				l.stageC.Wait()
			}
			l.done = true
			l.doneC.Broadcast()
			return
		}
		if l.window > 0 {
			// Linger to let concurrent appenders join this group's fsync.
			if d := l.window - time.Since(l.stageFirst); d > 0 {
				l.mu.Unlock()
				time.Sleep(d)
				l.mu.Lock()
				if l.closed || l.err != nil || len(l.stage) == 0 {
					continue
				}
			}
		}
		group, payloads, start := l.stage, l.stageBytes, l.stageFirst
		l.stage, l.stageBytes, l.stageSize = l.spare, l.spareBytes, 0
		id := l.stagedID
		l.stagedID++
		l.committing = true
		l.doneC.Broadcast() // stage drained: release backpressured appenders
		if l.size >= l.segBytes {
			if err := l.rollLocked(); err != nil {
				l.committing = false
				l.recycleLocked(group, payloads)
				l.failLocked(err)
				continue
			}
		}
		f := l.f
		l.mu.Unlock()

		if enc == nil {
			enc = make([]byte, 0, encodeBufBytes)
		}
		*rng = partRange{lo: rng.lo[:0], hi: rng.hi[:0]}
		written, werr := l.writeGroup(f, enc, group, payloads, rng)
		if werr == nil && !l.noSync {
			werr = f.Sync()
		}

		l.mu.Lock()
		l.committing = false
		n := uint64(len(group))
		l.recycleLocked(group, payloads)
		if werr != nil {
			l.failLocked(fmt.Errorf("wal: commit: %w", werr))
			continue
		}
		l.size += written
		l.since += written
		l.cur.merge(rng)
		l.stats.Groups++
		l.stats.Records += n
		if !l.noSync {
			l.stats.Fsyncs++
		}
		if n > l.stats.GroupMax {
			l.stats.GroupMax = n
		}
		b := bits.Len64(n) - 1
		if b >= len(l.stats.GroupHist) {
			b = len(l.stats.GroupHist) - 1
		}
		l.stats.GroupHist[b]++
		lag := time.Since(start).Nanoseconds()
		l.stats.AckLagSumNS += lag
		if lag > l.stats.AckLagMaxNS {
			l.stats.AckLagMaxNS = lag
		}
		l.committed = id
		l.doneC.Broadcast()
	}
}

// writeGroup frames a commit group into enc in stage order, writing enc out
// to f whenever the next record might not fit, and widens rng by each
// record's tag. It returns the bytes written.
func (l *Log) writeGroup(f *os.File, enc []byte, group []staged, payloads []byte, rng *partRange) (int64, error) {
	var written int64
	buf, start := enc, 0
	for _, e := range group {
		size := e.end - start
		if e.rec != nil {
			size = e.rec.MaxSize()
		}
		if len(buf) > 0 && len(buf)+frameHeaderMax+size > cap(buf) {
			if _, err := f.Write(buf); err != nil {
				return 0, err
			}
			written += int64(len(buf))
			buf = buf[:0]
		}
		if e.rec != nil {
			buf = appendRecordFrame(buf, e.rec)
			rng.add(e.rec.Tag())
		} else {
			p := payloads[start:e.end]
			buf = appendFrame(buf, p)
			rng.add(l.tag(p))
		}
		start = e.end
	}
	_, err := f.Write(buf)
	return written + int64(len(buf)), err
}

// recycleLocked keeps a group's slices for a later stage, clearing its
// Records first so the log holds none past its commit.
func (l *Log) recycleLocked(group []staged, payloads []byte) {
	clear(group)
	l.spare, l.spareBytes = group[:0], payloads[:0]
}

// failLocked records the sticky error, wakes everyone, and reports it to
// Options.OnError (outside the lock).
func (l *Log) failLocked(err error) {
	if l.err != nil {
		return
	}
	l.err = err
	l.stageC.Broadcast()
	l.doneC.Broadcast()
	if cb := l.onErr; cb != nil {
		l.mu.Unlock()
		cb(err)
		l.mu.Lock()
	}
}

// drainLocked waits for the commit pipeline to go idle (stage empty, no
// group in flight). Returns the sticky error or ErrClosed if the log dies
// while waiting.
func (l *Log) drainLocked() error {
	for {
		if l.err != nil {
			return l.err
		}
		if l.closed || l.f == nil {
			return ErrClosed
		}
		if len(l.stage) == 0 && !l.committing {
			return nil
		}
		l.doneC.Wait()
	}
}

// Checkpoint atomically replaces the log's history with a snapshot: fill is
// invoked once and emits every snapshot record (records are framed and
// streamed to disk in chunks, so the snapshot never materializes in memory;
// an emitted slice may be reused by the caller immediately after emit
// returns). The caller must guarantee the emitted records capture every
// record appended so far — the storage engine holds its writers out during
// the call. The commit pipeline is drained first, so async appends are on
// disk before the segments holding them are pruned. On return the old
// segments are gone and a fresh, empty segment is active.
func (l *Log) Checkpoint(fill func(emit func(rec []byte))) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.drainLocked(); err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, "checkpoint"+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	var werr error
	snapRng := &partRange{}
	buf := l.buf[:0]
	fill(func(rec []byte) {
		if werr != nil {
			return
		}
		snapRng.add(l.tag(rec))
		buf = appendFrame(buf, rec)
		if len(buf) >= 1<<20 {
			_, werr = f.Write(buf)
			buf = buf[:0]
		}
	})
	l.buf = buf[:0]
	if werr == nil && len(buf) > 0 {
		_, werr = f.Write(buf)
	}
	if werr != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint: %w", werr)
	}
	if !l.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("wal: checkpoint: %w", err)
		}
		l.stats.Fsyncs++
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	snapPath := filepath.Join(l.dir, fileName(l.seq, snapSuffix))
	if err := os.Rename(tmp, snapPath); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	// The rename must be durably ordered before the unlinks below: without a
	// directory fsync a power loss could persist the segment removals but
	// not the new snapshot's directory entry, losing everything.
	if err := l.syncDir(); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}

	// The snapshot is durable: everything up to and including the active
	// segment is obsolete.
	oldSeq := l.seq
	l.f.Close()
	l.f = nil
	if err := l.startSegmentLocked(oldSeq + 1); err != nil {
		return err
	}
	l.firstSeg = oldSeq + 1
	for seq := oldSeq; seq >= 1; seq-- {
		path := filepath.Join(l.dir, fileName(seq, segSuffix))
		if os.Remove(path) != nil {
			break // older segments were pruned by earlier checkpoints
		}
		delete(l.idx, seq)
	}
	if l.snap != 0 {
		_ = os.Remove(filepath.Join(l.dir, fileName(l.snap, snapSuffix)))
	}
	l.snap = oldSeq
	l.snapRng = snapRng
	l.cur = &partRange{}
	l.since = 0
	return nil
}

// SinceCheckpoint returns how many log bytes have accumulated since the last
// checkpoint (or open), the storage engine's checkpoint trigger.
func (l *Log) SinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.since
}

// SnapshotSeq returns the sequence number of the current snapshot — the
// log's durable floor: history at and below this sequence lives only in the
// snapshot (its segments are gone). 0 means no checkpoint has been taken.
func (l *Log) SnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap
}

// cursorPart is one file of a ReadFrom iteration, pinned open while the
// cursor runs so a concurrent checkpoint unlinking it cannot invalidate the
// read.
type cursorPart struct {
	seq   uint64
	f     *os.File
	limit int64 // bytes to read; -1 = whole file
}

// ReadFrom replays the log's durable records in order, invoking fn with each
// record's segment sequence number and payload (the payload slice is only
// valid during the call). Iteration starts at segment seq: when seq is at or
// below the snapshot floor (SnapshotSeq), the snapshot's records are
// replayed first — attributed to the floor sequence — followed by every live
// segment ≥ seq. The boundary is captured atomically at the call: records
// durably committed before ReadFrom is invoked are included, staged or later
// appends are not, and concurrent appends or checkpoints never corrupt the
// iteration (files are pinned open before the lock is released). This is the
// replication catch-up read path: it shares nothing with the hot append path
// beyond the boundary capture.
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
			parts = append(parts, cursorPart{seq: l.snap, f: f, limit: -1})
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

// Close drains the commit pipeline, then syncs and closes the active
// segment. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for (len(l.stage) > 0 || l.committing) && l.err == nil {
		l.doneC.Wait()
	}
	l.closed = true
	l.stageC.Broadcast()
	l.doneC.Broadcast()
	for !l.done {
		l.doneC.Wait()
	}
	var err error
	if l.f != nil {
		if !l.noSync && l.err == nil {
			err = l.f.Sync()
			l.stats.Fsyncs++
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// rollLocked seals the active segment — persisting its range index as a
// trailer record — and starts the next one.
func (l *Log) rollLocked() error {
	if trailer := appendIdxTrailer(nil, l.cur); trailer != nil {
		if _, err := l.f.Write(trailer); err != nil {
			return fmt.Errorf("wal: seal segment: %w", err)
		}
	}
	if !l.noSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.stats.Fsyncs++
	}
	l.f.Close()
	l.f = nil
	l.idx[l.seq] = l.cur
	l.cur = &partRange{}
	return l.startSegmentLocked(l.seq + 1)
}

func (l *Log) startSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, fileName(seq, segSuffix)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: new segment: %w", err)
	}
	// Persist the new directory entry: the committer fsyncs record bytes into
	// the file, but without this a crash could drop the segment file itself.
	if err := l.syncDir(); err != nil {
		f.Close()
		return fmt.Errorf("wal: new segment: %w", err)
	}
	l.f, l.seq, l.size = f, seq, 0
	return nil
}

// syncDir fsyncs the log directory, making renames/creates/unlinks durable.
func (l *Log) syncDir() error {
	if l.noSync {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		l.stats.Fsyncs++
	}
	return err
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

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

// validPrefix returns the length of data's longest prefix of whole records.
func validPrefix(data []byte) int {
	pos := 0
	for {
		_, n, err := nextFrame(data[pos:])
		if err != nil {
			return pos
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
