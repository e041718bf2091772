package wal

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"time"
)

// Append commits the given records and waits until they are durable: the
// records join the stage, coalesce with every other append staged meanwhile
// into a single commit group — one fsync (unless NoSync) — and Append returns
// once that group has committed. The record slices are copied before staging
// and not retained. Byte records are untagged: the segment holding one is
// never skipped by ReadRange.
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
	return l.drainLocked()
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
			buf = appendFrame(buf, payloads[start:e.end])
			rng.add(-1, 0)
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
// invoked once and emits every snapshot record, which is framed and tagged as
// the committer frames a staged Record (records are streamed to disk in
// chunks, so the snapshot never materializes in memory, and emit is done with
// a record when it returns). The caller must guarantee the emitted records capture every
// record appended so far — the storage engine holds its writers out during
// the call. The commit pipeline is drained first, so async appends are on
// disk before the segments holding them are pruned. On return the old
// segments are gone and a fresh, empty segment is active.
func (l *Log) Checkpoint(fill func(emit func(Record))) error {
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
	fill(func(r Record) {
		if werr != nil {
			return
		}
		snapRng.add(r.Tag())
		buf = appendRecordFrame(buf, r)
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
