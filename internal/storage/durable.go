package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/item"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
)

// defaultCheckpointBytes is how much WAL growth triggers a snapshot
// checkpoint at the next garbage-collection pass.
const defaultCheckpointBytes = 1 << 20

// AckMode selects where on the durability ladder a local write is
// acknowledged. This is the one place the ladder is defined; every knob
// above (occ.Config.AckMode, pocckv -ack) maps onto it:
//
//	sync    — AckSync + fsync: the PUT returns only after its commit group
//	          is fsynced. A machine crash loses nothing acknowledged.
//	grouped — AckGrouped + fsync: the PUT returns after the in-memory insert
//	          and WAL staging; the background committer fsyncs the group it
//	          rides (bounded by the staging cap + one in-flight group). A
//	          process exit still loses nothing (Close drains the pipeline);
//	          a machine crash can lose the last instants of *local* acks —
//	          never anything the replication plane advanced a VV over or a
//	          catch-up stream claimed complete, because those wait on the
//	          WAL barrier (see Durable.ForEachDurable and wal.Log.Barrier).
//	nosync  — either ack mode + NoSync: no fsync anywhere; a machine crash
//	          may lose everything since the OS last flushed. For tests and
//	          benchmarks.
type AckMode int

const (
	// AckSync acknowledges a local write only after its commit group is
	// durable (the default).
	AckSync AckMode = iota
	// AckGrouped acknowledges a local write once it is staged on the commit
	// pipeline; durability trails by at most one in-flight commit group.
	AckGrouped
)

// DurableOptions tunes the durable engine. The zero value selects sane
// defaults (4 MiB segments, 1 MiB checkpoint trigger, fsync on every
// commit, synchronous acks).
type DurableOptions struct {
	// SegmentBytes is the WAL segment roll size (0 = 4 MiB).
	SegmentBytes int64
	// CheckpointBytes is the WAL growth that arms a snapshot checkpoint,
	// taken on the next CollectGarbage call (the GC exchange is the
	// checkpoint cadence). 0 selects the default (1 MiB); negative disables
	// checkpointing (the log grows until Close).
	CheckpointBytes int64
	// NoSync skips the per-commit fsync, trading crash durability for
	// latency (useful for tests and benchmarks on slow filesystems).
	NoSync bool
	// AckMode picks the rung of the durability ladder local writes ack at;
	// see AckMode. Replicated batches always commit synchronously — the
	// receiver's version-vector advancement (and the eviction attestations
	// built on it) must be backed by fsynced history.
	AckMode AckMode
	// GroupWindow is how long the WAL committer lingers to coalesce
	// concurrent appends into one fsync (0 = commit as soon as the committer
	// is free; pipelining alone already groups whatever accumulates during
	// the previous fsync).
	GroupWindow time.Duration
}

// DurableStats counts the durable path's work: the WAL's commit-pipeline
// counters plus the engine's catch-up seek counters. Aggregate with Merge.
type DurableStats struct {
	wal.Stats
	// Every ForEachDurable walk is either a seek hit — the segment range
	// index let it skip at least one part (segment or snapshot) — or a full
	// scan that read every part; PartsSkipped totals the parts never read.
	FullScans    uint64
	SeekHits     uint64
	PartsSkipped uint64
}

// Merge folds o into s.
func (s *DurableStats) Merge(o DurableStats) {
	s.Stats.Merge(o.Stats)
	s.FullScans += o.FullScans
	s.SeekHits += o.SeekHits
	s.PartsSkipped += o.PartsSkipped
}

// Durable is the crash-tolerant storage engine: a Mem engine fronting a
// segmented write-ahead log. Every Insert stages the version on the log before
// it becomes readable — the log's committer writes its wire encoding — and
// InsertBatch commits a whole replication batch with a single fsync (group
// commit). Snapshot checkpoints ride the garbage-collection exchange: after a
// GC pass prunes the chains, the engine serializes the surviving versions
// into a snapshot and truncates the log's segments.
//
// OpenDurable rebuilds the engine from disk — snapshot first, then the log
// tail, tolerating a torn final record — and reports the replayed
// version-vector floor via RecoveredVV, which the partition server uses to
// restore its VV after a crash.
//
// Write methods do not return errors (the Engine interface keeps the server
// hot path error-free); a failed append instead marks the engine sticky-
// failed: the in-memory state stays correct and serving, while Err and Close
// surface the first persistence error.
type Durable struct {
	mem        *Mem
	log        *wal.Log
	ackGrouped bool

	// Catch-up seek counters (see DurableStats).
	fullScans    atomic.Uint64
	seekHits     atomic.Uint64
	partsSkipped atomic.Uint64

	// mu serializes writers against checkpoints: Insert/InsertBatch hold it
	// shared (the WAL itself orders concurrent commits), Checkpoint and
	// Close hold it exclusively so the snapshot captures exactly the
	// appended state.
	mu sync.RWMutex

	checkpointBytes int64
	floor           vclock.VC // replayed VV floor, immutable after open
	werr            atomic.Pointer[error]

	// gcMu guards the compaction-floor bookkeeping: gcHigh accumulates the
	// entry-wise maximum of every GC vector CollectGarbage has applied, and
	// compacted snapshots gcHigh at each checkpoint — the proof boundary for
	// catch-up serving. A version with UpdateTime at or below compacted[its
	// origin] may have been pruned from the log by a checkpoint, so a catch-up
	// range starting (nonzero) below that floor may miss superseded versions
	// (internal/repl counts it as a GC overrun).
	gcMu      sync.Mutex
	gcHigh    vclock.VC
	compacted vclock.VC
	// attested is the entry-wise maximum of every durably committed VV
	// attestation (AttestVV); checkpoints re-emit it so log truncation
	// cannot lose the floor. Guarded by gcMu.
	attested vclock.VC
}

// OpenDurable opens (creating or recovering) a durable engine rooted at dir.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = defaultCheckpointBytes
	}
	mem := New()
	var floor, attested vclock.VC
	var d *Durable // late-bound: the WAL error hook fires only after open
	log, err := wal.Open(dir, wal.Options{
		SegmentBytes: opts.SegmentBytes,
		NoSync:       opts.NoSync,
		GroupWindow:  opts.GroupWindow,
		OnError: func(err error) {
			if d != nil {
				d.fail(err)
			}
		},
	},
		// Replay tags each record as its Record did when it was logged.
		func(rec []byte) (int, uint64, error) {
			if isAttest(rec) {
				av, ok := parseAttest(rec)
				if !ok {
					return 0, 0, fmt.Errorf("corrupt vv attestation")
				}
				attested = attested.GrowTo(len(av))
				attested.MaxInPlace(av)
				return wal.Neutral, 0, nil
			}
			v, _, err := wire.DecodeVersion(rec)
			if err != nil {
				return 0, 0, err
			}
			mem.Insert(v)
			for len(floor) <= v.SrcReplica {
				floor = append(floor, 0)
			}
			if v.UpdateTime > floor[v.SrcReplica] {
				floor[v.SrcReplica] = v.UpdateTime
			}
			return v.SrcReplica, uint64(v.UpdateTime), nil
		})
	if err != nil {
		return nil, fmt.Errorf("storage: open durable: %w", err)
	}
	// The recovered floor covers both halves of the durable state: the
	// per-origin maxima of the replayed versions and the last persisted
	// attestation (entries advanced by heartbeats or catch-up claims that
	// no stored version backs — see attest.go).
	floor = floor.GrowTo(len(attested))
	floor.MaxInPlace(attested)
	d = &Durable{
		mem:             mem,
		log:             log,
		ackGrouped:      opts.AckMode == AckGrouped,
		checkpointBytes: opts.CheckpointBytes,
		floor:           floor,
		attested:        attested,
	}
	return d, nil
}

// RecoveredVV returns the version-vector floor replayed at open: entry i is
// the highest update timestamp of any recovered version originating at DC i,
// raised to the last durable attestation (AttestVV); empty when the engine
// started empty.
func (d *Durable) RecoveredVV() vclock.VC { return d.floor.Clone() }

// AttestedVV returns the durably attested version-vector floor: the
// entry-wise maximum of every committed AttestVV, replayed at open. Unlike
// RecoveredVV it is never raised by a replayed version, so an entry holds
// only what the node claimed complete before the crash.
func (d *Durable) AttestedVV() vclock.VC {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	return d.attested.Clone()
}

// Err returns the first persistence error, or nil. The in-memory state keeps
// serving after a failure, but durability is gone until the engine is
// reopened.
func (d *Durable) Err() error {
	if p := d.werr.Load(); p != nil {
		return *p
	}
	return nil
}

func (d *Durable) fail(err error) {
	if err != nil {
		// Copied here: taking the parameter's address would move it to the
		// heap on every call, the nil ones included.
		first := err
		d.werr.CompareAndSwap(nil, &first)
	}
}

// Insert logs the version, then installs it in memory. The log's committer
// encodes the record itself, so Insert only stages the version: under
// AckSync it returns once the version's commit group is durable; under
// AckGrouped it returns at once and the version rides the next group's fsync
// — the local-PUT ack decoupling of the durability ladder (a later commit
// failure marks the engine sticky-failed rather than dropping the version
// silently).
//
// A version whose append fails is NOT installed: this node is the origin, so
// an exposed-but-never-logged local version would be observable (local reads,
// the replication flush) right up to the crash and then vanish from every
// replica's causal past — the one loss no catch-up can repair. Callers detect
// the dropped insert via Err and must not ack, advance the VV, or replicate.
func (d *Durable) Insert(v *item.Version) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var err error
	if d.ackGrouped {
		err = d.log.AppendRecordAsync((*loggedVersion)(v))
	} else {
		err = d.log.AppendRecords(1, func(int) wal.Record { return (*loggedVersion)(v) })
	}
	if err != nil {
		d.fail(err)
		return
	}
	d.mem.Insert(v)
}

// loggedVersion is a version as the log sees it: a wal.Record whose payload
// is the version's wire encoding. Versions are immutable once born, so the
// log's committer may encode one after the insert that staged it returned.
type loggedVersion item.Version

func (v *loggedVersion) AppendTo(b []byte) []byte {
	return wire.AppendVersion(b, (*item.Version)(v))
}

func (v *loggedVersion) MaxSize() int { return wire.MaxVersionSize((*item.Version)(v)) }

func (v *loggedVersion) Tag() (int, uint64) { return v.SrcReplica, uint64(v.UpdateTime) }

// InsertBatch logs the whole batch as one commit — one fsync on the
// replication-batch boundary — then installs it in one shard pass. It stages
// the versions and waits while the committer encodes and writes them.
// Replicated batches always commit synchronously, regardless of AckMode: the
// caller advances version-vector entries (and answers eviction attestations)
// over this history, claims that must be backed by fsynced bytes.
//
// Unlike Insert, a failed append still installs the batch in memory: these
// versions are remote — their origin DC retains them durably, and a restart
// of this node rebuilds a lower VV from its log and refetches them through
// catch-up. Installing keeps reads consistent with the already-advancing VV
// during the failure window; skipping would manufacture read misses.
func (d *Durable) InsertBatch(vs []*item.Version) {
	if len(vs) == 0 {
		return
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.fail(d.log.AppendRecords(len(vs), func(i int) wal.Record { return (*loggedVersion)(vs[i]) }))
	d.mem.InsertBatch(vs)
}

// Head returns the chain head (the freshest version) for key, or nil.
func (d *Durable) Head(key string) *item.Version { return d.mem.Head(key) }

// ReadVisible returns the freshest version of key satisfying visible.
func (d *Durable) ReadVisible(key string, visible func(*item.Version) bool) ReadResult {
	return d.mem.ReadVisible(key, visible)
}

// ReadWithin returns the freshest version of key within the snapshot tv.
func (d *Durable) ReadWithin(key string, tv vclock.VC) ReadResult {
	return d.mem.ReadWithin(key, tv)
}

// CollectGarbage prunes the in-memory chains and, when the log has grown
// past the checkpoint threshold, writes a snapshot checkpoint of the pruned
// state and truncates the log — GC and log truncation advance together.
func (d *Durable) CollectGarbage(gv vclock.VC) int {
	d.gcMu.Lock()
	d.gcHigh = d.gcHigh.GrowTo(len(gv))
	d.gcHigh.MaxInPlace(gv)
	d.gcMu.Unlock()
	removed := d.mem.CollectGarbage(gv)
	if d.checkpointBytes > 0 && d.log.SinceCheckpoint() >= d.checkpointBytes {
		d.checkpoint()
	}
	return removed
}

// DropAbove removes src-originated versions above after from the in-memory
// chains. The log is left untouched (it may still hold them until the next
// checkpoint compacts the surviving state); callers re-apply the drop after
// recovery, seeded from the membership view's final timestamps.
func (d *Durable) DropAbove(src int, after vclock.Timestamp) int {
	return d.mem.DropAbove(src, after)
}

// CompactedFloor returns, per origin DC, the highest GC vector entry a
// snapshot checkpoint has compacted the log under. History at or below the
// floor survives only in pruned (snapshot) form: versions superseded at
// checkpoint time are gone, so an incremental catch-up range starting below
// the floor cannot be proven complete. Nil when no checkpoint has run.
func (d *Durable) CompactedFloor() vclock.VC {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	return d.compacted.Clone()
}

// checkpoint streams the surviving versions into a snapshot while writers
// are held out, so the snapshot equals the log contents exactly. The log
// encodes each emitted record into its own buffer, keeping peak memory
// constant regardless of store size.
func (d *Durable) checkpoint() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.log.SinceCheckpoint() < d.checkpointBytes {
		return // another GC pass raced us here
	}
	// The GC passes folded into gcHigh all ran before this snapshot is cut,
	// so the snapshot's surviving state is exactly "pruned through gcHigh":
	// record it as the compaction floor before the log truncates.
	d.gcMu.Lock()
	floor := d.gcHigh.Clone()
	attested := d.attested.Clone() // stable: d.mu excludes AttestVV here
	d.gcMu.Unlock()
	d.fail(d.log.Checkpoint(func(emit func(wal.Record)) {
		d.mem.ForEachVersion(func(v *item.Version) { emit((*loggedVersion)(v)) })
		// The attestation floor must survive the truncation of the
		// segments that carried it: re-emit the aggregate.
		if len(attested) > 0 {
			emit(attestRecord(attested))
		}
	}))
	d.gcMu.Lock()
	d.compacted = d.compacted.GrowTo(len(floor))
	d.compacted.MaxInPlace(floor)
	d.gcMu.Unlock()
}

// ForEachDurable streams the durable history that may fall inside the
// per-origin window (lo[o], hi[o]] in committed order — the snapshot's
// compacted history first, then the log tail — decoding each record through
// the shared wire codec. Entries past either vector's length are unbounded,
// so a nil window is the whole history. It seeks through the WAL's segment
// range index, skipping the snapshot and any segment that cannot intersect
// the window, so catching up a small recent gap reads O(gap) bytes instead
// of the full compacted history. The window is advisory: versions outside it
// may still be streamed (per-part ranges are summaries), so callers keep
// their per-version filter. The read goes through a WAL cursor that pins its
// files open, so concurrent inserts and checkpoints proceed untouched;
// versions committed after the call starts are not included. This is the
// replication catch-up feed (repl.Source).
//
// A sticky persistence error fails the stream up front: once an append has
// failed, the log may be missing versions the in-memory state acknowledged,
// and a catch-up stream served from it would falsely claim completeness —
// the caller must fall back instead (repl answers Unsupported). The stream
// also waits on the WAL barrier first: with grouped acks, versions the local
// server acknowledged may still be in flight on the commit pipeline, and a
// completeness claim ("everything through t") must only cover fsynced bytes.
func (d *Durable) ForEachDurable(lo, hi vclock.VC, fn func(v *item.Version) error) error {
	if err := d.barrier(); err != nil {
		return err
	}
	lo64 := make([]uint64, len(lo))
	for i, t := range lo {
		lo64[i] = uint64(t)
	}
	hi64 := make([]uint64, len(hi))
	for i, t := range hi {
		hi64[i] = uint64(t)
	}
	skipped, err := d.log.ReadRange(lo64, hi64, func(_ uint64, rec []byte) error {
		if isAttest(rec) {
			return nil // local floor bookkeeping, not history to re-ship
		}
		v, _, err := wire.DecodeVersion(rec)
		if err != nil {
			return err
		}
		return fn(v)
	})
	if skipped > 0 {
		d.seekHits.Add(1)
		d.partsSkipped.Add(uint64(skipped))
	} else {
		d.fullScans.Add(1)
	}
	return err
}

// barrier fails fast on a sticky persistence error and otherwise waits for
// the commit pipeline to drain — the sync boundary every durable-history
// claim is anchored to.
func (d *Durable) barrier() error {
	if err := d.Err(); err != nil {
		return err
	}
	if err := d.log.Barrier(); err != nil {
		d.fail(err)
		return err
	}
	return nil
}

// DurableStats returns the engine's durable-path counters: the WAL commit
// pipeline's and the catch-up seek counters.
func (d *Durable) DurableStats() DurableStats {
	return DurableStats{
		Stats:        d.log.Stats(),
		FullScans:    d.fullScans.Load(),
		SeekHits:     d.seekHits.Load(),
		PartsSkipped: d.partsSkipped.Load(),
	}
}

// Stats counts keys and versions in a single pass.
func (d *Durable) Stats() StoreStats { return d.mem.Stats() }

// ForEachVersion calls fn with every version the engine serves: the
// in-memory chains, not the log, which keeps a forced removal's purged
// suffix until the next checkpoint.
func (d *Durable) ForEachVersion(fn func(v *item.Version)) { d.mem.ForEachVersion(fn) }

// Close flushes and closes the log. It returns the first persistence error
// encountered over the engine's lifetime, if any.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	cerr := d.log.Close()
	if err := d.Err(); err != nil {
		return err
	}
	return cerr
}
