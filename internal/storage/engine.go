package storage

import (
	"repro/internal/item"
	"repro/internal/vclock"
)

// Engine is the pluggable storage backend of a partition server. Two
// implementations ship with the repository:
//
//   - Mem (the default): the sharded multiversion in-memory store, each
//     shard a probe table of chain heads — fastest, but a killed server
//     loses its partition.
//   - Durable: Mem fronting a segmented write-ahead log (internal/wal) with
//     snapshot checkpoints, so a crashed server recovers its version chains
//     (and version-vector floor) from disk via OpenDurable. It also replays
//     its durable history (ForEachDurable, CompactedFloor): the feed of the
//     replication catch-up protocol, whose consumer declares the interface
//     (repl.Source). Mem has no such walk — a crashed in-memory server has
//     nothing to re-ship.
//
// All methods must be safe for concurrent use. Read methods (Head,
// ReadVisible, ReadWithin, Stats, ForEachHead) sit on the protocol hot path
// and must not block behind writers longer than a shard lock.
type Engine interface {
	// Insert adds one version to its key's chain (idempotently).
	Insert(v *item.Version)
	// InsertBatch adds many versions in one pass — the apply side of batched
	// replication and, for durable engines, the group-commit boundary.
	InsertBatch(vs []*item.Version)
	// Head returns the freshest version of key, or nil.
	Head(key string) *item.Version
	// ReadVisible returns the freshest version satisfying visible (nil means
	// every version is visible: the POCC O(1) fast path).
	ReadVisible(key string, visible func(*item.Version) bool) ReadResult
	// ReadWithin returns the freshest version whose dependency vector is
	// covered by tv (transactional snapshot reads).
	ReadWithin(key string, tv vclock.VC) ReadResult
	// CollectGarbage prunes version chains against the GC vector and returns
	// the number of versions removed. Durable engines piggyback snapshot
	// checkpoints and segment truncation on this call.
	CollectGarbage(gv vclock.VC) int
	// DropAbove removes every version originated by src with an update time
	// strictly greater than after — the forced-removal path discarding a
	// crashed DC's un-agreed suffix. Returns the number removed.
	DropAbove(src int, after vclock.Timestamp) int
	// Stats counts keys and versions in a single pass (snapshot-consistent
	// per shard).
	Stats() StoreStats
	// ForEachHead calls fn with every key's chain head; fn must not call
	// back into the engine.
	ForEachHead(fn func(key string, head *item.Version))
	// Close releases the engine's resources (flushing and closing any
	// stable-storage files). The engine must not be used afterwards.
	Close() error
}

var (
	_ Engine = (*Mem)(nil)
	_ Engine = (*Durable)(nil)
)
