// Package storage implements the multiversion key-value stores backing each
// partition server, behind the pluggable Engine interface. Every key maps to
// a version chain ordered by the last-writer-wins total order (update
// timestamp descending, ties broken by lowest source replica). Reads select
// the freshest version that satisfies a caller-supplied visibility
// predicate: the optimistic (POCC) mode passes an always-true predicate and
// reads the chain head in O(1); the pessimistic (Cure*) mode passes a
// stability predicate and traverses the chain — the extra work the paper
// attributes to pessimistic designs.
//
// Two engines are provided: Mem, the sharded in-memory store (the default),
// and Durable, which fronts Mem with a write-ahead log for crash recovery
// (see durable.go). Both implement the paper's vector-based garbage
// collection: for each key they retain every version down to and including
// the first (i.e. newest) version whose dependency vector is covered by the
// GC vector.
package storage

import (
	"hash/maphash"
	"sync"

	"repro/internal/item"
	"repro/internal/vclock"
)

const numShards = 64

// Mem is the sharded multiversion key-value store. It is safe for concurrent
// use.
type Mem struct {
	seed   maphash.Seed
	shards [numShards]shard
}

// cellsPerBlock is how many chain cells a shard allocates at a time.
const cellsPerBlock = 64

type shard struct {
	mu     sync.RWMutex
	chains map[string][]*item.Version // newest first, LWW order
	// cells is the unused rest of the shard's current block of chain cells.
	// A key's first chain is one cell (len == cap == 1), so a key that only
	// ever has one version — every key the loader seeds — allocates no chain
	// of its own. A second version's append moves the chain to a slice of
	// its own, and insertLocked clears the cell it leaves: a block stays
	// reachable while any of its cells is a chain, and must not keep alive a
	// version that garbage collection has since pruned from the moved chain.
	cells []*item.Version
}

// New returns an empty in-memory engine.
func New() *Mem {
	s := &Mem{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].chains = make(map[string][]*item.Version)
	}
	return s
}

func (s *Mem) shardIndex(key string) int {
	return int(maphash.String(s.seed, key) % numShards)
}

func (s *Mem) shardOf(key string) *shard {
	return &s.shards[s.shardIndex(key)]
}

// Insert adds a version to its key's chain, keeping the chain in LWW order.
// Inserting the same version twice is a no-op, making replication delivery
// idempotent. The engine keeps v and everything it references (key, value,
// dependency vector) until garbage collection drops the version, and nothing
// of it afterwards — see insertLocked for the chain map's key.
func (s *Mem) Insert(v *item.Version) {
	sh := s.shardOf(v.Key)
	sh.mu.Lock()
	sh.insertLocked(v)
	sh.mu.Unlock()
}

// InsertBatch adds many versions, grouping them by shard so each shard lock
// is taken at most once per call — the apply path of batched replication.
// The batch slice is not mutated (it may be shared with other receivers) or
// retained; grouping uses an index chain, on the stack for anything up to a
// full replication batch (repl's default cap).
func (s *Mem) InsertBatch(vs []*item.Version) {
	if len(vs) == 0 {
		return
	}
	if len(vs) == 1 {
		s.Insert(vs[0])
		return
	}
	// head[sh] is the first batch index in shard sh, next[i] the following
	// index in the same shard; building in reverse keeps original order.
	var head [numShards]int32
	for i := range head {
		head[i] = -1
	}
	var nextBuf [128]int32
	next := nextBuf[:]
	if len(vs) > len(nextBuf) {
		next = make([]int32, len(vs))
	}
	for i := len(vs) - 1; i >= 0; i-- {
		sh := s.shardIndex(vs[i].Key)
		next[i] = head[sh]
		head[sh] = int32(i)
	}
	for i := range head {
		j := head[i]
		if j < 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		for ; j >= 0; j = next[j] {
			sh.insertLocked(vs[j])
		}
		sh.mu.Unlock()
	}
}

func (sh *shard) insertLocked(v *item.Version) {
	chain := sh.chains[v.Key]
	if len(chain) == 0 {
		if len(sh.cells) == 0 {
			sh.cells = make([]*item.Version, cellsPerBlock)
		}
		chain, sh.cells = sh.cells[:1:1], sh.cells[1:]
		chain[0] = v
		sh.chains[v.Key] = chain
		return
	}
	// Common case: the new version is the freshest (updates replicate in
	// timestamp order), so it lands at the head.
	i := 0
	for i < len(chain) {
		if v.Same(chain[i]) {
			return
		}
		if v.Newer(chain[i]) {
			break
		}
		i++
	}
	grown := append(chain, nil)
	if cap(chain) == 1 {
		chain[0] = nil // the chain leaves its cell (only a cell has cap 1)
	}
	chain = grown
	copy(chain[i+1:], chain[i:])
	chain[i] = v
	// Assigning under the head's Key, not v's: Go stores the assigned key
	// string in place of an equal one, so the entry's key always belongs to a
	// version that is in the chain and never keeps alive the buffer of one
	// that is gone (a replicated version's key aliases its decoded batch).
	sh.chains[chain[0].Key] = chain
}

// ReadResult describes the outcome of a read.
type ReadResult struct {
	// V is the selected version, or nil if the key has no visible version.
	V *item.Version
	// Fresher is the number of versions in the chain that are LWW-newer than
	// the returned one ("# fresher versions" of Fig. 2b). Zero when V is the
	// chain head.
	Fresher int
	// Invisible is the number of versions in the chain that fail the
	// visibility predicate (the "unmerged" versions of Fig. 2b).
	Invisible int
	// ChainLen is the total number of versions in the chain.
	ChainLen int
}

// Head returns the chain head (the freshest version) for key, or nil.
func (s *Mem) Head(key string) *item.Version {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[key]
	if len(chain) == 0 {
		return nil
	}
	return chain[0]
}

// ReadVisible returns the freshest version of key satisfying visible, along
// with chain statistics. A nil predicate means every version is visible, so
// the head is returned without traversing the chain (the POCC fast path).
func (s *Mem) ReadVisible(key string, visible func(*item.Version) bool) ReadResult {
	sh := s.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chain := sh.chains[key]
	res := ReadResult{ChainLen: len(chain)}
	if len(chain) == 0 {
		return res
	}
	if visible == nil {
		res.V = chain[0]
		return res
	}
	for i, v := range chain {
		if visible(v) {
			if res.V == nil {
				res.V = v
				res.Fresher = i
			}
		} else {
			res.Invisible++
		}
	}
	return res
}

// ReadWithin returns the freshest version of key whose dependency vector is
// entry-wise covered by tv (Algorithm 2, lines 43-44: the visible-version set
// of a transactional snapshot).
func (s *Mem) ReadWithin(key string, tv vclock.VC) ReadResult {
	return s.ReadVisible(key, func(v *item.Version) bool { return v.Deps.LessEq(tv) })
}

// CollectGarbage prunes every chain, retaining versions down to and including
// the first one whose dependency vector is covered by gv. If no version
// qualifies, the whole chain is kept (there is no safe version to anchor on).
// It returns the number of versions removed.
//
// Chains that need no pruning (single-version chains, or chains whose anchor
// is already the tail) are left untouched; pruned chains are truncated in
// place with the dropped tail nilled out so the versions are released
// without reallocating the chain slice.
func (s *Mem) CollectGarbage(gv vclock.VC) int {
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, chain := range sh.chains {
			if len(chain) < 2 {
				continue
			}
			anchor := -1
			for j, v := range chain {
				if v.Deps.LessEq(gv) {
					anchor = j
					break
				}
			}
			if anchor < 0 || anchor+1 >= len(chain) {
				continue
			}
			removed += len(chain) - anchor - 1
			for j := anchor + 1; j < len(chain); j++ {
				chain[j] = nil // release the pruned versions
			}
			sh.chains[key] = chain[:anchor+1]
		}
		sh.mu.Unlock()
	}
	return removed
}

// DropAbove removes every version originated by src with an update timestamp
// strictly greater than after, returning the number removed. Forced removal
// of a crashed data center uses it to discard the dead DC's un-agreed suffix:
// versions a survivor applied optimistically beyond the timestamp the
// survivors proved complete (their agreed final) would otherwise linger as
// unreplicatable divergence.
func (s *Mem) DropAbove(src int, after vclock.Timestamp) int {
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, chain := range sh.chains {
			kept := 0
			for _, v := range chain {
				if v.SrcReplica == src && v.UpdateTime > after {
					continue
				}
				chain[kept] = v
				kept++
			}
			if kept == len(chain) {
				continue
			}
			removed += len(chain) - kept
			for j := kept; j < len(chain); j++ {
				chain[j] = nil // release the dropped versions
			}
			if kept == 0 {
				delete(sh.chains, key)
			} else {
				sh.chains[chain[0].Key] = chain[:kept] // see insertLocked
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// StoreStats summarizes the store's contents.
type StoreStats struct {
	// Keys is the number of keys with at least one version.
	Keys int
	// Versions is the total number of stored versions across all chains.
	Versions int
}

// Stats counts keys and versions in a single pass, taking every shard lock
// exactly once. Metrics samplers should prefer it over separate Keys and
// Versions calls.
func (s *Mem) Stats() StoreStats {
	var st StoreStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Keys += len(sh.chains)
		for _, chain := range sh.chains {
			st.Versions += len(chain)
		}
		sh.mu.RUnlock()
	}
	return st
}

// Keys returns the number of keys with at least one version.
func (s *Mem) Keys() int { return s.Stats().Keys }

// Versions returns the total number of stored versions across all chains.
func (s *Mem) Versions() int { return s.Stats().Versions }

// ForEachHead calls fn with every key's chain head. Used by convergence
// checks in tests; fn must not call back into the store.
func (s *Mem) ForEachHead(fn func(key string, head *item.Version)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for key, chain := range sh.chains {
			if len(chain) > 0 {
				fn(key, chain[0])
			}
		}
		sh.mu.RUnlock()
	}
}

// ForEachVersion calls fn with every stored version, chain by chain in LWW
// order. The durable engine's snapshot checkpoints use it to serialize the
// full store; fn must not call back into the store.
func (s *Mem) ForEachVersion(fn func(v *item.Version)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, chain := range sh.chains {
			for _, v := range chain {
				fn(v)
			}
		}
		sh.mu.RUnlock()
	}
}

// Close releases the engine. For the in-memory engine it is a no-op.
func (s *Mem) Close() error { return nil }
