// Package storage implements the multiversion key-value stores backing each
// partition server, behind the pluggable Engine interface. Every key maps to
// a version chain ordered by the last-writer-wins total order (update
// timestamp descending, ties broken by lowest source replica). Reads select
// the freshest version that satisfies a caller-supplied visibility
// predicate: the optimistic (POCC) mode passes an always-true predicate and
// reads the chain head — one probe of a table of heads, no chain touched;
// the pessimistic (Cure*) mode passes a stability predicate and traverses
// the chain — the extra work the paper attributes to pessimistic designs.
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
	"slices"
	"sync"

	"repro/internal/item"
	"repro/internal/vclock"
)

// A key's hash picks its shard with the low shardBits bits and its home slot
// in the shard's table with the bits above them.
const (
	shardBits = 6
	numShards = 1 << shardBits
)

// Mem is the sharded multiversion key-value store. It is safe for concurrent
// use.
type Mem struct {
	seed   maphash.Seed
	shards [numShards]shard
}

// A shard is an open-addressing table of chain heads, probed linearly. Slot i
// holds a key's freshest version in heads[i] (nil: empty) and its LWW-older
// versions, if it ever had any, in tails[i]. A key is the Key of its head, so
// the table keeps no key of its own that could pin the buffer of a version
// that is gone (a replicated version's key aliases its decoded batch). The
// length is a power of two, at most three quarters full; a key that only
// ever has one version — every key the loader seeds — costs its shard two
// table words and nothing else.
type shard struct {
	mu    sync.RWMutex
	n     int // occupied slots
	heads []*item.Version
	tails []*tail
}

// A tail holds one key's versions behind its head, newest first. The first
// two live inline, so a key's first update costs one allocation; a third
// moves them to a slice of their own (only the inline pair has cap 2), and
// insert clears the pair it leaves, which must not keep alive a version that
// garbage collection has since pruned from the moved slice.
type tail struct {
	vs     []*item.Version
	inline [2]*item.Version
}

// insert puts v at index i of t's versions, making t if it is nil.
func (t *tail) insert(i int, v *item.Version) *tail {
	if t == nil {
		t = new(tail)
		t.vs = t.inline[:0]
	}
	spills := len(t.vs) == cap(t.vs) && cap(t.vs) == len(t.inline)
	t.vs = slices.Insert(t.vs, i, v)
	if spills {
		clear(t.inline[:])
	}
	return t
}

// older returns the versions behind t's head, newest first.
func (t *tail) older() []*item.Version {
	if t == nil {
		return nil
	}
	return t.vs
}

// New returns an empty in-memory engine. Its shards allocate their tables on
// their first insert.
func New() *Mem {
	return &Mem{seed: maphash.MakeSeed()}
}

func (s *Mem) hash(key string) uint64 { return maphash.String(s.seed, key) }

// locate returns key's shard and its hash.
func (s *Mem) locate(key string) (*shard, uint64) {
	h := s.hash(key)
	return &s.shards[h%numShards], h
}

// home returns the slot a key of hash h probes first.
func (sh *shard) home(h uint64) int {
	return int(h>>shardBits) & (len(sh.heads) - 1)
}

// slot returns the slot holding key, or the empty slot ending its probe run
// (false), or -1 for a table not yet allocated.
func (sh *shard) slot(key string, h uint64) (int, bool) {
	if len(sh.heads) == 0 {
		return -1, false
	}
	mask := len(sh.heads) - 1
	for i := sh.home(h); ; i = (i + 1) & mask {
		switch v := sh.heads[i]; {
		case v == nil:
			return i, false
		case v.Key == key:
			return i, true
		}
	}
}

// grow doubles the table (or makes the first one) and re-places every key.
func (sh *shard) grow(s *Mem) {
	heads, tails := sh.heads, sh.tails
	size := max(2*len(heads), 8)
	sh.heads, sh.tails = make([]*item.Version, size), make([]*tail, size)
	for i, v := range heads {
		if v == nil {
			continue
		}
		j, _ := sh.slot(v.Key, s.hash(v.Key))
		sh.heads[j], sh.tails[j] = v, tails[i]
	}
}

// remove empties slot i. Rather than leave a tombstone it shifts back every
// later key of the probe run that may move: one whose home is not in the
// cyclic range (i, j] of the hole i and its own slot j.
func (sh *shard) remove(s *Mem, i int) {
	mask := len(sh.heads) - 1
	for j := (i + 1) & mask; sh.heads[j] != nil; j = (j + 1) & mask {
		if home := sh.home(s.hash(sh.heads[j].Key)); (j-home)&mask >= (j-i)&mask {
			sh.heads[i], sh.tails[i] = sh.heads[j], sh.tails[j]
			i = j
		}
	}
	sh.heads[i], sh.tails[i] = nil, nil
	sh.n--
}

// Insert adds a version to its key's chain, keeping the chain in LWW order.
// Inserting the same version twice is a no-op, making replication delivery
// idempotent. The engine keeps v and everything it references (key, value,
// dependency vector) until garbage collection drops the version, and nothing
// of it afterwards.
func (s *Mem) Insert(v *item.Version) {
	sh, h := s.locate(v.Key)
	sh.mu.Lock()
	sh.insertLocked(s, v, h)
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
		sh := s.hash(vs[i].Key) % numShards
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
			sh.insertLocked(s, vs[j], s.hash(vs[j].Key))
		}
		sh.mu.Unlock()
	}
}

func (sh *shard) insertLocked(s *Mem, v *item.Version, h uint64) {
	i, found := sh.slot(v.Key, h)
	if !found {
		if 4*(sh.n+1) > 3*len(sh.heads) {
			sh.grow(s)
			i, _ = sh.slot(v.Key, h)
		}
		sh.heads[i] = v
		sh.n++
		return
	}
	// Common case: the new version is the freshest (updates replicate in
	// timestamp order), so it becomes the head and the old head leads the
	// tail.
	head, t := sh.heads[i], sh.tails[i]
	switch {
	case v.Same(head):
		return
	case v.Newer(head):
		sh.heads[i], sh.tails[i] = v, t.insert(0, head)
		return
	}
	older, j := t.older(), 0
	for ; j < len(older); j++ {
		if v.Same(older[j]) {
			return
		}
		if v.Newer(older[j]) {
			break
		}
	}
	sh.tails[i] = t.insert(j, v)
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
	sh, h := s.locate(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if i, ok := sh.slot(key, h); ok {
		return sh.heads[i]
	}
	return nil
}

// ReadVisible returns the freshest version of key satisfying visible, along
// with chain statistics. A nil predicate means every version is visible, so
// the head is returned without traversing the chain (the POCC fast path).
func (s *Mem) ReadVisible(key string, visible func(*item.Version) bool) ReadResult {
	sh, h := s.locate(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := sh.slot(key, h)
	if !ok {
		return ReadResult{}
	}
	head, older := sh.heads[i], sh.tails[i].older()
	res := ReadResult{ChainLen: 1 + len(older)}
	if visible == nil {
		res.V = head
		return res
	}
	for j := range res.ChainLen {
		v := head
		if j > 0 {
			v = older[j-1]
		}
		if !visible(v) {
			res.Invisible++
		} else if res.V == nil {
			res.V, res.Fresher = v, j
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
// Only keys with versions behind their head are examined; a pruned tail is
// truncated in place with the dropped versions nilled out, so they are
// released without reallocating it, and the tail stays for the key's next
// update.
func (s *Mem) CollectGarbage(gv vclock.VC) int {
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j, t := range sh.tails {
			if t == nil || len(t.vs) == 0 {
				continue
			}
			keep := 0 // the head is the anchor
			if !sh.heads[j].Deps.LessEq(gv) {
				keep = len(t.vs) // no anchor
				for k, v := range t.vs {
					if v.Deps.LessEq(gv) {
						keep = k + 1
						break
					}
				}
			}
			removed += len(t.vs) - keep
			t.vs = slices.Delete(t.vs, keep, len(t.vs))
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
	drop := func(v *item.Version) bool { return v.SrcReplica == src && v.UpdateTime > after }
	removed := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		// A removal shifts later keys back into slot j, so j is not advanced
		// past it; a key the shift brings round from the table's start is
		// visited again, and finds nothing left to drop.
		for j := 0; j < len(sh.heads); {
			head, t := sh.heads[j], sh.tails[j]
			if t != nil {
				n := len(t.vs)
				t.vs = slices.DeleteFunc(t.vs, drop)
				removed += n - len(t.vs)
			}
			switch {
			case head == nil || !drop(head):
				j++
			case len(t.older()) == 0:
				removed++
				sh.remove(s, j)
			default:
				removed++
				sh.heads[j] = t.vs[0]
				t.vs = slices.Delete(t.vs, 0, 1)
				j++
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
		st.Keys += sh.n
		st.Versions += sh.n
		for _, t := range sh.tails {
			if t != nil {
				st.Versions += len(t.vs)
			}
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
		for _, v := range sh.heads {
			if v != nil {
				fn(v.Key, v)
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
		for j, v := range sh.heads {
			if v == nil {
				continue
			}
			fn(v)
			for _, o := range sh.tails[j].older() {
				fn(o)
			}
		}
		sh.mu.RUnlock()
	}
}

// Close releases the engine. For the in-memory engine it is a no-op.
func (s *Mem) Close() error { return nil }
