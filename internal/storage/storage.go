// Package storage implements the multiversion key-value stores backing each
// partition server, behind the pluggable Engine interface. Every key maps to
// a version chain ordered by the last-writer-wins total order (update
// timestamp descending, ties broken by lowest source replica). Reads select
// the freshest version that satisfies a caller-supplied visibility
// predicate: the optimistic (POCC) mode passes an always-true predicate and
// reads the chain head — one probe of a shard's slot array, no chain
// touched; the pessimistic (Cure*) mode passes a stability predicate and
// traverses the chain — the extra work the paper attributes to pessimistic
// designs.
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

// A shard is an open-addressing array of slots, probed linearly. A slot holds
// a key's freshest version (head, nil: empty) and its LWW-older versions, if
// it ever had any (tail). A key is the Key of its head, so the table keeps no
// key of its own that could pin the buffer of a version that is gone (a
// replicated version's key aliases its decoded batch). A key that only ever
// has one version — every key the loader seeds — costs its shard one
// two-word slot and nothing else. The length is a power of two, at most three
// quarters full: 8 at first, quadrupled on growth, so a 64-key shard grows
// 8 → 32 → 128 — three sizes and 30 keys moved where doubling takes five and
// 90, for the same expected bytes over a table's life. The price is a sparser
// table: 3/16 full just after growing, not 3/8, and at some key counts twice
// the final size (156 keys: 512 slots, not 256).
type shard struct {
	mu    sync.RWMutex
	n     int // occupied slots
	slots []slot
}

type slot struct {
	head *item.Version
	tail *tail
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
	return int(h>>shardBits) & (len(sh.slots) - 1)
}

// find returns the slot holding key, or the empty slot ending its probe run
// (false), or -1 for a table not yet allocated.
func (sh *shard) find(key string, h uint64) (int, bool) {
	if len(sh.slots) == 0 {
		return -1, false
	}
	mask := len(sh.slots) - 1
	for i := sh.home(h); ; i = (i + 1) & mask {
		switch v := sh.slots[i].head; {
		case v == nil:
			return i, false
		case v.Key == key:
			return i, true
		}
	}
}

// grow quadruples the table (or makes the first one) and re-places every key.
func (sh *shard) grow(s *Mem) {
	old := sh.slots
	sh.slots = make([]slot, max(4*len(old), 8))
	for _, e := range old {
		if e.head != nil {
			j, _ := sh.find(e.head.Key, s.hash(e.head.Key))
			sh.slots[j] = e
		}
	}
}

// remove empties slot i. Rather than leave a tombstone it shifts back every
// later key of the probe run that may move: one whose home is not in the
// cyclic range (i, j] of the hole i and its own slot j.
func (sh *shard) remove(s *Mem, i int) {
	mask := len(sh.slots) - 1
	for j := (i + 1) & mask; sh.slots[j].head != nil; j = (j + 1) & mask {
		if home := sh.home(s.hash(sh.slots[j].head.Key)); (j-home)&mask >= (j-i)&mask {
			sh.slots[i] = sh.slots[j]
			i = j
		}
	}
	sh.slots[i] = slot{}
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
	i, found := sh.find(v.Key, h)
	if !found {
		if 4*(sh.n+1) > 3*len(sh.slots) {
			sh.grow(s)
			i, _ = sh.find(v.Key, h)
		}
		sh.slots[i].head = v
		sh.n++
		return
	}
	// Common case: the new version is the freshest (updates replicate in
	// timestamp order), so it becomes the head and the old head leads the
	// tail.
	e := &sh.slots[i]
	switch {
	case v.Same(e.head):
		return
	case v.Newer(e.head):
		e.head, e.tail = v, e.tail.insert(0, e.head)
		return
	}
	older, j := e.tail.older(), 0
	for ; j < len(older); j++ {
		if v.Same(older[j]) {
			return
		}
		if v.Newer(older[j]) {
			break
		}
	}
	e.tail = e.tail.insert(j, v)
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
	if i, ok := sh.find(key, h); ok {
		return sh.slots[i].head
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
	i, ok := sh.find(key, h)
	if !ok {
		return ReadResult{}
	}
	head, older := sh.slots[i].head, sh.slots[i].tail.older()
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
		for _, e := range sh.slots {
			t := e.tail
			if t == nil || len(t.vs) == 0 {
				continue
			}
			keep := 0 // the head is the anchor
			if !e.head.Deps.LessEq(gv) {
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
		for j := 0; j < len(sh.slots); {
			head, t := sh.slots[j].head, sh.slots[j].tail
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
				sh.slots[j].head = t.vs[0]
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
		for _, e := range sh.slots {
			st.Versions += len(e.tail.older())
		}
		sh.mu.RUnlock()
	}
	return st
}

// Keys returns the number of keys with at least one version.
func (s *Mem) Keys() int { return s.Stats().Keys }

// Versions returns the total number of stored versions across all chains.
func (s *Mem) Versions() int { return s.Stats().Versions }

// ForEachVersion calls fn with every stored version, chain by chain in LWW
// order; fn must not call back into the store.
func (s *Mem) ForEachVersion(fn func(v *item.Version)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.slots {
			if e.head == nil {
				continue
			}
			fn(e.head)
			for _, o := range e.tail.older() {
				fn(o)
			}
		}
		sh.mu.RUnlock()
	}
}

// Close releases the engine. For the in-memory engine it is a no-op.
func (s *Mem) Close() error { return nil }
