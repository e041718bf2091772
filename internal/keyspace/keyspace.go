// Package keyspace implements the deterministic key→partition mapping of the
// system model (§II-C): the data set is split into N partitions and each key
// is assigned to a single partition by a hash function. It also builds the
// per-partition key tables used by the workload generators, which (like the
// paper's loader) populate every partition with a fixed number of keys.
//
// The mapping is two-level: keys hash into a fixed universe of NumSlots
// slots, and an epoch-stamped SlotMap assigns each slot to a partition
// server. A deployment starts on the epoch-0 table (DefaultMap: slot s
// belongs to partition s mod N, which PartitionOf computes without a table);
// resharding moves whole slots between servers by publishing a
// higher-stamped map.
package keyspace

import (
	"errors"
	"fmt"
	"strconv"
)

// NumSlots is the fixed size of the slot universe. Every key hashes to
// exactly one slot; slots — not keys — are the unit of ownership and of
// movement during resharding. 256 slots keeps the map one cache line of
// owners wide while still splitting any realistic partition count evenly.
const NumSlots = 256

// hash32 is an inlined FNV-1a (identical output to hash/fnv's New32a) so the
// per-operation routing path stays allocation-free; Build hashes a candidate
// key in its byte buffer, before the key is a string.
func hash32[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// SlotOf returns the slot a key hashes into.
func SlotOf(key string) int {
	return int(hash32(key) % NumSlots)
}

// PartitionOf returns the partition responsible for key in the epoch-0
// layout over n partitions: DefaultMap(n).OwnerOf(key), without the table.
func PartitionOf(key string, n int) int { return SlotOf(key) % n }

// SlotMap is the epoch-stamped assignment of slots to partition servers
// within a DC. It forms a join-semilattice under Merge, mirroring
// msg.Membership: each slot carries the epoch at which its ownership last
// changed, and merging keeps, per slot, the assignment with the higher
// stamp. Two maps merged in any order or grouping converge to the same map,
// so the table can be gossiped without coordination.
//
// A SlotMap is immutable once published: mutations (MoveSlots) return a new
// map at a higher epoch.
type SlotMap struct {
	// Epoch is the generation of the map; it only grows. Routing layers
	// reject operations stamped with a different epoch (ErrWrongSlotEpoch
	// in core) so clients refresh instead of writing through stale routes.
	Epoch uint64
	// Parts is the number of partition servers the map assigns slots over
	// (owners are in [0, Parts)). Grows monotonically under Merge.
	Parts int
	// Owner[s] is the partition server responsible for slot s.
	Owner [NumSlots]uint8
	// Stamp[s] is the epoch at which slot s last changed owner. Slot s of
	// the default layout has stamp 0.
	Stamp [NumSlots]uint64
}

// DefaultMap returns the epoch-0 slot layout over n partitions, the table
// every deployment starts on: owner[s] = s mod n, so per-partition slot
// counts differ by at most one.
func DefaultMap(n int) *SlotMap {
	if n <= 0 || n > NumSlots {
		panic(fmt.Sprintf("keyspace: DefaultMap(%d) out of range [1,%d]", n, NumSlots))
	}
	m := &SlotMap{Parts: n}
	for s := 0; s < NumSlots; s++ {
		m.Owner[s] = uint8(s % n)
	}
	return m
}

// Clone returns a deep copy (SlotMap has no reference fields, so a value
// copy suffices; Clone keeps call sites honest about ownership).
func (m *SlotMap) Clone() *SlotMap {
	c := *m
	return &c
}

// OwnerOf returns the partition server responsible for key. Allocation-free.
func (m *SlotMap) OwnerOf(key string) int { return int(m.Owner[SlotOf(key)]) }

// SlotsOwnedBy returns the slots currently assigned to partition p.
func (m *SlotMap) SlotsOwnedBy(p int) []int {
	var out []int
	for s := 0; s < NumSlots; s++ {
		if int(m.Owner[s]) == p {
			out = append(out, s)
		}
	}
	return out
}

// MoveSlots returns a new map at epoch m.Epoch+1 in which the given slots
// are owned by partition `to`, stamped with the new epoch. Parts grows to
// cover `to` if needed. The receiver is not modified.
func (m *SlotMap) MoveSlots(slots []int, to int) (*SlotMap, error) {
	if to < 0 || to >= NumSlots {
		return nil, fmt.Errorf("keyspace: MoveSlots target %d out of range", to)
	}
	n := m.Clone()
	n.Epoch = m.Epoch + 1
	if to+1 > n.Parts {
		n.Parts = to + 1
	}
	for _, s := range slots {
		if s < 0 || s >= NumSlots {
			return nil, fmt.Errorf("keyspace: MoveSlots slot %d out of range", s)
		}
		n.Owner[s] = uint8(to)
		n.Stamp[s] = n.Epoch
	}
	return n, nil
}

// Merge folds o into m entry-wise and reports whether m changed. Per slot
// the higher stamp wins; on equal stamps the higher owner wins, making the
// tie-break deterministic so Merge is commutative, associative and
// idempotent (a true lattice join — the same shape as msg.Membership.Merge).
// Epoch and Parts take the max.
func (m *SlotMap) Merge(o *SlotMap) bool {
	if o == nil {
		return false
	}
	changed := false
	if o.Epoch > m.Epoch {
		m.Epoch = o.Epoch
		changed = true
	}
	if o.Parts > m.Parts {
		m.Parts = o.Parts
		changed = true
	}
	for s := 0; s < NumSlots; s++ {
		if o.Stamp[s] > m.Stamp[s] || (o.Stamp[s] == m.Stamp[s] && o.Owner[s] > m.Owner[s]) {
			m.Stamp[s] = o.Stamp[s]
			m.Owner[s] = o.Owner[s]
			changed = true
		}
	}
	return changed
}

// Validate checks structural invariants after a wire decode: every owner
// must be a real partition, no slot may be stamped past the map epoch, and
// the partition count must fit the owner byte.
func (m *SlotMap) Validate() error {
	if m.Parts <= 0 || m.Parts > NumSlots {
		return errors.New("keyspace: slot map partition count out of range")
	}
	for s := 0; s < NumSlots; s++ {
		if int(m.Owner[s]) >= m.Parts {
			return fmt.Errorf("keyspace: slot %d owned by %d, only %d partitions", s, m.Owner[s], m.Parts)
		}
		if m.Stamp[s] > m.Epoch {
			return fmt.Errorf("keyspace: slot %d stamped %d past epoch %d", s, m.Stamp[s], m.Epoch)
		}
	}
	return nil
}

// Table holds, for each partition, the list of keys that hash to it.
type Table struct {
	partitions int
	keys       [][]string
}

// Build generates perPartition keys for each of n partitions. Keys are drawn
// from a deterministic sequence ("k<i>") and bucketed by PartitionOf, so the
// same (n, perPartition) arguments always yield the same table. It panics
// unless 1 <= n <= NumSlots and perPartition >= 1: beyond the slot universe a
// partition owns no slot, and a partition of no keys is never full, so the
// table could never be complete.
func Build(n, perPartition int) *Table {
	if n < 1 || n > NumSlots {
		panic(fmt.Sprintf("keyspace: Build needs 1 <= n <= %d (NumSlots), got n = %d", NumSlots, n))
	}
	if perPartition < 1 {
		panic(fmt.Sprintf("keyspace: Build needs perPartition >= 1, got %d", perPartition))
	}
	t := &Table{partitions: n, keys: make([][]string, n)}
	for i := range t.keys {
		t.keys[i] = make([]string, 0, perPartition)
	}
	// Each candidate is written into one buffer and hashed there; only a key
	// a partition accepts becomes a string.
	buf := []byte("k")
	for i, filled := 0, 0; filled < n; i++ {
		buf = strconv.AppendInt(buf[:1], int64(i), 10)
		p := int(hash32(buf)%NumSlots) % n // PartitionOf, on the buffer
		if len(t.keys[p]) < perPartition {
			t.keys[p] = append(t.keys[p], string(buf))
			if len(t.keys[p]) == perPartition {
				filled++
			}
		}
	}
	return t
}

// Partitions returns the number of partitions.
func (t *Table) Partitions() int { return t.partitions }

// KeysPerPartition returns the number of keys in each partition.
func (t *Table) KeysPerPartition() int { return len(t.keys[0]) }

// Key returns the rank-th key of a partition. Workload generators draw rank
// from a zipf distribution, so rank 0 is the hottest key of the partition.
func (t *Table) Key(partition, rank int) string { return t.keys[partition][rank] }

// AllKeys returns a copy of every key of a partition.
func (t *Table) AllKeys(partition int) []string {
	out := make([]string, len(t.keys[partition]))
	copy(out, t.keys[partition])
	return out
}
