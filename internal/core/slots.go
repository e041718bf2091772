// The slot table: which keys this server owns, how a new table is fenced in,
// and the hand-over hooks a reshard uses on a new owner.

package core

import (
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// SlotTable returns the server's current slot table (never nil). The
// returned map is immutable — callers must not modify it.
func (s *Server) SlotTable() *keyspace.SlotMap { return s.slots.Load() }

// SlotEpoch returns the epoch of the current slot table.
func (s *Server) SlotEpoch() uint64 { return s.slots.Load().Epoch }

// liveParts is the number of partition servers currently live in this DC:
// the slot table's count when it exceeds the configured layout (a split
// grew the DC after this server started), clamped to the reserved capacity.
func (s *Server) liveParts() int {
	n := s.cfg.NumPartitions
	if sm := s.slots.Load(); sm.Parts > n {
		n = sm.Parts
	}
	if n > s.maxParts {
		n = s.maxParts
	}
	return n
}

// ownsKey reports whether this server currently owns the key's slot: a
// server serves a key iff its table says so, from epoch 0 on.
func (s *Server) ownsKey(key string) bool { return s.slots.Load().OwnerOf(key) == s.n }

// InstallSlotMap folds a slot table into the server's own by the lattice
// merge and, when the merge changed anything, gossips the merged table to
// the same-DC partitions and the cross-DC siblings. Because the merge is
// idempotent, the gossip converges: a receiver that learns nothing new
// re-sends nothing. It returns whether the local table changed.
func (s *Server) InstallSlotMap(m *keyspace.SlotMap) bool {
	if m == nil || s.stopped.Load() {
		return false
	}
	s.slotMu.Lock()
	merged := s.slots.Load().Clone()
	changed := merged.Merge(m)
	if changed {
		// Store under the replication manager's outbound lock — the same
		// lock PrepareLocal checks ownership under — so the install is a
		// hard fence: when it returns, every write the old table admitted
		// has committed and raised the local VV entry, and the reshard's
		// drain marks (captured after the install) provably cover the old
		// layout's entire output.
		s.repl.Locked(func() { s.slots.Store(merged) })
	}
	s.slotMu.Unlock()
	if !changed {
		return false
	}
	// Same-DC fan-out first (routing within the DC is what the table
	// protects), then the sibling in every member DC.
	for p := 0; p < s.liveParts(); p++ {
		if p != s.n {
			s.ep.Send(netemu.NodeID{DC: s.m, Partition: p}, msg.SlotMapUpdate{Map: merged})
		}
	}
	view := s.repl.View()
	for dc := 0; dc < s.maxDCs; dc++ {
		if dc != s.m && view.IsMember(dc) {
			s.ep.Send(netemu.NodeID{DC: dc, Partition: s.n}, msg.SlotMapUpdate{Map: merged})
		}
	}
	return true
}

// ReleaseGate opens the stabilization gate of a server started with
// Config.Gated: its history bootstrap (the reshard copy) is complete, so its
// version vector may now feed the DC's GSS. Idempotent.
func (s *Server) ReleaseGate() { s.joinedOnce.Do(func() { close(s.joined) }) }

// AdvanceClock lifts the server's physical clock to at least t. The reshard
// copy uses it so a new slot owner never assigns an update timestamp below a
// version it inherited from the donor — LWW would shadow the new write and
// the catch-up protocol's completion claims would not cover it.
func (s *Server) AdvanceClock(t vclock.Timestamp) { s.clk.AdvanceTo(t) }

// SeedVV raises the server's version-vector entries to at least vv and wakes
// any requests the advance unblocks — the reshard bootstrap claim. It is only
// sound when the caller has installed into this server every version with a
// timestamp at or below vv whose key this server's slot table routes here:
// for a freshly split owner that is the donor's VV after the drain, because
// the copied history is complete for exactly the moved slots and nothing else
// resolves to the new owner.
func (s *Server) SeedVV(vv vclock.VC) {
	woke := false
	for dc, t := range vv {
		if dc >= 0 && dc < s.maxDCs && s.vv.raiseTo(dc, t) {
			woke = true
		}
	}
	if woke {
		s.vvWaiters.wake()
	}
}
