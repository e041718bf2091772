package cluster

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// reshardDrainTimeout is the default bound on the drain phase of a reshard:
// how long the coordinator waits for every data center's donors to deliver
// their replication streams to every other member. A drain that cannot
// converge (a member DC is dead but not yet removed) aborts the reshard
// instead of wedging it. Config.ReshardTimeout overrides it.
const reshardDrainTimeout = 30 * time.Second

// reshardTimeout resolves the configured drain bound.
func (c *Cluster) reshardTimeout() time.Duration {
	if c.cfg.ReshardTimeout > 0 {
		return c.cfg.ReshardTimeout
	}
	return reshardDrainTimeout
}

// copyBatchSize is the insert granularity of the bootstrap copy (the
// group-commit boundary on durable targets).
const copyBatchSize = 512

// SplitPartition grows the keyspace by one partition server per data
// center: the next partition index is started (gated) in every member DC,
// half of the donor's slots are reassigned to it under the next slot-table
// epoch, each DC's new server is bootstrapped from its local donor's
// history, and cluster routing flips to the new layout. Returns the new
// partition's index.
//
// The migration is drain-then-flip (see doc.go, "Partitioning and
// resharding"): after the new epoch is installed the donors reject
// operations on the moved slots (core.ErrWrongSlotEpoch) while cluster
// routing still resolves to them, so client sessions retry until the flip
// lands them on the bootstrapped new owner. No acknowledged write is lost:
// every moved-slot version ever acknowledged exists at some DC's donor
// before the drain, is delivered to every DC's donor by the drain, and is
// copied with the donor's version vector claim before the flip.
func (c *Cluster) SplitPartition(donor int) (int, error) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	np := c.numParts()
	if donor < 0 || donor >= np {
		return 0, fmt.Errorf("cluster: no partition %d", donor)
	}
	if np >= c.maxParts {
		return 0, fmt.Errorf("cluster: no MaxPartitions headroom left (capacity %d used up)", c.maxParts)
	}
	cur := c.slots.Load()
	owned := cur.SlotsOwnedBy(donor)
	if len(owned) < 2 {
		return 0, fmt.Errorf("cluster: partition %d owns %d slot(s); nothing to split", donor, len(owned))
	}
	// The donor keeps the even half of its slots; the odd half moves.
	moved := make([]int, 0, len(owned)/2)
	for i, s := range owned {
		if i%2 == 1 {
			moved = append(moved, s)
		}
	}
	next, err := cur.MoveSlots(moved, np)
	if err != nil {
		return 0, err
	}
	members := c.memberDCs()
	if err := c.startPartitionServers(np, next, members); err != nil {
		return 0, err
	}
	if err := c.reshard(cur, next, moved, np, np, members); err != nil {
		return 0, err
	}
	return np, nil
}

// MoveSlots reassigns the given slots to an existing partition under the
// next slot-table epoch, bootstrapping the target with the moved history
// from each DC's local donors before routing flips. Slots the target
// already owns are allowed and move no data.
func (c *Cluster) MoveSlots(slots []int, to int) error {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	np := c.numParts()
	if to < 0 || to >= np {
		return fmt.Errorf("cluster: no partition %d", to)
	}
	cur := c.slots.Load()
	next, err := cur.MoveSlots(slots, to)
	if err != nil {
		return err
	}
	return c.reshard(cur, next, slots, to, -1, c.memberDCs())
}

// memberDCs lists the DC ids currently in the deployment (active or still
// joining — a joiner's servers exist and must be resharded with everyone
// else).
func (c *Cluster) memberDCs() []int {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	var out []int
	for dc := 0; dc < int(c.dcs.Load()); dc++ {
		if c.status[dc] == msg.DCActive || c.status[dc] == msg.DCJoining {
			out = append(out, dc)
		}
	}
	return out
}

// startPartitionServers brings partition index np up in every member DC:
// the nodes first (registerNodes), so a started server can heartbeat every
// sibling, then the servers themselves — gated behind the stabilization
// gate with the next-epoch slot table, so they own their slots-to-be from
// birth but contribute nothing to GSS until their bootstrap completes.
// Nodes are kept across a failed attempt and reused by the next one.
func (c *Cluster) startPartitionServers(np int, next *keyspace.SlotMap, members []int) error {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	ids := make([]netemu.NodeID, len(members))
	for i, dc := range members {
		ids[i] = netemu.NodeID{DC: dc, Partition: np}
	}
	if err := c.registerNodes(ids, rand.New(rand.NewPCG(c.cfg.Seed, 0x511707<<8|uint64(np)))); err != nil {
		return fmt.Errorf("cluster: split p%d: %w", np, err)
	}
	for _, dc := range members {
		cfg := c.serverConfigLocked(dc, np, false)
		cfg.NumPartitions = np + 1
		cfg.SlotMap = next
		cfg.Gated = true
		srv, err := core.NewServer(cfg)
		if err != nil {
			for _, q := range members {
				if started := c.nodes[q][np].srv.Swap(nil); started != nil {
					started.Close()
				}
			}
			return fmt.Errorf("cluster: split dc%d-p%d: %w", dc, np, err)
		}
		c.nodes[dc][np].srv.Store(srv)
	}
	return nil
}

// reshard drives the drain-then-flip migration. cur is the routing layout
// before the move, next the epoch-advanced table, moved the slots given to
// the caller's target, target the partition receiving them, and newPart the
// partition index started for a split (-1 when moving between existing
// partitions).
func (c *Cluster) reshard(cur, next *keyspace.SlotMap, moved []int, target, newPart int, members []int) error {
	// Which old owner donates which slots, and the membership test the copy
	// filter uses.
	byDonor := make(map[int][]int)
	var movedSet [keyspace.NumSlots]bool
	for _, sl := range moved {
		if sl < 0 || sl >= keyspace.NumSlots {
			return fmt.Errorf("cluster: slot %d out of range", sl)
		}
		if int(cur.Owner[sl]) == target {
			continue // already there; nothing moves
		}
		byDonor[int(cur.Owner[sl])] = append(byDonor[int(cur.Owner[sl])], sl)
		movedSet[sl] = true
	}
	if len(byDonor) == 0 {
		// Ownership does not change; publish the new epoch and finish.
		c.finishReshard(next, members, newPart)
		return nil
	}

	// 1. Install the next-epoch table on every live server, synchronously.
	// From here on the old owners reject operations on the moved slots
	// (core.ErrWrongSlotEpoch) — no new moved-slot version can be created
	// under the old layout — while cluster routing still resolves to them,
	// keeping retrying clients parked until the flip. The table is staged in
	// cluster state first, so a server crash-restarted anywhere in the
	// fence-to-flip window boots from the fenced table instead of the
	// pre-reshard one (serverConfigLocked boots servers from bootSlots);
	// finishReshard settles it on the outcome on every exit path, abort
	// included.
	c.bootSlots.Store(next)
	for _, srv := range c.live() {
		srv.InstallSlotMap(next)
	}

	// 2. Drain. Every moved-slot version that will ever exist under the old
	// epoch has been accepted by some DC's donor by now (the install above
	// finished before the marks are taken). Wait until each donor column
	// has delivered its own-origin stream up to its mark to its sibling in
	// every other member DC: afterwards each DC's donors hold the complete
	// moved-slot history.
	type mark struct {
		dc, p int
		ts    vclock.Timestamp
	}
	var marks []mark
	for _, dc := range members {
		for p := range byDonor {
			srv := c.Server(dc, p)
			if srv == nil {
				return c.abortReshard(cur, next, moved, members, newPart,
					fmt.Errorf("cluster: reshard: donor dc%d-p%d is down", dc, p))
			}
			marks = append(marks, mark{dc, p, srv.VV().Get(dc)})
		}
	}
	deadline := time.Now().Add(c.reshardTimeout())
	for _, mk := range marks {
		for _, dst := range members {
			if dst == mk.dc {
				continue
			}
			for {
				srv := c.Server(dst, mk.p)
				if srv != nil && srv.VV().Get(mk.dc) >= mk.ts {
					break
				}
				if time.Now().After(deadline) {
					return c.abortReshard(cur, next, moved, members, newPart,
						fmt.Errorf("cluster: reshard: drain of dc%d-p%d into dc%d did not converge within %v",
							mk.dc, mk.p, dst, c.reshardTimeout()))
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	// 3. Copy. Each member DC bootstraps its target from its local donors'
	// chains — what a donor serves, durable or not. A durable donor's log
	// is no substitute: until its next checkpoint it still holds a forcibly
	// removed DC's discarded suffix, whose dependencies can never arrive.
	// The donor's version vector is captured before the walk — it only
	// covers versions already in the store, and no moved-slot version is
	// created after the drain — so for a freshly split owner (which routes
	// nothing but the moved slots) seeding it into the target is a sound
	// completeness claim for everything the target serves. A pre-existing
	// target also owns slots the donors know
	// nothing about: its own replication streams may lag the donors', and
	// adopting their VV would overclaim versions it never received —
	// reads would skip causal waits and the inflated catch-up floor would
	// permanently skip re-requesting the gap. Such a target keeps its own
	// VV: the copied history is already in its store, and dependency waits
	// on it resolve as heartbeats advance the VV past the (pre-drain)
	// moved timestamps.
	for _, dc := range members {
		tgt := c.Server(dc, target)
		if tgt == nil {
			return c.abortReshard(cur, next, moved, members, newPart,
				fmt.Errorf("cluster: reshard: target dc%d-p%d is down", dc, target))
		}
		seed := vclock.New(c.maxDCs)
		var maxTS vclock.Timestamp
		for p := range byDonor {
			src := c.Server(dc, p)
			if src == nil {
				return c.abortReshard(cur, next, moved, members, newPart,
					fmt.Errorf("cluster: reshard: donor dc%d-p%d died mid-copy", dc, p))
			}
			vv := src.VV()
			var batch []*item.Version
			collect := func(v *item.Version) {
				if !movedSet[keyspace.SlotOf(v.Key)] {
					return
				}
				if v.UpdateTime > maxTS {
					maxTS = v.UpdateTime
				}
				batch = append(batch, v)
			}
			src.Store().ForEachVersion(collect)
			for len(batch) > 0 {
				n := len(batch)
				if n > copyBatchSize {
					n = copyBatchSize
				}
				tgt.Store().InsertBatch(batch[:n])
				batch = batch[n:]
			}
			seed.MaxInPlace(vv)
		}
		for _, t := range seed {
			if t > maxTS {
				maxTS = t
			}
		}
		// The target's clock must not issue timestamps at or below the
		// inherited history (LWW would resurrect moved versions over fresh
		// writes).
		tgt.AdvanceClock(maxTS)
		tgt.Repl().AdoptHistory(seed.Get(dc)) // a later joiner fetches the copy
		if newPart >= 0 {
			// Only a fresh split owner adopts the donors' VV claim (see the
			// soundness note above); it also sets the catch-up floor so the
			// copied history is not re-requested from scratch.
			tgt.SeedVV(seed)
		}
	}

	c.finishReshard(next, members, newPart)
	return nil
}

// finishReshard publishes a reshard outcome: split targets leave the
// stabilization gate and are promoted into the live partition count, the
// table is (re-)installed everywhere — the abort path changes it between
// install and finish — and cluster routing flips, releasing retrying
// clients onto the new owners.
func (c *Cluster) finishReshard(m *keyspace.SlotMap, members []int, newPart int) {
	if newPart >= 0 {
		for _, dc := range members {
			if srv := c.Server(dc, newPart); srv != nil {
				srv.ReleaseGate()
			}
		}
		c.parts.Store(int32(newPart + 1))
	}
	// Settle the cluster-level routing state before walking the servers:
	// a server (re)starting from here on boots from the outcome table, and
	// the walk below (plus the re-install in RestartServer) catches servers
	// that raced the stage. Fenced old owners bounce any early-routed
	// operation, so clients just retry across the hand-over.
	c.slots.Store(m)
	c.bootSlots.Store(m)
	for _, srv := range c.live() {
		srv.InstallSlotMap(m)
	}
}

// abortReshard rolls a half-done reshard forward: the epoch lattice cannot
// go back, so the rollback is one more epoch that reassigns the moved slots
// to their pre-reshard owners. Split targets stay up as live (empty-handed)
// partitions — their siblings already gossip with them, so tearing them
// down would leave the stabilization plane folding a dead column — and the
// burned index simply owns no slots. Returns cause for tail-calling.
func (c *Cluster) abortReshard(cur, next *keyspace.SlotMap, moved []int, members []int, newPart int, cause error) error {
	rb := next.Clone()
	rb.Epoch++
	for _, sl := range moved {
		rb.Owner[sl] = cur.Owner[sl]
		rb.Stamp[sl] = rb.Epoch
	}
	c.finishReshard(rb, members, newPart)
	return cause
}
