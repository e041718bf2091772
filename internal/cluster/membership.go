package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/vclock"
)

// AddDC grows the deployment by one data center: it registers the new DC's
// endpoints, starts its partition servers in joining mode, and returns the
// new DC id. The joiners bootstrap themselves — each sends a JoinRequest to
// its sibling partition in every active DC, pulls that sibling's history
// through WAL-shipped catch-up, and announces itself Active once every
// inbound link is synced (see internal/repl). AddDC returns as soon as the
// servers are up; use WaitForJoin to block until the bootstrap finished.
//
// It requires Config.DataDir: the join bootstrap is the catch-up protocol,
// which streams history out of the siblings' write-ahead logs — an
// in-memory deployment has nothing to bootstrap a joiner from. The
// deployment must have MaxDCs headroom; a departed DC's slot is never
// reused.
func (c *Cluster) AddDC() (int, error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.cfg.DataDir == "" {
		return 0, errors.New("cluster: AddDC requires Config.DataDir (joiners bootstrap from the siblings' WALs)")
	}
	dc := int(c.dcs.Load())
	if dc >= c.maxDCs {
		return 0, fmt.Errorf("cluster: no MaxDCs headroom left (capacity %d used up)", c.maxDCs)
	}
	// Register the new DC's nodes before any server — ours or a sibling
	// answering a JoinRequest — can address them.
	ids := make([]netemu.NodeID, c.numParts())
	for p := range ids {
		ids[p] = netemu.NodeID{DC: dc, Partition: p}
	}
	if err := c.registerNodes(ids, rand.New(rand.NewPCG(c.cfg.Seed, 0xadd<<16|uint64(dc)))); err != nil {
		return 0, fmt.Errorf("cluster: join dc%d: %w", dc, err)
	}
	c.epoch++
	c.status[dc] = msg.DCJoining
	c.dcs.Store(int32(dc + 1))
	for p := 0; p < c.numParts(); p++ {
		srv, err := core.NewServer(c.serverConfigLocked(dc, p, true))
		if err != nil {
			// Unwind the half-started DC: the servers already running
			// announce their departure (so siblings that merged the join
			// drop the dead links) and close; the id stays burned.
			for q := 0; q < p; q++ {
				if started := c.nodes[dc][q].swap(nil); started != nil {
					started.Repl().Leave()
					started.Close()
				}
			}
			c.status[dc] = msg.DCLeft
			c.epoch++
			return 0, fmt.Errorf("cluster: join dc%d-p%d: %w", dc, p, err)
		}
		c.nodes[dc][p].srv.Store(srv)
	}
	return dc, nil
}

// WaitForJoin blocks until every partition server of dc has finished its
// bootstrap — every inbound link synced via catch-up and the DC announced
// Active — or the timeout expires. On success the admin-side membership
// mirror is promoted too, so servers restarted later start from the settled
// view. If a server gave up soliciting (Config.JoinTimeout elapsed before
// the bootstrap completed), the half-joined DC is torn down cleanly — its
// servers announce their departure and close, the slot's id stays burned —
// and WaitForJoin reports the failure.
func (c *Cluster) WaitForJoin(dc int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for p := 0; p < c.numParts(); p++ {
			srv := c.Server(dc, p)
			if srv != nil && srv.Repl().JoinFailed() {
				c.unwindJoin(dc)
				return fmt.Errorf("cluster: dc%d gave up joining (JoinTimeout %v); torn down", dc, c.cfg.JoinTimeout)
			}
			if srv == nil || !srv.Repl().Bootstrapped() {
				done = false
				break
			}
		}
		if done {
			c.memberMu.Lock()
			if c.status[dc] == msg.DCJoining {
				c.status[dc] = msg.DCActive
				c.epoch++
			}
			c.memberMu.Unlock()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: dc%d did not finish joining within %v (catch-up stats %+v)",
				dc, timeout, c.ReplicationStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// unwindJoin tears a half-joined DC down: every still-running server
// announces its departure (so siblings that merged the join drop the dead
// links) and closes, and the mirror marks the slot Left for good.
func (c *Cluster) unwindJoin(dc int) {
	for p := 0; p < c.numParts(); p++ {
		if srv := c.nodes[dc][p].swap(nil); srv != nil {
			srv.Repl().Leave()
			srv.Close()
		}
	}
	c.memberMu.Lock()
	if c.status[dc] != msg.DCLeft {
		c.status[dc] = msg.DCLeft
		c.epoch++
	}
	c.memberMu.Unlock()
}

// RemoveDC removes a data center from the deployment. Each of its partition
// servers announces the departure — flushing its replication buffer and
// following it with a LeaveNotice on the same FIFO links, so the surviving
// DCs hold the departed history in full and freeze its version-vector
// entries at the announced final timestamps — and is then closed. The slot
// is retired for good: its id is never reused (its timestamps live on in
// the survivors' stores), sessions pinned to it fail their next operation,
// and stabilization on the survivors keeps advancing because nothing can
// depend on the departed DC beyond its final timestamp.
func (c *Cluster) RemoveDC(dc int) error {
	c.memberMu.Lock()
	if dc < 0 || dc >= int(c.dcs.Load()) {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no data center %d", dc)
	}
	if c.status[dc] == msg.DCLeft {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: dc%d already left", dc)
	}
	live := 0
	for _, st := range c.status {
		if st == msg.DCActive || st == msg.DCJoining {
			live++
		}
	}
	if live <= 1 {
		c.memberMu.Unlock()
		return errors.New("cluster: cannot remove the last data center")
	}
	c.status[dc] = msg.DCLeft
	c.epoch++
	c.memberMu.Unlock()
	for p := 0; p < c.numParts(); p++ {
		srv := c.nodes[dc][p].swap(nil)
		if srv == nil {
			continue // half-started join slot; nothing ever ran here
		}
		srv.Repl().Leave()
		srv.Close()
	}
	return nil
}

// KillDC crashes every partition server of a data center at once — a whole
// machine-room failure. The dead DC's outgoing replication tails are
// discarded and its endpoints drop all inbound replication traffic from then
// on; the membership mirror still counts it as a member, so the survivors'
// GSS freezes at the dead DC's last replicated timestamps until
// ForceRemoveDC evicts it. The slot cannot be restarted afterwards (the
// forced-removal semantics discard its un-agreed suffix for good). Requires
// Config.DataDir (the relay interposer).
func (c *Cluster) KillDC(dc int) error {
	if c.cfg.DataDir == "" {
		return errors.New("cluster: KillDC requires Config.DataDir")
	}
	c.memberMu.Lock()
	if dc < 0 || dc >= int(c.dcs.Load()) {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no data center %d", dc)
	}
	if c.status[dc] == msg.DCLeft {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: dc%d already left", dc)
	}
	c.memberMu.Unlock()
	for p := 0; p < c.numParts(); p++ {
		n, err := c.nodeAt(dc, p)
		if err != nil {
			continue // nothing was ever brought up here
		}
		n.relay.dropRepl.Store(true) // a dead machine receives nothing
		if srv := n.swap(nil); srv != nil {
			srv.Crash()
		}
	}
	return nil
}

// ForceRemoveDC forcibly removes a crashed data center: the surviving DCs
// run the eviction protocol (repl.Manager.ProposeEvict) for every partition,
// agreeing per link on the highest update timestamp any of them replicated
// from the dead DC; each survivor freezes its membership entry at that final
// and discards any version above it. If the DC's servers are still running
// they are killed first — forced removal is for dead DCs, and an evicted
// slot can never come back (its un-agreed suffix is gone). timeout bounds
// each partition's proposal round (0 selects a default). On an error the
// eviction may be partially applied; calling ForceRemoveDC again resumes it
// (the proposal round is idempotent).
func (c *Cluster) ForceRemoveDC(dead int, timeout time.Duration) error {
	c.memberMu.Lock()
	if dead < 0 || dead >= int(c.dcs.Load()) {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: no data center %d", dead)
	}
	if c.status[dead] == msg.DCLeft {
		c.memberMu.Unlock()
		return fmt.Errorf("cluster: dc%d already left", dead)
	}
	status := append([]uint8(nil), c.status...)
	c.memberMu.Unlock()
	live := 0
	for dc, st := range status {
		if dc != dead && st == msg.DCActive {
			live++
		}
	}
	if live == 0 {
		return errors.New("cluster: no active survivor to coordinate the eviction")
	}
	if err := c.KillDC(dead); err != nil {
		return err
	}
	// One eviction round per partition: each link (dead,p)→(·,p) has its own
	// agreed final, proposed by the lowest live DC holding that partition.
	finals := make([]vclock.Timestamp, c.numParts())
	for p := range finals {
		var prop *core.Server
		for dc := 0; dc < int(c.dcs.Load()); dc++ {
			if dc == dead || status[dc] != msg.DCActive {
				continue
			}
			if srv := c.Server(dc, p); srv != nil {
				prop = srv
				break
			}
		}
		if prop == nil {
			return fmt.Errorf("cluster: no running survivor holds partition %d", p)
		}
		f, err := prop.Repl().ProposeEvict(dead, timeout)
		if err != nil {
			return fmt.Errorf("cluster: evict dc%d (partition %d): %w", dead, p, err)
		}
		finals[p] = f
	}
	c.memberMu.Lock()
	if c.finals == nil {
		c.finals = make(map[int][]vclock.Timestamp)
	}
	c.finals[dead] = finals
	if c.status[dead] != msg.DCLeft {
		c.status[dead] = msg.DCLeft
		c.epoch++
	}
	c.memberMu.Unlock()
	return nil
}

// Membership returns the admin-side membership mirror. The authoritative
// views live on the servers (repl.Manager.View) and converge through
// the join/leave protocol; the mirror is what new and restarted servers are
// seeded with.
func (c *Cluster) Membership() msg.Membership {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	return msg.Membership{Epoch: c.epoch, Status: append([]uint8(nil), c.status...)}
}
