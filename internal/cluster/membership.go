package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
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
	if c.cfg.DataDir == "" {
		c.memberMu.Unlock()
		return 0, errors.New("cluster: AddDC requires Config.DataDir (joiners bootstrap from the siblings' WALs)")
	}
	dc := int(c.dcs.Load())
	if dc >= c.maxDCs {
		c.memberMu.Unlock()
		return 0, fmt.Errorf("cluster: no MaxDCs headroom left (capacity %d used up)", c.maxDCs)
	}
	// Register the new DC's nodes before any server — ours or a sibling
	// answering a JoinRequest — can address them.
	ids := make([]netemu.NodeID, c.numParts())
	for p := range ids {
		ids[p] = netemu.NodeID{DC: dc, Partition: p}
	}
	if err := c.registerNodes(ids, rand.New(rand.NewPCG(c.cfg.Seed, 0xadd<<16|uint64(dc)))); err != nil {
		c.memberMu.Unlock()
		return 0, fmt.Errorf("cluster: join dc%d: %w", dc, err)
	}
	c.epoch++
	c.status[dc] = msg.DCJoining
	c.dcs.Store(int32(dc + 1))
	for p := 0; p < c.numParts(); p++ {
		srv, err := core.NewServer(c.serverConfigLocked(dc, p, true))
		if err != nil {
			c.memberMu.Unlock()
			return 0, c.unwindJoin(dc, fmt.Errorf("cluster: join dc%d-p%d: %w", dc, p, err))
		}
		c.nodes[dc][p].srv.Store(srv)
	}
	c.memberMu.Unlock()
	return dc, nil
}

// WaitForJoin blocks until every partition server of dc has finished its
// bootstrap — every inbound link synced via catch-up and the DC announced
// Active — or the timeout expires. On success the admin-side membership
// mirror is promoted too, so servers restarted later start from the settled
// view. If a server gave up soliciting (Config.JoinTimeout elapsed before
// the bootstrap completed), the half-joined DC is torn down (unwindJoin) and
// WaitForJoin reports the failure.
func (c *Cluster) WaitForJoin(dc int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for p := 0; p < c.numParts(); p++ {
			srv := c.Server(dc, p)
			if srv != nil && srv.Repl().JoinFailed() {
				return c.unwindJoin(dc, fmt.Errorf("cluster: dc%d gave up joining (JoinTimeout %v); torn down", dc, c.cfg.JoinTimeout))
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

// unwindJoin tears a half-joined DC down for cause, which it returns; the
// id stays burned. Each running server leaves, waiting up to
// Config.JoinTimeout (5 s when unset) for every active survivor to hold what
// it acknowledged, and closes. If a leave times out (a joiner that cannot
// hear the survivors, the usual reason a join fails), the survivors evict
// the DC instead. Called without memberMu held.
func (c *Cluster) unwindJoin(dc int, cause error) error {
	_, err := c.leaveDC(dc, c.cfg.JoinTimeout)
	c.closeDC(dc)
	if err != nil {
		if err = c.ForceRemoveDC(dc, 0); err != nil {
			cause = fmt.Errorf("%w; evicting it: %v", cause, err)
		}
	}
	c.memberMu.Lock()
	if c.status[dc] != msg.DCLeft {
		c.status[dc] = msg.DCLeft
		c.epoch++
	}
	c.memberMu.Unlock()
	return cause
}

// leaveDC runs every running partition server of dc through its leave
// (repl.Manager.Leave), the partitions in parallel, so a leave that cannot
// finish costs one timeout, not one per partition, and returns the finals by
// partition. An error names each partition whose leave failed, in partition
// order, and, on a timeout, the survivors short.
func (c *Cluster) leaveDC(dc int, timeout time.Duration) ([]vclock.Timestamp, error) {
	finals := make([]vclock.Timestamp, c.numParts())
	errs := make([]error, len(finals))
	var wg sync.WaitGroup
	for p := range finals {
		if srv := c.Server(dc, p); srv != nil { // nil: a half-started join slot
			wg.Add(1)
			go func() {
				defer wg.Done()
				finals[p], errs[p] = srv.Repl().Leave(timeout)
			}()
		}
	}
	wg.Wait()
	var short []string // one line: the text protocol answers an error on one
	for p, err := range errs {
		if err != nil {
			short = append(short, fmt.Sprintf("partition %d: %v", p, err))
		}
	}
	if short != nil {
		return finals, fmt.Errorf("cluster: leave of dc%d: %s", dc, strings.Join(short, "; "))
	}
	return finals, nil
}

// closeDC removes every partition server of dc from the matrix and closes it.
func (c *Cluster) closeDC(dc int) {
	for p := 0; p < c.numParts(); p++ {
		if srv := c.nodes[dc][p].srv.Swap(nil); srv != nil {
			srv.Close()
		}
	}
}

// RemoveDC removes a data center gracefully. Its partition servers leave in
// parallel (repl.Manager.Leave): each stops taking writes, flushes its tail
// and serves the survivors' catch-up rounds until every active survivor
// holds its history through its final timestamp, where they cap its
// entry; only then is the DC closed. The slot is retired for good: its id is never reused,
// sessions pinned to it fail their next operation, and stabilization on the
// survivors keeps advancing, as nothing can depend on the departed DC beyond
// its finals. If a leave times out, the error names the partition and the
// survivors short of its final; the servers stay up (serving catch-up,
// refusing writes) and the DC is not marked Left, so calling again resumes.
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
	c.memberMu.Unlock()
	if live <= 1 {
		return errors.New("cluster: cannot remove the last data center")
	}
	finals, err := c.leaveDC(dc, 0)
	if err != nil {
		return err
	}
	c.closeDC(dc)
	c.memberMu.Lock()
	c.recordFinalsLocked(dc, finals)
	c.memberMu.Unlock()
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
		if srv := n.srv.Swap(nil); srv != nil {
			srv.Crash()
		}
	}
	return nil
}

// ForceRemoveDC forcibly removes a crashed data center: the surviving DCs
// run the eviction protocol (repl.Manager.ProposeEvict) for every partition,
// agreeing per link on the highest update timestamp any of them holds
// without a gap from the dead DC; each survivor records that final in its
// view — raising it to its own entry if that is above — and discards any
// version above it, and the mirror records the final the running survivors
// settle on (settleFinal). If the DC's servers are still running
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
		var src netemu.NodeID
		for dc := 0; dc < int(c.dcs.Load()); dc++ {
			if dc == dead || status[dc] != msg.DCActive {
				continue
			}
			if srv := c.Server(dc, p); srv != nil {
				prop, src = srv, netemu.NodeID{DC: dc, Partition: p}
				break
			}
		}
		if prop == nil {
			return fmt.Errorf("cluster: no running survivor holds partition %d", p)
		}
		if _, err := prop.Repl().ProposeEvict(dead, timeout); err != nil {
			return fmt.Errorf("cluster: evict dc%d (partition %d): %w", dead, p, err)
		}
		finals[p] = c.settleFinal(dead, src, prop.Repl().View())
	}
	c.memberMu.Lock()
	c.recordFinalsLocked(dead, finals)
	c.memberMu.Unlock()
	return nil
}

// settleFinal hands verdict, the view of src (the round's proposer), to every
// running survivor of its partition and returns the final their views settle
// on for dead: a survivor whose entry lay above the round's final raises it
// as it adopts the verdict, and no entry passes it after. The settled view
// goes back to each, and the mirror records it, so a restart does not drop
// the raised prefix from its replay.
func (c *Cluster) settleFinal(dead int, src netemu.NodeID, verdict msg.Membership) vclock.Timestamp {
	var sibs []*core.Server
	for dc := 0; dc < int(c.dcs.Load()); dc++ {
		if srv := c.Server(dc, src.Partition); dc != dead && srv != nil {
			sibs = append(sibs, srv)
		}
	}
	for _, srv := range sibs {
		srv.Repl().Handle(src, msg.MembershipUpdate{View: verdict.Clone()})
		verdict.Merge(srv.Repl().View(), c.maxDCs)
	}
	for _, srv := range sibs {
		srv.Repl().Handle(src, msg.MembershipUpdate{View: verdict.Clone()})
	}
	return verdict.FinalOf(dead)
}

// recordFinalsLocked marks dc Left in the membership mirror with its
// per-partition finals. Called with memberMu held.
func (c *Cluster) recordFinalsLocked(dc int, finals []vclock.Timestamp) {
	if c.finals == nil {
		c.finals = make(map[int][]vclock.Timestamp)
	}
	c.finals[dc] = finals
	if c.status[dc] != msg.DCLeft {
		c.status[dc] = msg.DCLeft
		c.epoch++
	}
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
