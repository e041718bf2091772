package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/netemu"
)

// relay sits between the network endpoint and a restartable server. The
// endpoint's handler is installed exactly once and forwards to the current
// server's handler; RestartServer holds the gate exclusively while swapping
// servers, so deliveries pause (preserving per-link FIFO order through the
// restart) instead of reaching a half-closed server.
//
// When dropRepl is set, replication-plane messages (batches, heartbeats,
// catch-up traffic) are discarded instead of paused — a dead machine
// receives nothing. RestartServer sets it for the crash window, and tests
// set it directly (DropInboundReplication) to sever a link mid-workload.
// Request/response traffic (slice reads, exchanges) still pauses: in a real
// deployment it rides an RPC layer with its own retries, and dropping it
// would wedge remote RO-TX coordinators.
type relay struct {
	inner    netemu.Transport
	gate     sync.RWMutex
	dropRepl atomic.Bool
	h        atomic.Pointer[netemu.Handler]
}

// isReplPlane reports whether m belongs to the replication plane — the
// messages a crashed or cut-off receiver genuinely loses. That is every
// message but the same-DC request/response traffic named here. Membership
// and slot-table traffic rides the plane too: a dead machine hears of no
// joins, leaves or reshards either (views and tables re-converge afterwards
// through their lattice merges and the senders' retries).
func isReplPlane(m any) bool {
	switch m.(type) {
	case msg.VVExchange, msg.GCExchange, *msg.SliceReq, *msg.SliceResp:
		return false
	}
	return true
}

func newRelay(inner netemu.Transport) *relay {
	r := &relay{inner: inner}
	inner.SetHandler(func(src netemu.NodeID, m any) {
		if r.dropRepl.Load() && isReplPlane(m) {
			return
		}
		r.gate.RLock()
		defer r.gate.RUnlock()
		if h := r.h.Load(); h != nil {
			(*h)(src, m)
		}
	})
	return r
}

func (r *relay) ID() netemu.NodeID             { return r.inner.ID() }
func (r *relay) Send(dst netemu.NodeID, m any) { r.inner.Send(dst, m) }
func (r *relay) SetHandler(h netemu.Handler)   { r.h.Store(&h) }

// RestartServer simulates a partition-server crash and recovery: the server
// is killed, a fresh one reopens the same durable data directory — its
// version chains and VV floor rebuilt from the snapshot and log tail — and
// takes over the node's network endpoint. Client operations racing the
// restart fail with core.ErrStopped and may be retried.
//
// It requires Config.DataDir: an in-memory server would restart empty, which
// is a data loss, not a recovery.
//
// The kill is a real crash: the outgoing replication buffer is discarded,
// not flushed — sibling DCs lose the tail of the update stream — and
// replication-plane messages arriving during the down window are dropped,
// as a dead machine would drop them. The restarted server and its siblings
// then detect the discontinuities through the link sequence numbers and
// resynchronize by WAL-shipped catch-up (internal/repl). The torn-log
// recovery paths are covered separately by tests that truncate segment
// files on disk between a close and a reopen.
func (c *Cluster) RestartServer(dc, p int) error {
	if c.cfg.DataDir == "" {
		return errors.New("cluster: RestartServer requires Config.DataDir (durable engines)")
	}
	n, err := c.nodeAt(dc, p)
	if err != nil {
		return err
	}
	old := n.srv.Load()
	if old == nil {
		return fmt.Errorf("cluster: no running server dc%d-p%d (DC departed)", dc, p)
	}
	rl := n.relay
	// A dead machine receives nothing: drop replication traffic for the
	// whole down window (in-flight deliveries included, before the gate
	// settles). Catch-up repairs the loss after the restart — so the drop
	// must end when this function does, even on a failed reopen.
	rl.dropRepl.Store(true)
	defer rl.dropRepl.Store(false)
	rl.gate.Lock() // drain in-flight request deliveries, pause new ones
	defer rl.gate.Unlock()
	old.Crash()
	srv, err := core.NewServer(c.serverConfig(dc, p))
	if err != nil {
		return fmt.Errorf("cluster: restart dc%d-p%d: %w", dc, p, err)
	}
	n.swap(srv)
	// Re-read the routing state after publishing the server: a reshard that
	// flipped (or aborted) between the config snapshot above and now has
	// already walked the server matrix, so its install may have hit the dead
	// predecessor. The lattice merge makes the re-install idempotent.
	srv.InstallSlotMap(c.bootSlots.Load())
	return nil
}

// DropInboundReplication severs (drop=true) or restores the
// replication-plane delivery to one node: while severed, batches,
// heartbeats and catch-up traffic addressed to the node are discarded — not
// buffered — emulating a receiver cut off from the update stream. On
// restore the node sees a sequence gap on each inbound link and
// resynchronizes from its siblings' logs. Requires
// Config.DataDir (the relay interposer exists only on durable
// deployments).
func (c *Cluster) DropInboundReplication(dc, p int, drop bool) error {
	if c.cfg.DataDir == "" {
		return errors.New("cluster: DropInboundReplication requires Config.DataDir")
	}
	n, err := c.nodeAt(dc, p)
	if err != nil {
		return err
	}
	n.relay.dropRepl.Store(drop)
	return nil
}
