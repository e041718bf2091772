package cluster

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/storage"
)

// StorageErr returns the first sticky persistence error reported by any
// server's engine, or nil. Durable deployments should poll it: a failed
// engine keeps serving from memory but no longer survives a crash.
func (c *Cluster) StorageErr() error {
	for id, srv := range c.live() {
		if err := srv.StorageErr(); err != nil {
			return fmt.Errorf("cluster: dc%d-p%d storage: %w", id.DC, id.Partition, err)
		}
	}
	return nil
}

// StorageStats aggregates every server's storage statistics, sampled with
// the engines' single-pass Stats so each server's keys/versions pair is
// consistent per shard.
func (c *Cluster) StorageStats() storage.StoreStats {
	var st storage.StoreStats
	for _, srv := range c.live() {
		es := srv.Store().Stats()
		st.Keys += es.Keys
		st.Versions += es.Versions
	}
	return st
}

// DurableStats aggregates every durable engine's commit-pipeline and
// catch-up seek counters. All-zero for in-memory deployments.
func (c *Cluster) DurableStats() storage.DurableStats {
	var st storage.DurableStats
	for _, srv := range c.live() {
		st.Merge(srv.DurableStats())
	}
	return st
}

// ReplicationStats summarizes the state of the replication plane across
// the deployment.
type ReplicationStats struct {
	// LagPerDC is, per data center, the worst replication lag any of its
	// partition servers observes against any remote DC: the server's own
	// version-vector entry minus the remote one, in time units. A link
	// frozen by an in-flight catch-up shows up here as growing lag.
	LagPerDC []time.Duration
	// LagPerLink breaks the lag down by link: LagPerLink[dst][src] is the
	// worst lag any partition server of DC dst observes on its inbound
	// stream from DC src (zero on the diagonal, for departed DCs, and for
	// slots that never joined). LagPerDC[dst] is the row maximum.
	LagPerLink [][]time.Duration
	// CatchUpsRequested / CatchUpsCompleted count inbound catch-up rounds
	// started and finished across all servers; CatchUpsServed counts the
	// WAL-shipped streams served to lagging siblings. All three (and
	// FullResyncs) count every incarnation: a restart does not reset them.
	CatchUpsRequested uint64
	CatchUpsCompleted uint64
	CatchUpsServed    uint64
	// CatchUpsActive is the number of links currently frozen mid-round.
	CatchUpsActive int
	// FullResyncs counts catch-up rounds answered with a full-history resync
	// (the requested range was checkpoint-pruned on the sender).
	FullResyncs uint64
	// LinkStates[dst][src] is the health of DC dst's inbound link from DC
	// src — the worst state any of dst's partition servers reports
	// (repl.LinkState is ordered by severity), LinkSelf on the diagonal. The
	// row of a departed DC is empty.
	LinkStates [][]repl.LinkState
	// GCHoldbackAge is the age of the oldest live GC holdback anywhere in
	// the deployment — how long the worst laggard has been deferring GC.
	GCHoldbackAge time.Duration
}

// MaxLag returns the worst per-DC lag.
func (r ReplicationStats) MaxLag() time.Duration {
	var max time.Duration
	for _, l := range r.LagPerDC {
		if l > max {
			max = l
		}
	}
	return max
}

// ReplicationStats samples every server's replication lag and the catch-up
// counters of every server the deployment has run, restarted and departed
// ones included.
func (c *Cluster) ReplicationStats() ReplicationStats {
	dcs := c.NumDCs()
	st := ReplicationStats{
		LagPerDC:   make([]time.Duration, dcs),
		LagPerLink: make([][]time.Duration, dcs),
		LinkStates: make([][]repl.LinkState, dcs),
	}
	for dc := range st.LagPerLink {
		st.LagPerLink[dc] = make([]time.Duration, dcs)
	}
	for id, srv := range c.live() {
		dc := id.DC
		if dc >= dcs {
			continue // joined after the sample began
		}
		for src, lag := range srv.ReplicationLag() {
			if src < dcs && lag > st.LagPerLink[dc][src] {
				st.LagPerLink[dc][src] = lag
			}
			if lag > st.LagPerDC[dc] {
				st.LagPerDC[dc] = lag
			}
		}
		if st.LinkStates[dc] == nil {
			st.LinkStates[dc] = make([]repl.LinkState, dcs)
		}
		for src, state := range srv.Repl().LinkStates() {
			if src < dcs {
				st.LinkStates[dc][src] = max(st.LinkStates[dc][src], state)
			}
		}
		if age := srv.Repl().HoldbackAge(); age > st.GCHoldbackAge {
			st.GCHoldbackAge = age
		}
	}
	// Counters come from every slot, dead incarnations and departed DCs
	// included (node.retired), so they never fall.
	var cs repl.Stats
	for dc := range c.nodes {
		for p := range c.nodes[dc] {
			addStats(&cs, c.nodes[dc][p].replStats())
		}
	}
	st.CatchUpsRequested, st.CatchUpsCompleted, st.CatchUpsServed = cs.Requested, cs.Completed, cs.Served
	st.CatchUpsActive, st.FullResyncs = cs.ActiveIn, cs.FullResyncs
	return st
}

// Aggregate is the cluster-wide union of per-server metrics.
type Aggregate struct {
	GetBlocking metrics.BlockingSnapshot
	PutBlocking metrics.BlockingSnapshot
	TxBlocking  metrics.BlockingSnapshot
	GetStale    metrics.StalenessSnapshot
	TxStale     metrics.StalenessSnapshot
	// Parked slices by the entry they waited on (core.Metrics).
	TxParkLocal  uint64
	TxParkRemote uint64
}

// Blocking merges GET, PUT and slice-read blocking, the aggregate Fig. 2a /
// 3c report.
func (a Aggregate) Blocking() metrics.BlockingSnapshot {
	out := a.GetBlocking
	out.Add(a.PutBlocking)
	out.Add(a.TxBlocking)
	return out
}

// Metrics aggregates every server's statistics.
func (c *Cluster) Metrics() Aggregate {
	var agg Aggregate
	for dc := range c.nodes {
		for p := range c.nodes[dc] {
			m := c.nodes[dc][p].mx
			if m == nil {
				continue // nothing was ever brought up here
			}
			agg.GetBlocking.Add(m.GetBlocking.Snapshot())
			agg.PutBlocking.Add(m.PutBlocking.Snapshot())
			agg.TxBlocking.Add(m.TxBlocking.Snapshot())
			agg.GetStale.Add(m.GetStale.Snapshot())
			agg.TxStale.Add(m.TxStale.Snapshot())
			agg.TxParkLocal += m.TxParkLocal.Load()
			agg.TxParkRemote += m.TxParkRemote.Load()
		}
	}
	return agg
}

// Messages returns the total number of protocol messages sent, in either
// transport mode.
func (c *Cluster) Messages() uint64 {
	if c.net != nil {
		return c.net.MessageCount()
	}
	c.memberMu.Lock()
	nodes := c.tcpNodes
	c.memberMu.Unlock()
	var total uint64
	for _, n := range nodes {
		total += n.Sent()
	}
	return total
}
