package main

import (
	"time"

	"repro/internal/metrics"
)

// counters is a snapshot of what the deployment counts about itself, taken
// at both edges of the window so the layer metrics are window deltas.
type counters struct {
	all metrics.BlockingSnapshot
	// get, tx and stale exist on in-process deployments only: the public
	// occ.Stats folds the operation classes together.
	get, tx metrics.BlockingSnapshot
	stale   metrics.StalenessSnapshot
	// pctOld is the store's own cumulative figure (front door only).
	pctOld float64

	msgs     uint64
	catchups uint64
	keys     int
	versions int

	groups, records      uint64
	groupP50             uint64
	ackLagSum, ackLagMax time.Duration
}

func (d *deployment) counters() counters {
	var c counters
	if d.cl != nil {
		agg := d.cl.Metrics()
		c.all = agg.Blocking()
		c.get, c.tx = agg.GetBlocking, agg.TxBlocking
		c.stale = agg.GetStale
		c.stale.Add(agg.TxStale)
		c.msgs = d.cl.Messages()
		c.catchups = d.cl.ReplicationStats().CatchUpsCompleted
		st := d.cl.StorageStats()
		c.keys, c.versions = st.Keys, st.Versions
		return c
	}
	st := d.store.Stats()
	c.all = metrics.BlockingSnapshot{
		Ops: st.Operations, Blocked: st.BlockedOperations,
		BlockedNanos: uint64(st.MeanBlockingTime) * st.BlockedOperations,
	}
	c.pctOld = st.PercentOldReads
	c.msgs = d.store.Messages()
	c.catchups = st.CatchUps
	c.keys, c.versions = st.Keys, st.Versions
	c.groups, c.records = st.CommitGroups, st.WALRecords
	c.groupP50 = st.CommitGroupP50
	c.ackLagSum = st.AckToDurableMean * time.Duration(st.CommitGroups)
	c.ackLagMax = st.AckToDurableMax
	return c
}

// replicationLag is the worst lag any server observes on any inbound link.
func (d *deployment) replicationLag() time.Duration {
	if d.cl != nil {
		return d.cl.ReplicationStats().MaxLag()
	}
	return d.store.Stats().MaxReplicationLag()
}
