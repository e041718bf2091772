package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/kvserver"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// The ladder replays the head of client 0's operation stream with a single
// caller on an idle deployment, entering the stack one layer higher on
// every rung:
//
//	rung 0  storage.Mem called directly
//	rung 1  core.Server.Get/Put/ROTx on the owning partition server
//	rung 2  client.Session
//	rung 3  client.RemoteSession through the pool and the front door
//	        (front-door workloads only)
//
// A layer's self time is its rung's median minus the rung below; what is
// left between the top rung and the loaded p50 is queueing, not work.
const (
	ladderOps = 200_000
	// rungBudget bounds a rung: an unloaded RO-TX still waits for
	// heartbeats, so 200 k of them would take minutes.
	rungBudget = 3 * time.Second
	numRungs   = 4
)

// rungTimes holds one rung's median nanoseconds per operation kind, 0
// where the stream held no such operation.
type rungTimes struct {
	get, put, rotx float64
}

func (t *rungTimes) of(kind workload.OpKind) float64 {
	switch kind {
	case workload.OpGet:
		return t.get
	case workload.OpPut:
		return t.put
	}
	return t.rotx
}

// ladder is the outcome of every rung; rungs the workload lacks are zero.
type ladder struct {
	rungs [numRungs]rungTimes
	top   int // highest rung the workload's clients go through
}

// target is one entry point into the stack.
type target interface {
	get(key string) error
	put(key string, value []byte) error
	rotx(keys []string) error
}

// replay drives t with the stream's first operations, timing each maximal
// run of same-kind operations as one interval (a clock pair costs as much
// as a storage read) and subtracting the clock pair's own cost.
func replay(st *stream, t target, timerNS float64) (rungTimes, error) {
	var samples [4][]float64 // by OpKind
	deadline := time.Now().Add(rungBudget)
	var out rungTimes
	next := st.next()
	for ops := 0; ops < ladderOps && time.Now().Before(deadline); {
		run := []op{next}
		for len(run) < 64 {
			next = st.next()
			if next.Kind != run[0].Kind {
				break
			}
			run = append(run, next)
		}
		if len(run) == 64 {
			next = st.next()
		}
		start := time.Now()
		for _, o := range run {
			var err error
			switch o.Kind {
			case workload.OpGet:
				err = t.get(o.Keys[0])
			case workload.OpPut:
				err = t.put(o.Keys[0], o.Value)
			case workload.OpROTx:
				err = t.rotx(o.Keys)
			}
			if err != nil {
				return out, fmt.Errorf("ladder: operation %d: %w", o.Kind, err)
			}
		}
		per := (float64(time.Since(start)) - timerNS) / float64(len(run))
		samples[run[0].Kind] = append(samples[run[0].Kind], max(per, 0))
		ops += len(run)
	}
	out.get = median(samples[workload.OpGet])
	out.put = median(samples[workload.OpPut])
	out.rotx = median(samples[workload.OpROTx])
	return out, nil
}

// storageTarget is rung 0: the engine's read and insert calls, with the
// version built by the caller as core does.
type storageTarget struct {
	store storage.Engine
	ts    vclock.Timestamp
	tv    vclock.VC
}

func (t *storageTarget) get(key string) error {
	probeSink += t.store.ReadVisible(key, nil).ChainLen
	return nil
}

func (t *storageTarget) put(key string, value []byte) error {
	t.ts += 1 << vclock.LogicalBits
	t.store.Insert(&item.Version{Key: key, Value: value, UpdateTime: t.ts, Deps: vclock.New(numDCs), Optimistic: true})
	return nil
}

func (t *storageTarget) rotx(keys []string) error {
	for _, k := range keys {
		probeSink += t.store.ReadWithin(k, t.tv).ChainLen
	}
	return nil
}

// serverTarget is rung 1: the partition servers of DC 0, called with empty
// dependency vectors (what a fresh session sends).
type serverTarget struct {
	cl   *cluster.Cluster
	zero vclock.VC
}

func (t *serverTarget) get(key string) error {
	_, err := t.cl.Server(0, t.cl.PartitionOf(key)).Get(key, t.zero, core.Optimistic)
	return err
}

func (t *serverTarget) put(key string, value []byte) error {
	// The server keeps the vector it is given.
	_, err := t.cl.Server(0, t.cl.PartitionOf(key)).Put(key, value, vclock.New(numDCs), core.Optimistic)
	return err
}

func (t *serverTarget) rotx(keys []string) error {
	_, err := t.cl.Server(0, 0).ROTx(keys, t.zero, core.Optimistic, t.cl.PartitionOf)
	return err
}

// sessionTarget is rungs 2 and 3: any workload.Session.
type sessionTarget struct{ s workload.Session }

func (t sessionTarget) get(key string) error {
	_, err := t.s.Get(key)
	return err
}
func (t sessionTarget) put(key string, value []byte) error { return t.s.Put(key, value) }
func (t sessionTarget) rotx(keys []string) error {
	_, err := t.s.ROTx(keys)
	return err
}

// runLadder measures every rung the workload's operations pass through.
func runLadder(spec *workloadSpec, seed uint64, timerNS float64) (*ladder, error) {
	table := keyspace.Build(numPartitions, keysPerPartition)
	zipf := workload.NewZipf(keysPerPartition, zipfExponent)
	stream := func() *stream { return newStream(spec, table, zipf, seed, 0) }
	l := &ladder{top: 2}
	var err error

	mem := storage.New()
	populate(mem, table, 1)
	tv := vclock.VC{deployedEpoch, deployedEpoch, deployedEpoch}
	if l.rungs[0], err = replay(stream(), &storageTarget{store: mem, ts: deployedEpoch, tv: tv}, timerNS); err != nil {
		return nil, err
	}

	dir := ""
	if spec.frontDoor {
		if dir, err = os.MkdirTemp(dataDir, "ladder-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	cl, err := cluster.New(clusterConfig(seed, dir))
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer cl.Close()
	seedAll(spec, table, cl.Seed)
	if l.rungs[1], err = replay(stream(), &serverTarget{cl: cl, zero: vclock.New(numDCs)}, timerNS); err != nil {
		return nil, err
	}
	sess, err := cl.NewSession(0)
	if err != nil {
		return nil, err
	}
	if l.rungs[2], err = replay(stream(), sessionTarget{sess}, timerNS); err != nil {
		return nil, err
	}
	if !spec.frontDoor {
		return l, nil
	}

	l.top = 3
	fdDir, err := os.MkdirTemp(dataDir, "ladder-fd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fdDir)
	store, err := openStore(seed, fdDir+"/data")
	if err != nil {
		return nil, err
	}
	defer store.Close()
	seedAll(spec, table, store.Seed)
	srv, err := kvserver.Serve(store, "127.0.0.1", 0)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	pool, err := client.DialPool(client.PoolConfig{Addr: srv.Addr(0), Conns: 1})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	if l.rungs[3], err = replay(stream(), sessionTarget{pool.Session()}, timerNS); err != nil {
		return nil, err
	}
	// The front-door mixes hold no RO-TX; its unloaded round trip comes from
	// the RO-TX workload's stream on the same rung.
	rotx, err := replay(newStream(findWorkload("rotx_inproc"), table, zipf, seed, 0), sessionTarget{pool.Session()}, timerNS)
	if err != nil {
		return nil, err
	}
	l.rungs[3].rotx = rotx.rotx
	return l, nil
}
