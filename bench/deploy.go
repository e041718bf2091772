package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	occ "repro"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/keyspace"
	"repro/internal/kvserver"
	"repro/internal/storage"
	"repro/internal/workload"
)

// deployment is one running 3 DC x 4 partition store with the sessions the
// load generator drives. Exactly one of cl (in-process workloads) and store
// (front-door workloads) is set.
type deployment struct {
	spec  *workloadSpec
	table *keyspace.Table
	zipf  *workload.Zipf

	cl *cluster.Cluster

	store   *occ.Store
	srv     *kvserver.Server
	pools   []*client.Pool
	dataDir string

	sessions []workload.Session // one per client
	probe    workload.Session   // front door only: the visibility prober's writer, at DC 0
	// Front door only: one in-process session per DC, for the prober's polls
	// at the far DC and, once the load has stopped, the convergence gate.
	readers []workload.Session

	times setupTimes
}

// setupTimes breaks setup_s down; the parts are the cluster.* layer metrics.
type setupTimes struct {
	open, seed, serve, firstOp, total time.Duration
}

var seedValue = []byte("00000000")

// clientDC places client i: in-process sessions spread over all three DCs,
// front-door sessions over DC 0 and DC 1 (DC 2 is a passive replica, the
// visibility probe's far end).
func clientDC(spec *workloadSpec, i int) int {
	if spec.frontDoor {
		return i % 2
	}
	return i % numDCs
}

// deploy builds the workload's deployment, seeds every key, opens the
// sessions and completes one operation. dataDir is used by front-door
// workloads only and must be empty or absent.
func deploy(spec *workloadSpec, seed uint64, dataDir string) (*deployment, error) {
	d := &deployment{spec: spec, dataDir: dataDir}
	start := time.Now()
	var err error
	if spec.frontDoor {
		err = d.openFrontDoor(seed)
	} else {
		err = d.openInProc(seed)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	t := time.Now()
	if _, err := d.sessions[0].Get(d.table.Key(0, 0)); err != nil {
		d.close()
		return nil, fmt.Errorf("first op: %w", err)
	}
	d.times.firstOp = time.Since(t)
	d.times.total = time.Since(start)
	return d, nil
}

func (d *deployment) buildKeys() {
	d.table = keyspace.Build(numPartitions, keysPerPartition)
	d.zipf = workload.NewZipf(keysPerPartition, zipfExponent)
}

// seedAll loads every table key and every client's own key into all DCs.
func seedAll(spec *workloadSpec, table *keyspace.Table, seedKey func(key string, value []byte)) {
	for p := 0; p < numPartitions; p++ {
		for _, k := range table.AllKeys(p) {
			seedKey(k, seedValue)
		}
	}
	if spec.ownEvery > 0 {
		for i := 0; i < numClients; i++ {
			seedKey(ownKey(i), ownValue(0, spec.valueSize))
		}
	}
}

func (d *deployment) openInProc(seed uint64) error {
	t := time.Now()
	d.buildKeys()
	cl, err := cluster.New(clusterConfig(seed, ""))
	if err != nil {
		return fmt.Errorf("cluster.New: %w", err)
	}
	d.cl = cl
	d.times.open = time.Since(t)

	t = time.Now()
	seedAll(d.spec, d.table, cl.Seed)
	d.times.seed = time.Since(t)

	t = time.Now()
	for i := 0; i < numClients; i++ {
		s, err := cl.NewSession(clientDC(d.spec, i))
		if err != nil {
			return err
		}
		d.sessions = append(d.sessions, s)
	}
	d.times.serve = time.Since(t)
	return nil
}

func (d *deployment) openFrontDoor(seed uint64) error {
	t := time.Now()
	d.buildKeys()
	store, err := openStore(seed, d.dataDir)
	if err != nil {
		return err
	}
	d.store = store
	d.times.open = time.Since(t)

	t = time.Now()
	seedAll(d.spec, d.table, store.Seed)
	d.times.seed = time.Since(t)

	t = time.Now()
	if d.srv, err = kvserver.Serve(store, "127.0.0.1", 0); err != nil {
		return fmt.Errorf("kvserver.Serve: %w", err)
	}
	for dc := 0; dc < 2; dc++ {
		pool, err := client.DialPool(client.PoolConfig{Addr: d.srv.Addr(dc), Conns: 1})
		if err != nil {
			return fmt.Errorf("DialPool dc%d: %w", dc, err)
		}
		d.pools = append(d.pools, pool)
	}
	for i := 0; i < numClients; i++ {
		d.sessions = append(d.sessions, d.pools[clientDC(d.spec, i)].Session())
	}
	// The prober writes through DC 0's existing connection: the benchmark
	// holds at most two client TCP connections.
	d.probe = d.pools[0].Session()
	for dc := 0; dc < numDCs; dc++ {
		s, err := store.Session(dc)
		if err != nil {
			return err
		}
		d.readers = append(d.readers, s)
	}
	d.times.serve = time.Since(t)
	return nil
}

// clusterConfig is the deployment every workload runs on; a dataDir selects
// the front-door workloads' variant (TCP replication, durable engines). The
// ladder's lower rungs open it directly, to reach the partition servers.
func clusterConfig(seed uint64, dataDir string) cluster.Config {
	cfg := cluster.Config{
		NumDCs: numDCs, NumPartitions: numPartitions, Engine: cluster.POCC,
		HeartbeatInterval: heartbeat, GCInterval: gcInterval, PutDepWait: true,
		Seed: seed,
	}
	if dataDir == "" {
		cfg.Latency = cluster.AWSLatency(latencyScale)
		cfg.JitterFrac = jitterFrac
		return cfg
	}
	cfg.TCP = true
	cfg.DataDir = dataDir
	cfg.Durable = storage.DurableOptions{AckMode: storage.AckGrouped, NoSync: true}
	return cfg
}

// openStore opens the same front-door deployment through the public API,
// which is what kvserver serves: TCP replication, durable engines under
// dataDir, PUTs acknowledged once staged on the WAL commit pipeline
// (AckGrouped). The WAL writes every commit group and never fsyncs: the
// data directory has to lie inside the checkout, which is on a disk, and
// there replicated batches fsync synchronously, so that the run measures the
// machine's disk and not the program (README.md, "Data directories").
func openStore(seed uint64, dataDir string) (*occ.Store, error) {
	store, err := occ.Open(occ.Config{
		DataCenters: numDCs, Partitions: numPartitions, Engine: occ.POCC,
		HeartbeatInterval: heartbeat, GCInterval: gcInterval, Seed: seed,
		TCP: true, DataDir: dataDir, AckMode: occ.AckGrouped,
		NoSync: true,
	})
	if err != nil {
		return nil, fmt.Errorf("occ.Open: %w", err)
	}
	return store, nil
}

// close tears the deployment down; the data directory stays (the reopen
// gate reads it) and is removed by the caller.
func (d *deployment) close() time.Duration {
	t := time.Now()
	for _, p := range d.pools {
		p.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	if d.store != nil {
		d.store.Close()
	}
	if d.cl != nil {
		d.cl.Close()
	}
	return time.Since(t)
}

// readAt reads key at one DC from inside the process, bypassing sessions'
// causal state where the deployment allows it. One goroutine at a time.
func (d *deployment) readAt(dc int, key string) ([]byte, error) {
	if d.cl != nil {
		r, err := d.cl.ReadAt(dc, key)
		if err != nil || !r.Exists {
			return nil, err
		}
		return r.Value, nil
	}
	return d.readers[dc].Get(key)
}

// converged reports whether key reads identically in every DC.
func (d *deployment) converged(key string) (bool, error) {
	first, err := d.readAt(0, key)
	if err != nil {
		return false, err
	}
	for dc := 1; dc < numDCs; dc++ {
		v, err := d.readAt(dc, key)
		if err != nil {
			return false, err
		}
		if !bytes.Equal(first, v) {
			return false, nil
		}
	}
	return true, nil
}

// newDataDir creates an empty directory for one deployment under root.
func newDataDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}

// fsName names the filesystem holding path; results taken on different
// filesystems are not compared, because the cost of a write is the
// filesystem's.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic = 0x01021994
	if uint32(st.Type) == tmpfsMagic {
		return "tmpfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	_ = filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		// Files vanish mid-walk when a checkpoint truncates segments; the
		// figure is a sample, so a missing file counts as zero.
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

var errNotConverged = errors.New("replicas did not converge")
