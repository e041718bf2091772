package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/storage"
	"repro/internal/tcpnet"
	"repro/internal/vclock"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The standalone layer probes: each calls one layer's exported functions
// directly, alone in the process, on inputs shaped like the workload's. They
// run in the traced run only, after the deployment has been closed.

// probeBudget is how long one probe measures.
const probeBudget = 120 * time.Millisecond

// deployedEpoch rebases probe timestamps to the magnitude a long-running
// process emits (clocks tick ns since start, so a young process would
// encode 4-byte varints no deployment sees).
const deployedEpoch vclock.Timestamp = 1 << 60

var probeSink int

// nsPerOp calls f, which performs n operations, in rounds for probeBudget
// (at least five rounds) and returns the median nanoseconds per operation.
func nsPerOp(n int, f func()) float64 {
	var rounds []float64
	deadline := time.Now().Add(probeBudget)
	for len(rounds) < 5 || time.Now().Before(deadline) {
		t := time.Now()
		f()
		rounds = append(rounds, float64(time.Since(t))/float64(n))
	}
	return median(rounds)
}

// allocsPerOp returns the heap allocations per operation of f, which
// performs n operations. Nothing else runs in the process meanwhile.
func allocsPerOp(n int, f func()) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-before) / float64(n)
}

// probeKeys draws n keys the way the workloads do: a uniform partition, a
// zipf rank inside it.
func probeKeys(table *keyspace.Table, zipf *workload.Zipf, rng *rand.Rand, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = table.Key(int(rng.Uint64N(numPartitions)), zipf.Sample(rng))
	}
	return keys
}

// versionMaker hands out fresh versions in timestamp order, as a server's
// PUT path and replication stream do.
type versionMaker struct {
	keys  []string
	value []byte
	next  vclock.Timestamp
	i     int
}

func newVersionMaker(keys []string, valueSize int) *versionMaker {
	return &versionMaker{keys: keys, value: bytes.Repeat([]byte{'v'}, valueSize), next: deployedEpoch}
}

func (m *versionMaker) version() *item.Version {
	m.next += 1 << vclock.LogicalBits
	m.i++
	deps := vclock.New(numDCs)
	deps[1] = m.next - 5000
	deps[2] = m.next - 9000
	return &item.Version{
		Key: m.keys[m.i%len(m.keys)], Value: m.value,
		SrcReplica: 0, UpdateTime: m.next, Deps: deps, Optimistic: true,
	}
}

func (m *versionMaker) batch(n int) []*item.Version {
	vs := make([]*item.Version, n)
	for i := range vs {
		vs[i] = m.version()
	}
	return vs
}

// populate seeds a store with every table key plus extra versions per key.
func populate(store storage.Engine, table *keyspace.Table, perKey int) {
	ts := vclock.Timestamp(1)
	for p := 0; p < table.Partitions(); p++ {
		for _, k := range table.AllKeys(p) {
			for v := 0; v < perKey; v++ {
				ts++
				store.Insert(&item.Version{Key: k, Value: seedValue, UpdateTime: ts, Deps: vclock.New(numDCs)})
			}
		}
	}
}

// probeStorage measures storage.Mem and storage.Durable directly.
func probeStorage(m values, spec *workloadSpec) error {
	table := keyspace.Build(numPartitions, keysPerPartition)
	zipf := workload.NewZipf(keysPerPartition, zipfExponent)
	rng := rand.New(rand.NewPCG(defaultSeed, 99))
	keys := probeKeys(table, zipf, rng, 4096)

	mem := storage.New()
	populate(mem, table, 2)
	m["storage.mem_head_ns"] = nsPerOp(len(keys), func() {
		for _, k := range keys {
			if mem.Head(k) != nil {
				probeSink++
			}
		}
	})
	m["storage.mem_read_visible_ns"] = nsPerOp(len(keys), func() {
		for _, k := range keys {
			probeSink += mem.ReadVisible(k, nil).ChainLen
		}
	})
	tv := vclock.VC{deployedEpoch, deployedEpoch, deployedEpoch}
	m["storage.mem_read_within_ns"] = nsPerOp(len(keys), func() {
		for _, k := range keys {
			probeSink += mem.ReadWithin(k, tv).ChainLen
		}
	})

	// Inserts grow chains, so every round gets a fresh store and the
	// versions are built outside the timed region.
	const inserts = 2048
	mk := newVersionMaker(keys, spec.valueSize)
	var rounds []float64
	for r := 0; r < 9; r++ {
		s := storage.New()
		vs := mk.batch(inserts)
		t := time.Now()
		for _, v := range vs {
			s.Insert(v)
		}
		rounds = append(rounds, float64(time.Since(t))/inserts)
	}
	m["storage.mem_insert_ns"] = median(rounds)

	const batchLen = 8
	freshBatches := func() (*storage.Mem, [][]*item.Version) {
		batches := make([][]*item.Version, inserts/batchLen)
		for i := range batches {
			batches[i] = mk.batch(batchLen)
		}
		return storage.New(), batches
	}
	rounds = rounds[:0]
	for r := 0; r < 9; r++ {
		s, batches := freshBatches()
		t := time.Now()
		for _, b := range batches {
			s.InsertBatch(b)
		}
		rounds = append(rounds, float64(time.Since(t))/inserts)
	}
	m["storage.mem_insert_batch_ns_per_version"] = median(rounds)
	s, batches := freshBatches()
	m["storage.mem_insert_batch_allocs_per_version"] = allocsPerOp(inserts, func() {
		for _, b := range batches {
			s.InsertBatch(b)
		}
	})

	// One garbage-collection pass over a populated partition store, at the
	// workloads' size and at 16 times it.
	for _, c := range []struct {
		name string
		keys int
	}{{"storage.gc_pass_ms", keysPerPartition}, {"storage.gc_pass_large_ms", 16 * keysPerPartition}} {
		s := storage.New()
		populate(s, keyspace.Build(1, c.keys), 4)
		gv := vclock.VC{deployedEpoch, deployedEpoch, deployedEpoch}
		t := time.Now()
		probeSink += s.CollectGarbage(gv)
		m[c.name] = float64(time.Since(t)) / 1e6
	}

	dir, err := os.MkdirTemp(dataDir, "probe-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dur, err := storage.OpenDurable(dir, storage.DurableOptions{AckMode: storage.AckGrouped, NoSync: true})
	if err != nil {
		return fmt.Errorf("OpenDurable: %w", err)
	}
	vs := mk.batch(inserts)
	t := time.Now()
	for _, v := range vs {
		dur.Insert(v)
	}
	m["storage.durable_insert_ns"] = float64(time.Since(t)) / inserts
	rounds = rounds[:0]
	for r := 0; r < 64; r++ {
		b := mk.batch(batchLen)
		t := time.Now()
		dur.InsertBatch(b)
		rounds = append(rounds, float64(time.Since(t))/batchLen)
	}
	m["storage.durable_insert_batch_ns_per_version"] = median(rounds)
	if err := dur.Close(); err != nil {
		return fmt.Errorf("durable close: %w", err)
	}
	return nil
}

// framePayload strips the uvarint length prefix of one front-door frame.
func framePayload(frame []byte) []byte {
	_, n := binary.Uvarint(frame)
	return frame[n:]
}

// loopReader replays one buffer forever, so a stream decoder can decode the
// same frame as often as a probe asks.
type loopReader struct {
	data []byte
	pos  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.pos:])
	r.pos = (r.pos + n) % len(r.data)
	return n, nil
}

// probeWire measures the front-door frame codec on the workload's key and
// value sizes, and the replication codec on batches of 64-byte values.
func probeWire(m values, spec *workloadSpec) error {
	const n = 1024
	key := keyspace.Build(numPartitions, 1).Key(0, 0)
	value := bytes.Repeat([]byte{'v'}, spec.valueSize)
	req := wire.FrontDoorRequest{Op: wire.FDGet, ID: 1 << 20, Session: 7, Key: key}
	resp := wire.FrontDoorResponse{Kind: wire.FDValue, ID: 1 << 20, Exists: true, Value: value}
	var buf []byte
	m["wire.fd_req_encode_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			buf = wire.AppendFrontDoorRequest(buf[:0], &req)
		}
	})
	reqPayload := framePayload(append([]byte(nil), buf...))
	var err error
	m["wire.fd_req_decode_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if _, e := wire.DecodeFrontDoorRequest(reqPayload); e != nil {
				err = e
			}
		}
	})
	m["wire.fd_resp_encode_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			buf = wire.AppendFrontDoorResponse(buf[:0], &resp)
		}
	})
	respPayload := framePayload(append([]byte(nil), buf...))
	m["wire.fd_resp_decode_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if _, e := wire.DecodeFrontDoorResponse(respPayload); e != nil {
				err = e
			}
		}
	})
	m["wire.fd_allocs_per_roundtrip"] = allocsPerOp(n, func() {
		for i := 0; i < n; i++ {
			buf = wire.AppendFrontDoorRequest(buf[:0], &req)
			_, _ = wire.DecodeFrontDoorRequest(reqPayload)
			buf = wire.AppendFrontDoorResponse(buf[:0], &resp)
			_, _ = wire.DecodeFrontDoorResponse(respPayload)
		}
	})
	if err != nil {
		return fmt.Errorf("front-door codec: %w", err)
	}

	keys := keyspace.Build(numPartitions, 64).AllKeys(0)
	for _, c := range []struct {
		prefix   string
		versions int
	}{{"wire.batch", 8}, {"wire.batch64", 64}} {
		mk := newVersionMaker(keys, 64)
		vs := mk.batch(c.versions)
		env := wire.Envelope{
			Src: netemu.NodeID{DC: 0, Partition: 1},
			Msg: msg.ReplicateBatch{Versions: vs, HBTime: mk.next + 1024, Epoch: 3, Seq: 1 << 16, Floor: deployedEpoch},
		}
		var out bytes.Buffer
		enc := wire.NewBinaryEncoder(&out)
		const rounds = 128
		m[c.prefix+"_encode_ns_per_version"] = nsPerOp(rounds*c.versions, func() {
			for i := 0; i < rounds; i++ {
				out.Reset()
				if e := enc.Encode(env); e != nil {
					err = e
				}
			}
		})
		dec := wire.NewBinaryDecoder(&loopReader{data: append([]byte(nil), out.Bytes()...)})
		decode := func() {
			for i := 0; i < rounds; i++ {
				if _, e := dec.Decode(); e != nil {
					err = e
				}
			}
		}
		m[c.prefix+"_decode_ns_per_version"] = nsPerOp(rounds*c.versions, decode)
		if c.versions == 8 {
			m["wire.batch_decode_allocs_per_version"] = allocsPerOp(rounds*c.versions, decode)
			m["wire.batch_bytes_per_version"] = float64(out.Len()) / float64(c.versions)
		}
	}
	if err != nil {
		return fmt.Errorf("batch codec: %w", err)
	}
	return nil
}

// probeWAL measures wal.Log appends directly: staged (what an AckGrouped
// PUT waits for) and committed (what a replicated batch waits for).
func probeWAL(m values, spec *workloadSpec) error {
	dir, err := os.MkdirTemp(dataDir, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{NoSync: true}, nil)
	if err != nil {
		return fmt.Errorf("wal.Open: %w", err)
	}
	mk := newVersionMaker([]string{"p0-k000001"}, spec.valueSize)
	rec := wire.AppendVersion(nil, mk.version())
	const n = 512
	m["wal.append_async_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if e := log.AppendAsync(rec); e != nil {
				err = e
			}
		}
	})
	var rounds []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if e := log.Append(rec); e != nil {
			err = e
		}
		rounds = append(rounds, float64(time.Since(t))/1e3)
	}
	m["wal.append_sync_us"] = median(rounds)
	if e := log.Close(); e != nil {
		err = e
	}
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	return nil
}

// oneWay sends messages one at a time through send and returns the sorted
// delays, in microseconds, between the send and the receiving handler. recv
// delivers a message's arrival time.
func oneWay(n int, send func(), recv <-chan time.Time) []float64 {
	delays := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		send()
		delays = append(delays, float64((<-recv).Sub(t))/1e3)
	}
	sort.Float64s(delays)
	return delays
}

// probeTCPNet measures two tcpnet nodes on loopback: Send to handler.
func probeTCPNet(m values) error {
	a, err := tcpnet.Listen(netemu.NodeID{DC: 0}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := tcpnet.Listen(netemu.NodeID{DC: 1}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.Connect(map[netemu.NodeID]string{b.ID(): b.Addr()})

	// Buffered to the burst size below: the handler must never block.
	const burst = 20000
	recv := make(chan time.Time, burst)
	b.SetHandler(func(netemu.NodeID, any) { recv <- time.Now() })
	hb := msg.Heartbeat{Time: deployedEpoch, Epoch: 1, Seq: 9}
	oneWay(50, func() { a.Send(b.ID(), hb) }, recv) // dial and warm the link
	d := oneWay(2000, func() { a.Send(b.ID(), hb) }, recv)
	m["tcpnet.oneway_us"] = d[len(d)/2]

	mk := newVersionMaker(keyspace.Build(numPartitions, 64).AllKeys(0), 64)
	batch := msg.ReplicateBatch{Versions: mk.batch(8), HBTime: mk.next + 1024, Epoch: 1, Seq: 10, Floor: deployedEpoch}
	d = oneWay(2000, func() { a.Send(b.ID(), batch) }, recv)
	m["tcpnet.batch_oneway_us"] = d[len(d)/2]

	t := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < burst; i++ {
			<-recv
		}
	}()
	for i := 0; i < burst; i++ {
		a.Send(b.ID(), hb)
	}
	wg.Wait()
	m["tcpnet.msgs_per_s"] = burst / time.Since(t).Seconds()
	return nil
}

// probeNetemu measures how much later than the configured latency the
// emulated network delivers: the part of an in-process hop that is the
// emulator's own.
func probeNetemu(m values) {
	const latency = 500 * time.Microsecond
	net := netemu.New(netemu.Config{Latency: func(_, _ netemu.NodeID) time.Duration { return latency }})
	defer net.Close()
	recv := make(chan time.Time, 1)
	src := net.Register(netemu.NodeID{DC: 0}, nil)
	dst := net.Register(netemu.NodeID{DC: 0, Partition: 1}, func(netemu.NodeID, any) { recv <- time.Now() })
	d := oneWay(1000, func() { src.Send(dst.ID(), msg.Heartbeat{}) }, recv)
	m["netemu.overhead_us"] = d[len(d)/2] - float64(latency)/1e3
	m["netemu.overhead_p99_us"] = d[len(d)*99/100] - float64(latency)/1e3
}

// probeSmall measures the leaf helpers every GET and PUT calls.
func probeSmall(m values) {
	const n = 4096
	a := vclock.VC{deployedEpoch + 1, deployedEpoch + 2, deployedEpoch + 3}
	b := vclock.VC{deployedEpoch + 2, deployedEpoch + 2, deployedEpoch + 4}
	m["vclock.lesseq_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if a.LessEq(b) {
				probeSink++
			}
		}
	})
	c := a.Clone()
	m["vclock.max_inplace_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			c.MaxInPlace(b)
		}
	})
	clk := clock.NewHLC(0)
	m["clock.now_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			probeSink += int(clk.Now() & 1)
		}
	})
	slots := keyspace.DefaultMap(numPartitions)
	keys := keyspace.Build(numPartitions, 1024).AllKeys(1)
	m["keyspace.owner_of_ns"] = nsPerOp(len(keys), func() {
		for _, k := range keys {
			probeSink += slots.OwnerOf(k)
		}
	})
	m["loadgen.timer_ns"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			t := time.Now()
			probeSink += int(time.Since(t))
		}
	})
}

// probeGenerator measures what the load generator itself costs per
// operation: drawing the next operation of the workload's stream.
func probeGenerator(m values, spec *workloadSpec, seed uint64) {
	table := keyspace.Build(numPartitions, keysPerPartition)
	zipf := workload.NewZipf(keysPerPartition, zipfExponent)
	st := newStream(spec, table, zipf, seed, 0)
	const n = 4096
	m["loadgen.gen_ns_per_op"] = nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			probeSink += len(st.next().Keys)
		}
	})
}
