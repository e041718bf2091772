package main

import "time"

// Deployment and load model shared by every workload (see README.md).
const (
	numDCs           = 3
	numPartitions    = 4
	keysPerPartition = 4096
	zipfExponent     = 0.99
	numClients       = 24
	heartbeat        = time.Millisecond
	gcInterval       = 100 * time.Millisecond
	latencyScale     = 0.1
	jitterFrac       = 0.1
	defaultSeed      = 42
	warmup           = 3 * time.Second
	defaultMeasure   = 30 * time.Second
	// setupRounds is how many times a run builds its deployment; setup_s is
	// the median, which is what makes it steady enough to bound.
	setupRounds = 9
)

// workloadSpec is one traffic mix on one deployment shape.
type workloadSpec struct {
	name string
	// frontDoor selects the full stack (TCP replication, durable engine,
	// kvserver, client.Pool) over the in-process emulated deployment.
	frontDoor bool
	// rotx selects the RO-TX/PUT alternation of the paper's §V-C; otherwise
	// the mix is getsPerPut GETs then one PUT.
	rotx       bool
	getsPerPut int
	valueSize  int
	// ownEvery redirects every n-th GET/PUT to the client's own key for the
	// read-your-writes gate (prime, so it lands on every position of the
	// GET/PUT cycle); 0 disables.
	ownEvery int
	// timeGetEvery times one GET in n (a clock pair costs a tenth of an
	// in-process GET); PUTs and RO-TXs are always timed.
	timeGetEvery int
	// traceEvery keeps the spans of one operation in n in the traced run.
	traceEvery int
}

// README.md and BENCHMARK.json say why each workload exists.
var workloads = []*workloadSpec{
	{
		name:       "getput_inproc",
		getsPerPut: 32, valueSize: 8,
		timeGetEvery: 16, traceEvery: 512,
	},
	{
		name: "rotx_inproc",
		rotx: true, valueSize: 8,
		timeGetEvery: 1, traceEvery: 8,
	},
	{
		name:      "fd_read",
		frontDoor: true, getsPerPut: 8, valueSize: 8,
		ownEvery:     17,
		timeGetEvery: 1, traceEvery: 16,
	},
	{
		name:      "fd_write",
		frontDoor: true, getsPerPut: 1, valueSize: 64,
		ownEvery:     17,
		timeGetEvery: 1, traceEvery: 16,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
