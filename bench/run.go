package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/workload"
)

// The runner publishes where the run stands; an operation counts when it
// starts and completes inside the window.
const (
	phaseWarmup int32 = iota
	phaseWindow
	phaseStop
)

// clientStats is what one closed-loop client measured inside the window.
type clientStats struct {
	attempted, failed uint64
	get, put, tx      hist
	ownReads, ownBad  uint64
	firstErr          error
	spans             []span
}

// proberStats is what the visibility prober measured inside the window.
type proberStats struct {
	vis               hist
	attempted, failed uint64
	firstErr          error
	keys              []string
	spans             []span
	polls             uint64
	pollTime          time.Duration
}

// edge is what the runner reads at either end of the window.
type edge struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

// window is the outcome of one measured window.
type window struct {
	begin, end        edge
	get, put, tx, vis hist   // summed over clients; vis is the prober's
	ok                uint64 // client operations that succeeded
	attempted, failed uint64 // clients and prober
	ownReads, ownBad  uint64
	firstErr          error
	gcCycles          uint32
	gcPause           time.Duration
	heapInuse         uint64 // largest sample, bytes
	lagMax            time.Duration
	before, after     counters
	spans             []span
	pollPeriod        time.Duration // mean time between two probe polls
}

// elapsed is the length of the window.
func (w *window) elapsed() time.Duration { return w.end.at.Sub(w.begin.at) }

// runner drives one deployment through warm-up and measured windows.
type runner struct {
	d      *deployment
	seed   uint64
	traced bool
	phase  atomic.Int32
	start  time.Time
	// streams outlive a window: a client's own-key sequence must continue
	// where the store's state left off.
	streams   []*stream
	probeKeys []string
	probeSeq  uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readEdge(ms *runtime.MemStats) edge {
	runtime.ReadMemStats(ms)
	return edge{at: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs}
}

// stopTimeout is how long the clients and the prober get to finish their
// last operation once the window has closed. The prober gives up after
// convergeTimeout; an operation still blocked after that (POCC blocks for
// as long as a dependency is missing) will never return, and the run fails
// instead of hanging.
const stopTimeout = 2 * convergeTimeout

// measure runs the closed loop: numClients goroutines with zero think time
// and, on a front-door deployment, the visibility prober; warm-up, then one
// window. It returns after every goroutine it started has stopped.
func (r *runner) measure(warmup, length time.Duration) (*window, error) {
	d := r.d
	if r.streams == nil {
		for i := 0; i < numClients; i++ {
			r.streams = append(r.streams, newStream(d.spec, d.table, d.zipf, r.seed, i))
		}
	}
	clients := make([]clientStats, numClients)
	var prober proberStats
	r.phase.Store(phaseWarmup)
	r.start = time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.clientLoop(i, d.sessions[i], &clients[i])
		}(i)
	}
	if d.probe != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.probeLoop(&prober)
		}()
	}

	w := &window{}
	time.Sleep(warmup)
	var ms runtime.MemStats
	w.before = d.counters()
	w.begin = readEdge(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	r.phase.Store(phaseWindow)
	// What only has a current value is sampled once a second.
	for closes := w.begin.at.Add(length); ; {
		left := time.Until(closes)
		time.Sleep(min(left, time.Second))
		if lag := d.replicationLag(); lag > w.lagMax {
			w.lagMax = lag
		}
		if left <= time.Second {
			break
		}
		runtime.ReadMemStats(&ms)
		w.heapInuse = max(w.heapInuse, ms.HeapInuse)
	}
	r.phase.Store(phaseStop)
	w.end = readEdge(&ms)
	w.heapInuse = max(w.heapInuse, ms.HeapInuse)
	w.gcCycles = ms.NumGC - gc0
	w.gcPause = time.Duration(ms.PauseTotalNs - pause0)
	w.after = d.counters()
	stopped := make(chan struct{})
	go func() {
		wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(stopTimeout):
		return nil, fmt.Errorf("clients still blocked in an operation %v after the window closed", stopTimeout)
	}

	for i := range clients {
		c := &clients[i]
		w.get.merge(&c.get)
		w.put.merge(&c.put)
		w.tx.merge(&c.tx)
		w.ok += c.attempted - c.failed
		w.attempted += c.attempted
		w.failed += c.failed
		w.ownReads += c.ownReads
		w.ownBad += c.ownBad
		if w.firstErr == nil {
			w.firstErr = c.firstErr
		}
		w.spans = append(w.spans, c.spans...)
	}
	w.vis = prober.vis
	w.attempted += prober.attempted
	w.failed += prober.failed
	if w.firstErr == nil {
		w.firstErr = prober.firstErr
	}
	r.probeKeys = append(r.probeKeys, prober.keys...)
	w.spans = append(w.spans, prober.spans...)
	if prober.polls > 0 {
		w.pollPeriod = prober.pollTime / time.Duration(prober.polls)
	}
	return w, nil
}

// clientLoop is one closed-loop client: generate, call, check, record.
func (r *runner) clientLoop(i int, sess workload.Session, cs *clientStats) {
	spec := r.d.spec
	st := r.streams[i]
	tr := r.newSpanBuf(i)
	getN := 0
	for n := uint64(0); ; n++ {
		began := r.phase.Load()
		if began == phaseStop {
			break
		}
		root := tr.now()
		o := st.next()
		timed := r.traced || o.Kind != workload.OpGet
		if o.Kind == workload.OpGet {
			getN++
			timed = timed || getN%spec.timeGetEvery == 0
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		var err error
		var val []byte
		switch o.Kind {
		case workload.OpGet:
			val, err = sess.Get(o.Keys[0])
		case workload.OpPut:
			err = sess.Put(o.Keys[0], o.Value)
		case workload.OpROTx:
			_, err = sess.ROTx(o.Keys)
		}
		var lat time.Duration
		if timed {
			lat = time.Since(t0)
		}
		if o.own && o.Kind == workload.OpGet && err == nil {
			// Read-your-writes is checked in warm-up too: a stale read is
			// wrong whenever it happens.
			cs.ownReads++
			if !bytes.Equal(val, st.ownLast) {
				cs.ownBad++
				if cs.firstErr == nil {
					cs.firstErr = fmt.Errorf("client %d: GET %s returned %x, last acked PUT was %x", i, o.Keys[0], val, st.ownLast)
				}
			}
		}
		if began != phaseWindow || r.phase.Load() != phaseWindow {
			continue
		}
		cs.attempted++
		if err != nil {
			cs.failed++
			if cs.firstErr == nil {
				cs.firstErr = fmt.Errorf("client %d: operation %d: %w", i, o.Kind, err)
			}
			continue
		}
		switch {
		case !timed:
		case o.Kind == workload.OpGet:
			cs.get.record(int64(lat))
		case o.Kind == workload.OpPut:
			cs.put.record(int64(lat))
		default:
			cs.tx.record(int64(lat))
		}
		if r.traced && n%uint64(spec.traceEvery) == 0 {
			tr.op(n, o.Kind, root, r.since(t0), r.since(t0)+int64(lat))
		}
	}
	cs.spans = tr.spans
}

func (r *runner) since(t time.Time) int64 { return int64(t.Sub(r.start)) }

// probeLoop measures ack->visible: about 100 times a second it PUTs a fresh
// key at DC 0 and polls DC 2 from inside the process until the key reads.
// The period is jittered from the seed, because a fixed 10 ms tick aliases
// with the 1 ms replication flush timer.
func (r *runner) probeLoop(ps *proberStats) {
	d := r.d
	rng := rand.New(rand.NewPCG(r.seed, 1<<32))
	value := []byte("probe000")
	tr := r.newSpanBuf(numClients)
	far := numDCs - 1
	for {
		time.Sleep(8500*time.Microsecond + time.Duration(rng.Int64N(int64(3*time.Millisecond))))
		began := r.phase.Load()
		if began == phaseStop {
			break
		}
		r.probeSeq++
		n := r.probeSeq
		key := "vis-" + strconv.FormatUint(n, 10)
		root := tr.now()
		err := d.probe.Put(key, value)
		acked := time.Now()
		var lat time.Duration
		polls := uint64(0)
		for err == nil {
			var v []byte
			v, err = d.readAt(far, key)
			lat = time.Since(acked)
			polls++
			if v != nil || err != nil {
				break
			}
			if lat > convergeTimeout {
				err = fmt.Errorf("%s not visible at DC %d after %v", key, far, lat)
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		ps.keys = append(ps.keys, key)
		if began != phaseWindow || r.phase.Load() != phaseWindow {
			continue
		}
		ps.attempted++
		if err != nil {
			ps.failed++
			if ps.firstErr == nil {
				ps.firstErr = fmt.Errorf("probe: %w", err)
			}
			continue
		}
		ps.vis.record(int64(lat))
		if polls > 1 {
			ps.polls += polls - 1
			ps.pollTime += lat
		}
		tr.probe(n, root, r.since(acked), r.since(acked)+int64(lat))
	}
	ps.spans = tr.spans
}
