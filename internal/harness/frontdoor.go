package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	occ "repro"
	"repro/internal/client"
	"repro/internal/kvserver"
)

// FrontDoor measures the serving path itself — the same store behind three
// client shapes:
//
//   - "binary-sync": one synchronous round trip at a time on one
//     connection, the baseline the other two are read against,
//   - "binary-pipelined": one connection, one session, a window of
//     in-flight requests, and
//   - "binary-pooled": a small connection pool multiplexing many sessions,
//     the production shape.
//
// Each row reports completed operations, throughput, and client-observed
// p50/p99 latency over the same measurement window, on a 1:1 GET:PUT mix.
func FrontDoor(ctx context.Context, sc Scale, dur time.Duration) (*Table, error) {
	if dur <= 0 {
		dur = sc.Measure
	}
	store, err := occ.Open(occ.Config{
		DataCenters: 2, Partitions: sc.Partitions, Engine: occ.POCC,
		Latency: occ.UniformProfile(20*time.Microsecond, 500*time.Microsecond),
		Seed:    sc.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("frontdoor: %w", err)
	}
	defer store.Close()
	srv, err := kvserver.Serve(store, "127.0.0.1", 0)
	if err != nil {
		return nil, fmt.Errorf("frontdoor: %w", err)
	}
	defer srv.Close()
	addr := srv.Addr(0)

	t := &Table{
		ID:    "frontdoor",
		Title: "Serving-path comparison (1:1 GET:PUT, one data center)",
		Columns: []string{"mode", "conns", "sessions", "window", "ops",
			"kops_per_sec", "p50_us", "p99_us"},
	}

	value := make([]byte, sc.ValueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	sync1, err := frontDoorBinary(ctx, addr, value, dur, 1, 1, 1)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, sync1)
	piped, err := frontDoorBinary(ctx, addr, value, dur, 1, 1, 256)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, piped)
	pooled, err := frontDoorBinary(ctx, addr, value, dur, 4, 16, 64)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, pooled)
	return t, nil
}

// frontDoorBinary drives the binary front door with `sessions` sessions
// multiplexed over `conns` connections, each keeping `window` requests in
// flight.
func frontDoorBinary(ctx context.Context, addr string, value []byte, dur time.Duration, conns, sessions, window int) ([]string, error) {
	pool, err := client.DialPool(client.PoolConfig{Addr: addr, Conns: conns})
	if err != nil {
		return nil, fmt.Errorf("frontdoor binary: %w", err)
	}
	defer pool.Close()

	mode := "binary-sync"
	if window > 1 && conns == 1 {
		mode = "binary-pipelined"
	} else if window > 1 {
		mode = "binary-pooled"
	}

	type result struct {
		lats []time.Duration
		err  error
	}
	results := make(chan result, sessions)
	deadline := time.Now().Add(dur)
	for s := 0; s < sessions; s++ {
		go func(id int) {
			sess := pool.Session()
			type inflight struct {
				start time.Time
				call  *client.Call
			}
			var lats []time.Duration
			pending := make([]inflight, 0, window)
			drainOne := func() error {
				in := pending[0]
				pending = pending[1:]
				if _, err := in.call.Wait(); err != nil {
					return err
				}
				lats = append(lats, time.Since(in.start))
				return nil
			}
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				key := fmt.Sprintf("fd%d-%d", id, i%1024)
				var call *client.Call
				start := time.Now()
				if i%2 == 0 {
					call = sess.PutAsync(key, value)
				} else {
					call = sess.GetAsync(key)
				}
				pending = append(pending, inflight{start, call})
				for len(pending) >= window {
					if err := drainOne(); err != nil {
						results <- result{nil, err}
						return
					}
				}
			}
			for len(pending) > 0 {
				if err := drainOne(); err != nil {
					results <- result{nil, err}
					return
				}
			}
			results <- result{lats, nil}
		}(s)
	}
	var lats []time.Duration
	for s := 0; s < sessions; s++ {
		r := <-results
		if r.err != nil {
			return nil, fmt.Errorf("frontdoor %s: %w", mode, r.err)
		}
		lats = append(lats, r.lats...)
	}
	return frontDoorRow(mode, conns, sessions, window, lats, dur), nil
}

func frontDoorRow(mode string, conns, sessions, window int, lats []time.Duration, dur time.Duration) []string {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	return []string{
		mode,
		fmt.Sprintf("%d", conns),
		fmt.Sprintf("%d", sessions),
		fmt.Sprintf("%d", window),
		fmt.Sprintf("%d", len(lats)),
		fmt.Sprintf("%.1f", float64(len(lats))/dur.Seconds()/1000),
		fmt.Sprintf("%.1f", float64(pct(0.50))/float64(time.Microsecond)),
		fmt.Sprintf("%.1f", float64(pct(0.99))/float64(time.Microsecond)),
	}
}
