package workload

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/keyspace"
)

func TestZipfBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := 1 + int(nRaw%1000)
		z := NewZipf(n, 0.99)
		r := rand.New(rand.NewPCG(seed, 1))
		for i := 0; i < 50; i++ {
			s := z.Sample(r)
			if s < 0 || s >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 0.99)
	r := rand.New(rand.NewPCG(7, 7))
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Sample(r)]++
	}
	// Rank 0 must be far hotter than rank 100; with s=0.99 the ratio of
	// probabilities is ~100^0.99 ≈ 95.
	if counts[0] < 20*counts[100] {
		t.Fatalf("zipf not skewed enough: rank0=%d rank100=%d", counts[0], counts[100])
	}
	// The head must not absorb everything: zipf(0.99) over 1000 ranks gives
	// rank 0 about 13% of the mass.
	frac := float64(counts[0]) / draws
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("rank-0 mass = %v, want ~0.13", frac)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	r := rand.New(rand.NewPCG(3, 9))
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	for rank, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("s=0 must be uniform; rank %d got %d", rank, c)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) must panic", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}

func TestGetPutMixCycle(t *testing.T) {
	tbl := keyspace.Build(8, 20)
	z := NewZipf(20, 0.99)
	g := NewGetPutMix(tbl, z, 4, 8)
	r := rand.New(rand.NewPCG(1, 1))
	for cycle := 0; cycle < 10; cycle++ {
		partitions := map[int]bool{}
		for i := 0; i < 4; i++ {
			op := g.Next(r)
			if op.Kind != OpGet {
				t.Fatalf("op %d of cycle %d: kind = %v, want GET", i, cycle, op.Kind)
			}
			p := keyspace.PartitionOf(op.Keys[0], 8)
			if partitions[p] {
				t.Fatalf("GET round repeated partition %d", p)
			}
			partitions[p] = true
		}
		op := g.Next(r)
		if op.Kind != OpPut {
			t.Fatalf("cycle %d: want PUT after 4 GETs, got %v", cycle, op.Kind)
		}
		if len(op.Value) != 8 {
			t.Fatalf("PUT value size = %d", len(op.Value))
		}
	}
}

func TestGetPutMixRatioBeyondPartitions(t *testing.T) {
	tbl := keyspace.Build(2, 10)
	g := NewGetPutMix(tbl, NewZipf(10, 0.99), 5, 8)
	r := rand.New(rand.NewPCG(2, 2))
	gets, puts := 0, 0
	for i := 0; i < 60; i++ {
		switch g.Next(r).Kind {
		case OpGet:
			gets++
		case OpPut:
			puts++
		}
	}
	if gets != 50 || puts != 10 {
		t.Fatalf("gets=%d puts=%d, want 50/10", gets, puts)
	}
}

func TestROTxMixAlternates(t *testing.T) {
	tbl := keyspace.Build(8, 20)
	g := NewROTxMix(tbl, NewZipf(20, 0.99), 4, 8)
	r := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 10; i++ {
		tx := g.Next(r)
		if tx.Kind != OpROTx {
			t.Fatalf("want ROTx, got %v", tx.Kind)
		}
		if len(tx.Keys) != 4 {
			t.Fatalf("tx reads %d keys, want 4", len(tx.Keys))
		}
		seen := map[int]bool{}
		for _, k := range tx.Keys {
			p := keyspace.PartitionOf(k, 8)
			if seen[p] {
				t.Fatal("RO-TX must touch distinct partitions")
			}
			seen[p] = true
		}
		put := g.Next(r)
		if put.Kind != OpPut {
			t.Fatalf("want PUT after tx, got %v", put.Kind)
		}
	}
}

func TestROTxMixClamped(t *testing.T) {
	tbl := keyspace.Build(3, 10)
	g := NewROTxMix(tbl, NewZipf(10, 0.99), 99, 8)
	r := rand.New(rand.NewPCG(6, 6))
	if op := g.Next(r); len(op.Keys) != 3 {
		t.Fatalf("tx keys = %d, want clamped to 3", len(op.Keys))
	}
}

// fakeSession counts operations and injects a fixed service latency.
type fakeSession struct {
	mu   sync.Mutex
	gets int
	puts int
	txs  int
	err  error
}

func (f *fakeSession) Get(string) ([]byte, error) {
	f.mu.Lock()
	f.gets++
	f.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	return []byte("v"), f.err
}

func (f *fakeSession) Put(string, []byte) error {
	f.mu.Lock()
	f.puts++
	f.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	return f.err
}

func (f *fakeSession) ROTx(keys []string) ([][]byte, error) {
	f.mu.Lock()
	f.txs++
	f.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	return make([][]byte, len(keys)), f.err
}

func TestRunnerBasic(t *testing.T) {
	tbl := keyspace.Build(4, 10)
	z := NewZipf(10, 0.99)
	sess := &fakeSession{}
	res, err := Run(context.Background(), RunnerConfig{
		Clients:      4,
		NewSession:   func(int) Session { return sess },
		NewGenerator: func(int) Generator { return NewGetPutMix(tbl, z, 3, 8) },
		ThinkTime:    time.Millisecond,
		Warmup:       50 * time.Millisecond,
		Measure:      200 * time.Millisecond,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("runner recorded no operations")
	}
	if res.Gets == 0 || res.Puts == 0 {
		t.Fatalf("mix not exercised: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput must be positive")
	}
	// Closed loop: ops <= clients * window / (think + service).
	maxOps := uint64(4 * (250 * time.Millisecond) / (time.Millisecond))
	if res.Ops > maxOps {
		t.Fatalf("ops = %d exceeds closed-loop bound %d", res.Ops, maxOps)
	}
	if res.AllLatency.Count != res.Ops {
		t.Fatalf("latency count %d != ops %d", res.AllLatency.Count, res.Ops)
	}
}

func TestRunnerCountsErrors(t *testing.T) {
	tbl := keyspace.Build(2, 5)
	z := NewZipf(5, 0.99)
	sess := &fakeSession{err: errors.New("boom")}
	res, err := Run(context.Background(), RunnerConfig{
		Clients:      2,
		NewSession:   func(int) Session { return sess },
		NewGenerator: func(int) Generator { return NewGetPutMix(tbl, z, 1, 8) },
		Warmup:       10 * time.Millisecond,
		Measure:      50 * time.Millisecond,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("errors must be counted")
	}
	if res.Ops != 0 {
		t.Fatal("failed ops must not count as completed")
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := Run(context.Background(), RunnerConfig{}); err == nil {
		t.Fatal("empty config must be rejected")
	}
	if _, err := Run(context.Background(), RunnerConfig{Clients: 1}); err == nil {
		t.Fatal("missing factories must be rejected")
	}
}

func TestRunnerHonorsContextCancel(t *testing.T) {
	tbl := keyspace.Build(2, 5)
	z := NewZipf(5, 0.99)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, RunnerConfig{
		Clients:      2,
		NewSession:   func(int) Session { return &fakeSession{} },
		NewGenerator: func(int) Generator { return NewGetPutMix(tbl, z, 1, 8) },
		Warmup:       time.Second,
		Measure:      10 * time.Second,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled runner must return promptly")
	}
}
