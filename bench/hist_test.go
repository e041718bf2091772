package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// exact returns the q-quantile of samples by sorting them.
func exact(samples []int64, q float64) float64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() int64{
		"uniform":     func() int64 { return 1000 + rng.Int64N(9_000_000) },
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 250_000) },
		"lognormal":   func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 11)) },
		"bimodal": func() int64 {
			if rng.IntN(10) == 0 {
				return 2_000_000 + rng.Int64N(500_000)
			}
			return 500 + rng.Int64N(200)
		},
	}
	for name, draw := range dists {
		var h hist
		samples := make([]int64, 200_000)
		for i := range samples {
			samples[i] = draw()
			h.record(samples[i])
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			want, got := exact(samples, q), h.quantile(q)
			if err := math.Abs(got-want) / want; err > 0.02 {
				t.Errorf("%s p%v: histogram %v, exact %v, error %.2f%% > 2%%", name, q*100, got, want, 100*err)
			}
		}
		if h.n != uint64(len(samples)) {
			t.Errorf("%s: n = %d, want %d", name, h.n, len(samples))
		}
	}
}

func TestHistBucketsCoverTheRange(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, 1<<40 - 1, 1 << 40, 1 << 62} {
		i := histIndex(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d: not monotone within [0,%d)", v, i, histBuckets)
		}
		prev = i
		if v < 1<<histMaxExp {
			if lo, w := histBounds(i); v < lo || v >= lo+w {
				t.Errorf("value %d is outside its bucket [%d,%d)", v, lo, lo+w)
			}
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both hist
	for v := int64(1); v <= 1000; v++ {
		if v%2 == 0 {
			a.record(v * 1000)
		} else {
			b.record(v * 1000)
		}
		both.record(v * 1000)
	}
	a.merge(&b)
	if a.n != both.n || a.max != both.max || a.quantile(0.5) != both.quantile(0.5) {
		t.Errorf("merged histogram differs: n %d/%d max %d/%d p50 %v/%v", a.n, both.n, a.max, both.max, a.quantile(0.5), both.quantile(0.5))
	}
}
