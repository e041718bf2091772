// Package workload implements the paper's workload model: keys drawn from a
// zipf(0.99) distribution within each partition, closed-loop clients with
// think time, GET:PUT mixes (Fig. 1/2) and RO-TX+PUT mixes (Fig. 3).
package workload

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. Unlike the standard library's rand.Zipf, it supports
// exponents s <= 1 — the paper uses s = 0.99. Sampling uses a precomputed
// cumulative table with binary search; a Zipf is immutable after
// construction and safe for concurrent use with per-caller rand sources.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s. It panics if n < 1
// or s < 0 (programmer error).
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic("workload: NewZipf needs n >= 1")
	}
	if s < 0 {
		panic("workload: NewZipf needs s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	// Normalize so the last entry is exactly 1.
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &Zipf{cdf: cdf}
}

// Sample draws a rank using r.
func (z *Zipf) Sample(r *rand.Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
