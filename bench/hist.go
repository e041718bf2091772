package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram over nanosecond values: 32 linear
// sub-buckets per power of two, so a bucket is at most 1/32 of its lower
// bound wide and a reported percentile is within 1.6 % of the true sample
// (metrics.Latency's power-of-two buckets are off by up to 2x, which is why
// the benchmark does not use them). Values of 2^histMaxExp ns (18 minutes)
// and more share the last bucket. Not safe for concurrent use: every client
// goroutine owns its histograms and the runner merges them.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histMaxExp  = 40
	histBuckets = (histMaxExp-histSubBits)*histSub + histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxExp {
		return histBuckets - 1
	}
	e := bits.Len64(v) - 1
	return (e-histSubBits+1)*histSub + int((v>>(e-histSubBits))&(histSub-1))
}

// histBounds returns the lower bound and width of bucket i.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	e := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	return (histSub + sub) << (e - histSubBits), 1 << (e - histSubBits)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the rank. It returns 0 for an empty
// histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBounds(i)
			v := float64(lo) + float64(width)*(rank-seen)/float64(c)
			return math.Min(v, float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// us returns the q-quantile in microseconds.
func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
