package main

import (
	"math"
	"math/bits"
)

// hist is a log-bucket histogram of non-negative integer samples
// (nanoseconds everywhere in this benchmark): values below 32 get their own
// bucket, above that every power-of-two range is split into 32 equal
// buckets, so a quantile is off by at most 1/32 of its value at any scale.
// Recording is O(1) with no allocation, and histograms of different
// connections merge by addition. Not safe for concurrent use.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	histSub     = 32 // buckets per octave
	histSubBits = 5
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - histSubBits // ≥ 0
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histBounds returns the smallest value bucket i holds and how many
// consecutive values it covers.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << e), float64(uint64(1) << e)
}

func (h *hist) add(v uint64) { h.addN(v, 1) }

// addN records n samples of value v (one pipelined window acks n operations
// at once, all with the window's latency).
func (h *hist) addN(v, n uint64) {
	if n == 0 {
		return
	}
	h.counts[histIndex(v)] += n
	h.n += n
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

// quantile returns the q-quantile (0 ≤ q ≤ 1): the bucket holding the
// ceil(q·n)-th smallest sample, and within it the point the rank q·n falls
// on if the bucket's samples are spread evenly. Interpolating keeps the
// result continuous: two runs whose latencies differ by less than a bucket
// still read differently. An empty histogram reports 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBounds(i)
			return math.Min(lo+(rank-seen)/float64(c)*(width-1), float64(h.max))
		}
		seen += float64(c)
	}
	return float64(h.max)
}
