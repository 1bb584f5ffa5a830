package main

import "math/bits"

// hist is a log-bucketed latency histogram over nanosecond values:
// 128 linear sub-buckets per power of two, so a bucket is at most
// 1/128 (0.78%) wide relative to its lower bound. Recording touches
// one counter and never allocates. Values below 256 ns are exact.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histBuckets covers every int64: the largest shift is 63-7.
	histBuckets = (64-histSubBits)*histSub + histSub
)

// bucketOf maps v to its bucket: shift*128 + (v >> shift), where shift
// leaves the top 8 bits of v (so the mantissa is in [128, 256)).
func bucketOf(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return shift*histSub + int(v>>uint(shift))
}

// bucketBounds returns the lower bound and width of bucket i.
func bucketBounds(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	m := i - shift*histSub
	return float64(uint64(m) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated
// linearly inside the bucket holding the rank, so two runs whose ranks
// fall in the same bucket still report different values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return lo + width
}
