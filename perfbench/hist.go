package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram: each power of two of
// nanoseconds is split into 128 linear buckets, so a bucket is at most
// 0.8% wide relative to its values. Its size is fixed, so the clients'
// memory does not grow with the operations they record.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	histBuckets = 40 * subCount // up to 2^39 ns, about nine minutes
)

func bucketOf(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	i := (shift+1)*subCount + int(v>>shift) - subCount
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketRange returns bucket i's lowest value and width.
func bucketRange(i int) (low, width int64) {
	if i < subCount {
		return int64(i), 1
	}
	shift := i/subCount - 1
	return int64(i%subCount+subCount) << shift, 1 << shift
}

func (h *hist) add(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile, interpolated linearly
// within its bucket.
func (h *hist) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 || cum+int64(c) < rank {
			cum += int64(c)
			continue
		}
		low, width := bucketRange(i)
		f := (float64(rank-cum) - 0.5) / float64(c)
		return time.Duration(float64(low) + f*float64(width))
	}
	return 0
}
