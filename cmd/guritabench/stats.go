package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples is the second-largest value, not a
// percentile.
const minTail = 10

// tailLadder is the set of percentiles a distribution may be reported at.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// supports reports whether n samples leave at least minTail beyond
// percentile p.
func supports(n int64, p float64) bool {
	// The tolerance absorbs rounding in 100-p for percentiles like 99.9.
	return float64(n)*(100-p)/100 >= minTail-1e-9
}

// tailPercentile returns the highest percentile on tailLadder that n samples
// support, or false when they support none, not even the median.
func tailPercentile(n int64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if supports(n, p) {
			best, ok = p, true
		}
	}
	return best, ok
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minMax returns the smallest and largest of xs (NaN, NaN for none).
func minMax(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// durHist is a log-linear latency histogram over nanoseconds: exact below
// 32 ns, then 16 buckets per power of two (at most 1/32 relative error). It
// is a fixed-size value, so observe never allocates and a zero durHist is
// ready to use.
type durHist struct {
	counts [960]int64
	n      int64
	sum    time.Duration
}

func bucketOf(ns int64) int {
	if ns < 32 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 1
	return (e-3)*16 + int(ns>>(e-4)&15)
}

// bucketValue is the midpoint of bucket i, in nanoseconds.
func bucketValue(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	e := i/16 + 3
	low := int64(16+i%16) << (e - 4)
	return float64(low) + float64(int64(1)<<(e-4))/2
}

func (h *durHist) observe(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
	h.sum += d
}

func (h *durHist) merge(o *durHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank q-quantile in seconds, or 0 when the
// histogram holds too few samples to support percentile 100·q.
func (h *durHist) quantile(q float64) float64 {
	if !supports(h.n, q*100) {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketValue(i) / 1e9
		}
	}
	return 0
}
