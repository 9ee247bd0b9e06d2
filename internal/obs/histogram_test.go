package obs

import (
	"math"
	"testing"
)

// bucketOfLoop is the original bucket search, one Ldexp per step, kept as
// the oracle for bucketOf.
func bucketOfLoop(v float64) int {
	if !(v > 1) {
		return 0
	}
	for i := 1; i < histBuckets; i++ {
		if v <= math.Ldexp(1, i) {
			return i
		}
	}
	return histBuckets
}

func TestBucketOfMatchesLoop(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), -1, -1e300, 0.5, 1 - 1e-16, 1,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		3, 1000, 1e6, 1e7,
	}
	// Every power of two from 2^-2 to 2^(histBuckets+3), and one ulp
	// either side of it.
	for e := -2; e <= histBuckets+3; e++ {
		p := math.Ldexp(1, e)
		vals = append(vals, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)))
	}
	// Values above the last bound.
	for _, m := range []float64{1.5, 2, 1000, 1e30} {
		vals = append(vals, m*math.Ldexp(1, histBuckets))
	}
	for _, v := range vals {
		if got, want := bucketOf(v), bucketOfLoop(v); got != want {
			t.Errorf("bucketOf(%v) = %d, loop gives %d", v, got, want)
		}
	}
}

func TestHistogramObserveCounts(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []float64{math.NaN(), 1, 2, 3, 4, math.Inf(1), 1 << 30} {
		h.Observe(v)
	}
	want := [histBuckets + 1]int64{0: 2, 1: 1, 2: 2, histBuckets: 2}
	if h.h.buckets != want || h.h.count != 7 {
		t.Fatalf("buckets %v count %d, want %v count 7", h.h.buckets, h.h.count, want)
	}
}
