package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 2}, 2},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its input: %v", in)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9.5 beyond the median
		{20, 50, true},
		{99, 50, true}, // 9.9 beyond p90
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestDurHist(t *testing.T) {
	// Every bucket's value lies within 1/32 of everything it holds.
	for ns := int64(1); ns < 1<<40; ns = ns*3/2 + 1 {
		v := bucketValue(bucketOf(ns))
		if math.Abs(v-float64(ns)) > float64(ns)/32 {
			t.Fatalf("%d ns lands in a bucket valued %v", ns, v)
		}
	}

	var h durHist
	for i := 1; i <= 20; i++ {
		h.observe(time.Duration(i))
	}
	if got := h.quantile(0.5); got != 10e-9 {
		t.Errorf("median of 1..20 ns = %v s, want 10 ns", got)
	}
	if got := h.quantile(0.9); got != 0 {
		t.Errorf("p90 of 20 samples = %v, want 0: only 2 samples lie beyond it", got)
	}
	var o durHist
	o.observe(time.Millisecond)
	h.merge(&o)
	if h.n != 21 || h.sum != time.Millisecond+210 {
		t.Errorf("merged histogram holds n=%d sum=%v", h.n, h.sum)
	}
}
