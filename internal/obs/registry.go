package obs

import (
	"fmt"
	"math"
	"sort"
)

// Registry is the counters-and-histograms side of the subsystem: named
// monotone counters plus fixed-bucket histograms, merged into a flat
// map[string]int64 for export through metrics.ResultDoc. Everything is
// deterministic — counter values derive from the simulation trajectory,
// bucket bounds are fixed powers of two, and the merge iterates in sorted
// key order — so registries recorded by identical trials merge identically.
//
// A Registry is not a Sink: the engine feeds it directly (queue-depth
// samples, allocator statistics) rather than through the event stream,
// because aggregates want O(1) updates, not event materialization.
type Registry struct {
	counters map[string]int64
	hists    map[string]*histogram
}

// histBuckets is the shared bucket layout: upper bounds 1, 2, 4, …, 2^20,
// plus the overflow bucket. Power-of-two bounds cover queue depths,
// water-fill rounds, and dirty-set sizes with uniform relative error.
const histBuckets = 21

// histogram counts observations into power-of-two buckets; buckets[i]
// counts v <= 2^i, the last slot counts the overflow.
type histogram struct {
	buckets [histBuckets + 1]int64
	count   int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		hists:    make(map[string]*histogram),
	}
}

// Add increments the named counter by d.
func (r *Registry) Add(name string, d int64) { r.counters[name] += d }

// Histogram is a stable handle to one named histogram: hot paths resolve the
// name once at setup and observe through the handle, paying no map lookup
// per sample. The zero value is a valid no-op handle.
type Histogram struct{ h *histogram }

// Histogram returns a handle to the named histogram, creating it if absent.
func (r *Registry) Histogram(name string) Histogram {
	h := r.hists[name]
	if h == nil {
		h = &histogram{}
		r.hists[name] = h
	}
	return Histogram{h}
}

// Observe records one sample. Negative and NaN samples clamp into the first
// bucket (they cannot occur from the engine's own feeds; the clamp keeps the
// export total consistent regardless).
func (h Histogram) Observe(v float64) {
	if h.h == nil {
		return
	}
	h.h.count++
	h.h.buckets[bucketOf(v)]++
}

// bucketOf returns the bucket of one sample: 0 for v <= 1 (and NaN), the
// smallest i with v <= 2^i up to 2^(histBuckets-1), else the overflow slot
// histBuckets. One Frexp finds i: v = frac·2^exp with frac in [0.5, 1), so
// 2^(exp-1) <= v < 2^exp, and v is itself the bound 2^(exp-1) exactly when
// frac is 0.5.
func bucketOf(v float64) int {
	if !(v > 1) { // v <= 1, NaN, negative
		return 0
	}
	if math.IsInf(v, 1) {
		return histBuckets
	}
	frac, exp := math.Frexp(v)
	// Frexp returns exactly 0.5 for a power of two, the one case that sits
	// on a bound.
	if frac == 0.5 {
		exp--
	}
	return min(exp, histBuckets)
}

// Observe records one sample into the named histogram; see Histogram.Observe.
func (r *Registry) Observe(name string, v float64) { r.Histogram(name).Observe(v) }

// Merge flattens the registry into the destination map: counters under
// their own names, histograms Prometheus-style as cumulative bucket
// counters "<name>_le_<bound>" plus "<name>_le_inf" and "<name>_count".
// Empty buckets are omitted to keep exports compact. Iteration is over
// sorted names, so the destination's contents never depend on map order.
func (r *Registry) Merge(into map[string]int64) {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		into[n] += r.counters[n]
	}

	hnames := make([]string, 0, len(r.hists))
	for n := range r.hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := r.hists[n]
		cum := int64(0)
		for i := 0; i < histBuckets; i++ {
			cum += h.buckets[i]
			if h.buckets[i] != 0 {
				into[fmt.Sprintf("%s_le_%d", n, int64(math.Ldexp(1, i)))] += cum
			}
		}
		if h.buckets[histBuckets] != 0 {
			into[n+"_le_inf"] += h.count
		}
		into[n+"_count"] += h.count
	}
}
