// Package metrics aggregates simulation results into the quantities the
// paper reports: average JCT/CCT, the seven job-size categories of Table 1,
// and the improvement factor
//
//	improvement = JCT(existing solution) / JCT(Gurita)
//
// (">1 means Gurita is faster"), plus plain-text table rendering for the
// figure-regeneration harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gurita/internal/sim"
)

// Category is one of the paper's seven job-size classes (Table 1).
type Category int

// Categories I–VII. Jobs below the 6 MB lower bound of category I are
// counted in category I (the trace generator does not produce them, but
// user workloads may).
const (
	CategoryI   Category = iota + 1 // 6 MB – 80 MB
	CategoryII                      // 81 MB – 800 MB
	CategoryIII                     // 801 MB – 8 GB
	CategoryIV                      // 8 GB – 10 GB
	CategoryV                       // 10 GB – 100 GB
	CategoryVI                      // 100 GB – 1 TB
	CategoryVII                     // > 1 TB
)

// NumCategories is the number of Table 1 classes.
const NumCategories = 7

// categoryUpper holds the inclusive upper bound of each category in bytes.
var categoryUpper = [NumCategories - 1]int64{
	80e6,   // I
	800e6,  // II
	8e9,    // III
	10e9,   // IV
	100e9,  // V
	1000e9, // VI
}

// CategoryOf places a job's total bytes into a Table 1 category.
func CategoryOf(totalBytes int64) Category {
	for i, ub := range categoryUpper {
		if totalBytes <= ub {
			return Category(i + 1)
		}
	}
	return CategoryVII
}

// String returns the roman-numeral label used in the paper's figures.
func (c Category) String() string {
	labels := [...]string{"I", "II", "III", "IV", "V", "VI", "VII"}
	if c < 1 || int(c) > len(labels) {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return labels[c-1]
}

// Bounds returns the category's byte range [lo, hi]; hi is math.MaxInt64
// for category VII.
func (c Category) Bounds() (lo, hi int64) {
	switch {
	case c == CategoryI:
		return 6e6, categoryUpper[0]
	case c > CategoryI && c < CategoryVII:
		return categoryUpper[c-2] + 1e6, categoryUpper[c-1]
	default:
		return categoryUpper[NumCategories-2] + 1e6, math.MaxInt64
	}
}

// Summary is descriptive statistics over a set of durations.
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	P95    float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary; the input is not modified.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	v := make([]float64, len(values))
	copy(v, values)
	sort.Float64s(v)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return Summary{
		Count:  len(v),
		Mean:   sum / float64(len(v)),
		Median: quantile(v, 0.5),
		P95:    quantile(v, 0.95),
		Min:    v[0],
		Max:    v[len(v)-1],
	}
}

// quantile returns the q-quantile of sorted values using linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// JCTs extracts the per-job completion times of a result.
func JCTs(r *sim.Result) []float64 {
	out := make([]float64, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		out = append(out, j.JCT)
	}
	return out
}

// ByCategory groups a result's JCTs into Table 1 categories.
func ByCategory(r *sim.Result) map[Category][]float64 {
	out := make(map[Category][]float64)
	for _, j := range r.Jobs {
		c := CategoryOf(j.TotalBytes)
		out[c] = append(out[c], j.JCT)
	}
	return out
}

// Improvement is the paper's performance improvement factor: the other
// scheme's average JCT over Gurita's (or generally: baseline over target).
// >1 means the target is faster. Returns 0 when either side is empty.
func Improvement(baseline, target *sim.Result) float64 {
	b := Summarize(JCTs(baseline)).Mean
	g := Summarize(JCTs(target)).Mean
	if g == 0 || b == 0 {
		return 0
	}
	return b / g
}

// PairedImprovement matches jobs by ID across two runs of the identical
// workload and returns the mean of per-job JCT ratios
// JCT_baseline/JCT_target. Unlike Improvement (a ratio of means, which the
// largest jobs dominate), the paired mean weights every job equally, so it
// reflects what the typical job experiences — the paper's small-job-heavy
// trace makes its aggregate numbers behave this way.
func PairedImprovement(baseline, target *sim.Result) float64 {
	base := make(map[int64]float64, len(baseline.Jobs))
	for _, j := range baseline.Jobs {
		base[int64(j.JobID)] = j.JCT
	}
	sum, n := 0.0, 0
	for _, j := range target.Jobs {
		b, ok := base[int64(j.JobID)]
		if !ok || j.JCT <= 0 || b <= 0 {
			continue
		}
		sum += b / j.JCT
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ImprovementByCategory computes the per-category improvement factors
// (Figures 6 and 7). Categories with no jobs on either side are absent.
func ImprovementByCategory(baseline, target *sim.Result) map[Category]float64 {
	bs, ts := ByCategory(baseline), ByCategory(target)
	out := make(map[Category]float64)
	for c := CategoryI; c <= CategoryVII; c++ {
		b := Summarize(bs[c]).Mean
		g := Summarize(ts[c]).Mean
		if b > 0 && g > 0 {
			out[c] = b / g
		}
	}
	return out
}

// Table renders rows as a fixed-width text table. Every row must have
// len(header) cells.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
