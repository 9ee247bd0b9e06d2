// Package sched implements the scheduling policies the paper evaluates
// Gurita against (§V): per-flow fair sharing (PFS, the baseline), Baraat's
// FIFO with limited multiplexing, Stream's decentralized TBS-threshold
// scheduling, and Aalo's centralized discretized coflow-aware scheduling
// (D-CLAS). Gurita itself lives in internal/core.
//
// All policies implement sim.Scheduler: they only assign priority queues;
// the shared data plane (internal/netmod) turns queues into rates, exactly
// as the paper runs every scheme over the same TCP-like rate limiter and
// switch priority queues.
package sched

import "fmt"

// DefaultBaseThreshold is the first demotion threshold: 10 MB, the starting
// queue threshold recommended by Aalo and adopted by the paper's
// exponentially-spaced thresholds.
const DefaultBaseThreshold = 10e6

// DefaultThresholdFactor is the exponential spacing factor E.
const DefaultThresholdFactor = 10

// ExpThresholds returns the queues-1 exponentially spaced demotion
// thresholds T_k = base·factor^k used to map accumulated bytes to priority
// queues ([5]'s recommendation, adopted by the paper).
func ExpThresholds(base, factor float64, queues int) ([]float64, error) {
	if queues < 1 {
		return nil, fmt.Errorf("sched: need at least one queue, got %d", queues)
	}
	if base <= 0 || factor <= 1 {
		return nil, fmt.Errorf("sched: thresholds need base > 0 and factor > 1, got %v, %v", base, factor)
	}
	out := make([]float64, queues-1)
	t := base
	for k := range out {
		out[k] = t
		t *= factor
	}
	return out, nil
}

// QueueFor maps an accumulated byte count to a priority queue given sorted
// thresholds: bytes ≤ thresholds[k] lands in queue k; beyond the last
// threshold lands in the lowest queue len(thresholds).
//
// Thresholds are few (queues-1 ≤ 7), so a linear scan beats a binary
// search. The scan stops at the first k with thresholds[k] >= bytes — the
// same predicate sort.SearchFloat64s bisects on, so the two agree on every
// input, NaN (which lands in the lowest queue) included.
func QueueFor(bytes float64, thresholds []float64) int {
	k := 0
	for k < len(thresholds) && !(thresholds[k] >= bytes) {
		k++
	}
	return k
}
