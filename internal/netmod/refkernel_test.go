package netmod

import (
	"math"

	"gurita/internal/fmath"
)

// refKernel is the water-fill kernel as it stood before the fused one-pass
// rounds, the uniform water level and the persistent per-tier link indexes,
// kept verbatim as the oracle the production kernel must match bit for bit
// (kernel_test.go). registerCounts rebuilds the fill's indexes from every
// flow's path on every solve, each round scans the touched links twice, and
// every live flow takes its own rate increment.
//
// It runs on an Allocator of its own, whose registries Register, Unregister
// and Update maintain as usual; the embedded Allocator supplies the slot
// maps, registries, residuals, snapshots and counters, and refKernel's own
// fields shadow the fill scratch the production kernel also keeps. The
// edits to the old code: the frozen flag moved from FlowDemand into the
// frozen map (the production kernel tracks liveness per work index), and
// Reallocate first sizes the per-slot scratch (sizeScratch), which the
// Allocator grew with its own per-slot arrays.
type refKernel struct {
	*Allocator
	frozen     map[*FlowDemand]bool
	count      []int32
	touched    []int32
	touchedIdx []int32
	linkFlows  [][]int32
	satBuf     []int32
	work       []*FlowDemand
	workN      int
	live       []int32
	livePos    []int32
}

func newRefKernel(a *Allocator) *refKernel {
	return &refKernel{Allocator: a, frozen: map[*FlowDemand]bool{}}
}

// sizeScratch sizes the kernel's per-slot scratch to the allocator's slots.
func (a *refKernel) sizeScratch() {
	for len(a.count) < len(a.linkRef) {
		a.count = append(a.count, 0)
		a.touchedIdx = append(a.touchedIdx, 0)
		a.linkFlows = append(a.linkFlows, nil)
	}
}

// Reallocate recomputes rates after deltas. Under SPQ it restores the link
// residuals snapshotted at the start of the lowest dirty tier and re-runs
// the water-fill for that tier and every one below it; higher tiers keep
// their rates. This is bit-identical to a from-scratch solve: a tier's
// water-fill depends only on its own flow set and on the residual capacity
// higher tiers left behind, and both are unchanged for tiers above the
// lowest delta (progressive filling itself is iteration-order independent,
// so re-solving a suffix of tiers replays exactly the arithmetic the batch
// path would perform). Under WRR every delta forces a full re-solve, because
// the demand-share weights couple all tiers. No-op when nothing is dirty.
func (a *refKernel) Reallocate() {
	a.sizeScratch()
	if a.dirtyMin >= a.queues {
		return
	}
	a.stReallocs++
	switch a.mode {
	case ModeSPQ:
		start := a.dirtyMin
		res := a.tierRes[start]
		for _, s := range a.used {
			a.residual[s] = res[s]
		}
		for q := start; q < a.queues; q++ {
			if q > start {
				snap := a.tierRes[q]
				for _, s := range a.used {
					snap[s] = a.residual[s]
				}
			}
			fl := a.byQueue[q]
			for _, f := range fl {
				f.Rate = 0
				a.frozen[f] = false
			}
			a.registerCounts(fl)
			a.waterfill(fl)
		}
	case ModeWRR:
		a.reallocateWRR()
	}
	a.dirtyMin = a.queues
}

// reallocateWRR implements the two-phase WRR emulation from the persistent
// registries: phase one gives each tier its guaranteed weight share of every
// link; phase two pools the leftovers and water-fills across all still-
// unsatisfied flows, making the discipline work conserving like a real WRR
// scheduler.
func (a *refKernel) reallocateWRR() {
	for _, s := range a.used {
		a.residual[s] = a.linkCap(a.slotLink[s])
	}
	total := 0.0
	for q := range a.byQueue {
		for _, f := range a.byQueue[q] {
			f.Rate = 0
			a.frozen[f] = false
		}
		a.wrrShares[q] = float64(len(a.byQueue[q]))
		total += a.wrrShares[q]
	}
	if total > 0 {
		for q := range a.wrrShares {
			a.wrrShares[q] /= total
		}
	}
	weights := starvationWeightsInto(a.wrrWeights, a.wrrShares, a.eta)

	// Phase 1: per-tier guaranteed share. We shrink each touched link's
	// residual to the tier's slice, run the water-fill, then return what the
	// tier did not consume to the common pool.
	for _, s := range a.used {
		a.pool[s] = a.residual[s]
		a.residual[s] = 0
	}
	for q := 0; q < a.queues; q++ {
		if len(a.byQueue[q]) == 0 {
			continue
		}
		for _, s := range a.used {
			a.residual[s] = a.pool[s] * weights[q]
		}
		a.registerCounts(a.byQueue[q])
		a.waterfill(a.byQueue[q])
		for _, s := range a.used {
			// Whatever the tier left of its slice returns to the pool as
			// "unguaranteed" capacity, shrinking the pool by what was used.
			// The conversion rounds the product, so no platform fuses it.
			a.pool[s] -= float64(a.pool[s]*weights[q]) - a.residual[s]
			a.residual[s] = 0
		}
	}

	// Phase 2: spill leftover capacity to every flow not yet at its cap.
	for _, s := range a.used {
		a.residual[s] = a.pool[s]
	}
	spill := a.spill[:0]
	for q := 0; q < a.queues; q++ {
		for _, f := range a.byQueue[q] {
			if f.MaxRate > 0 && fmath.AtLeast(f.Rate, f.MaxRate, epsRate) {
				continue
			}
			a.frozen[f] = false
			spill = append(spill, f)
		}
	}
	a.registerCounts(spill)
	a.waterfill(spill)
	for i := range spill {
		spill[i] = nil
	}
	a.spill = spill[:0]
}

// registerCounts builds the water-fill's working indexes in one pass over
// fl: the per-slot unfrozen crossing counts, the compacted touched-slot
// list (with per-slot positions so freezes can swap-remove), the per-slot
// flow lists the freeze sweep walks when a link saturates, and the stable
// work/live arrays the rounds iterate. Link lists hold int32 work indices,
// not pointers, so resetting them never touches the GC.
func (a *refKernel) registerCounts(fl []*FlowDemand) {
	for _, s := range a.used {
		a.count[s] = 0
	}
	work := a.work[:0]
	live := a.live[:0]
	touched := a.touched[:0]
	for _, f := range fl {
		if a.frozen[f] {
			continue
		}
		j := int32(len(work))
		work = append(work, f)
		live = append(live, j)
		if int(j) < len(a.livePos) {
			a.livePos[j] = j
		} else {
			a.livePos = append(a.livePos, j)
		}
		for _, s := range a.slots(f) {
			if a.count[s] == 0 {
				a.touchedIdx[s] = int32(len(touched))
				touched = append(touched, s)
				a.linkFlows[s] = a.linkFlows[s][:0]
			}
			a.count[s]++
			a.linkFlows[s] = append(a.linkFlows[s], j)
		}
	}
	// Drop demand pointers only beyond this fill's length: consecutive
	// fills are similarly sized, so the per-call clearing cost is the size
	// delta, not the whole working set.
	n := len(work)
	if a.workN > n {
		tail := work[n:a.workN]
		for i := range tail {
			tail[i] = nil
		}
	}
	a.work, a.workN = work, n
	a.live = live
	a.touched = touched
}

// freeze retires work flow j from the current fill: its path counts drop,
// links left with no unfrozen crossing flow leave the touched list, and the
// flow leaves the live set. All removals are O(1) swap-removes.
func (a *refKernel) freeze(j int32) {
	f := a.work[j]
	a.frozen[f] = true
	for _, s := range a.slots(f) {
		a.count[s]--
		if a.count[s] == 0 {
			ti := a.touchedIdx[s]
			last := len(a.touched) - 1
			lastS := a.touched[last]
			a.touched[ti] = lastS
			a.touchedIdx[lastS] = ti
			a.touched = a.touched[:last]
		}
	}
	p := a.livePos[j]
	last := int32(len(a.live) - 1)
	lastJ := a.live[last]
	a.live[p] = lastJ
	a.livePos[lastJ] = p
	a.live = a.live[:last]
}

// waterfill runs progressive filling over the working set registerCounts
// just built against the current residual capacities: all unfrozen flows'
// rates rise together; a flow freezes when a link on its path saturates or
// it reaches MaxRate. Residuals are decremented in place.
//
// Every structural shortcut below is a bit-exact rewrite of the naive full
// scans — the iteration sets shrink, never the arithmetic:
//
//   - The round's water level d is a pure min, so scanning only touched
//     links (all of which have count > 0 by construction) and skipping the
//     cap scan when capLB proves no cap can bound d yields the same value.
//   - Rate increments and count decrements commute, so freeze order within
//     a round is free; a round's freeze set is determined by residuals
//     fixed before the sweep, so walking only the flows of links that
//     saturated this round (a.linkFlows) freezes exactly the flows the
//     full per-flow path scan would.
//   - capLB conservatively lower-bounds the live flows' smallest cap
//     headroom (MaxRate − Rate). It decides only whether the exact scans
//     run, never what they compute, so its float slack (capSlack) cannot
//     perturb rates.
func (a *refKernel) waterfill(fl []*FlowDemand) {
	a.stTierSolves++
	// Each round saturates at least one link or caps at least one flow, so
	// rounds are bounded; the guard protects against float corner cases.
	maxRounds := len(a.used) + len(fl) + 2
	capLB := math.Inf(-1) // forces an exact cap scan in round one
	for round := 0; len(a.live) > 0 && round < maxRounds; round++ {
		a.stWFRounds++
		// The water level can rise by the smallest per-link fair share...
		linkMin := -1.0
		for _, s := range a.touched {
			share := a.residual[s] / float64(a.count[s])
			if linkMin < 0 || share < linkMin {
				linkMin = share
			}
		}
		// ...or until the nearest per-flow cap, whichever is smaller. The
		// scan only runs when a cap could actually bound this round.
		d := linkMin
		if linkMin < 0 || linkMin > capLB {
			rm := math.Inf(1)
			hasCap := false
			for _, j := range a.live {
				f := a.work[j]
				if f.MaxRate <= 0 {
					continue
				}
				hasCap = true
				if room := f.MaxRate - f.Rate; room < rm {
					rm = room
				}
			}
			capLB = rm // +Inf when no live flow is capped, skipping all cap work
			if hasCap && (d < 0 || rm < d) {
				d = rm
			}
		}
		if d < 0 {
			break // no constrained links and no caps: nothing bounds rates
		}
		// No live flow can reach its cap this round when the smallest
		// headroom exceeds the rise by more than the freeze tolerance.
		sweepCaps := !math.IsInf(capLB, 1) && capLB-d <= epsRate+capSlack(capLB, d)
		a.satBuf = a.satBuf[:0]
		if d > 0 {
			for _, j := range a.live {
				a.work[j].Rate += d
			}
			for _, s := range a.touched {
				a.residual[s] -= float64(d * float64(a.count[s]))
				if a.residual[s] < 0 {
					a.residual[s] = 0
				}
				if a.residual[s] <= epsRate {
					a.satBuf = append(a.satBuf, s)
				}
			}
		} else {
			// d == 0: nothing moved, but links may sit at (or below) the
			// saturation tolerance already — their flows must still freeze.
			for _, s := range a.touched {
				if a.residual[s] <= epsRate {
					a.satBuf = append(a.satBuf, s)
				}
			}
		}
		if !math.IsInf(capLB, 1) {
			capLB -= d + capSlack(capLB, d)
		}
		// Freeze capped flows (only when one can exist this round)...
		if sweepCaps {
			for i := 0; i < len(a.live); i++ {
				j := a.live[i]
				f := a.work[j]
				if f.MaxRate > 0 && fmath.AtLeast(f.Rate, f.MaxRate, epsRate) {
					a.freeze(j)
					i--
				}
			}
		}
		// ...then every flow crossing a link that saturated this round.
		for _, s := range a.satBuf {
			for _, j := range a.linkFlows[s] {
				if !a.frozen[a.work[j]] {
					a.freeze(j)
				}
			}
		}
	}
}
