package netmod

// This file implements the paper's starvation mitigation (§IV.B): strict
// priority queuing is emulated with weighted round robin, with each queue's
// weight chosen so that the WRR queue reproduces the average waiting time
// the queue would see under SPQ. Low-priority queues therefore keep a small
// guaranteed share instead of starving.

// SPQWaitingTimes returns the normalized average waiting time of each
// priority queue under strict priority queuing, following the paper's
// queueing formula: with per-queue loads ρ_k (ρ_0 the highest priority),
//
//	W_0 = ρ_0 / (1 − ρ_0)
//	W_k = ρ_k / ((1 − ρ_0 − … − ρ_{k−1}) · (1 − ρ_0 − … − ρ_k))
//
// The caller must ensure Σρ < 1 (see WRRWeights, which scales demand shares
// by a target utilization η < 1). Queues with zero load have zero waiting
// time.
func SPQWaitingTimes(rho []float64) []float64 {
	w := make([]float64, len(rho))
	sigmaPrev := 0.0
	for k, r := range rho {
		if r < 0 {
			r = 0
		}
		sigma := sigmaPrev + r
		denom := (1 - sigmaPrev) * (1 - sigma)
		if denom <= 0 {
			// Overload: the queue (and all below it) would wait unboundedly.
			w[k] = 1e18
		} else {
			w[k] = r / denom
		}
		sigmaPrev = sigma
	}
	return w
}

// WRRWeights converts per-queue demand shares into WRR weights that emulate
// SPQ service order while preventing starvation. shares[k] is queue k's
// fraction of total offered load (Σ shares ≤ 1, e.g. the fraction of active
// flows in queue k); eta ∈ (0,1) is the assumed utilization, so
// ρ_k = eta·shares[k].
//
// Derivation: under SPQ queue k's waiting time is
// W_k = ρ_k / ((1−σ_{k−1})(1−σ_k)) with σ_k = ρ_0 + … + ρ_k. The emulation
// serves each backlogged queue inversely to how long SPQ would make it
// wait:
//
//	φ_k ∝ 1/W_k = (1 − σ_{k−1})(1 − σ_k) / ρ_k
//
// The top queue, whose SPQ wait is near zero, takes almost the whole link;
// each lower queue keeps a strictly positive but sharply smaller guarantee
// (bounded below through (1−σ_K) ≥ 1−η > 0), so low-priority traffic
// transmits "at a much lower rate than higher priority traffic" (§IV.B)
// instead of starving outright. Weights decrease strictly with k,
// preserving priority order; they are normalized to sum to 1 over non-empty
// queues, and empty queues get weight 0.
// StarvationWeights composes the final per-queue link shares used by the
// WRR emulation: the highest backlogged queue receives the utilization
// target η outright — reproducing SPQ's behaviour for the traffic that
// matters most — and the remaining 1−η is the starvation-mitigation
// reservation, distributed across backlogged queues proportional to their
// inverse SPQ waiting times (WRRWeights). The result is a distribution over
// non-empty queues in which low-priority traffic keeps a small guaranteed
// trickle, the property §IV.B introduces WRR for, at a bounded cost (≤ 1−η)
// to high-priority traffic — consistent with the paper's observation that
// pure-SPQ Stream edges out Gurita only on the smallest bursty jobs.
func StarvationWeights(shares []float64, eta float64) []float64 {
	return starvationWeightsInto(make([]float64, len(shares)), shares, eta)
}

// starvationWeightsInto is StarvationWeights writing into w (len(shares)),
// so the hot allocation path can reuse one buffer across rounds.
func starvationWeightsInto(w, shares []float64, eta float64) []float64 {
	if eta <= 0 || eta >= 1 {
		eta = 0.95
	}
	w = wrrWeightsInto(w, shares, eta)
	top := -1
	for k, s := range shares {
		if s > 0 {
			top = k
			break
		}
	}
	if top < 0 {
		return w // no demand: wrrWeightsInto already returned uniform
	}
	for k := range w {
		w[k] *= 1 - eta
	}
	w[top] += eta
	return w
}

func WRRWeights(shares []float64, eta float64) []float64 {
	return wrrWeightsInto(make([]float64, len(shares)), shares, eta)
}

// wrrWeightsInto is WRRWeights writing into weights (len(shares)).
func wrrWeightsInto(weights, shares []float64, eta float64) []float64 {
	if len(shares) == 0 {
		return weights
	}
	for k := range weights {
		weights[k] = 0
	}
	if eta <= 0 || eta >= 1 {
		eta = 0.95
	}
	sigmaPrev := 0.0
	sum := 0.0
	for k, s := range shares {
		if s < 0 {
			s = 0
		}
		// The conversion rounds the product, so the sum below never fuses
		// it into a multiply-add on platforms that have one.
		rho := float64(eta * s)
		sigma := sigmaPrev + rho
		if s > 0 {
			weights[k] = (1 - sigmaPrev) * (1 - sigma) / rho
			sum += weights[k]
		}
		sigmaPrev = sigma
	}
	if sum == 0 {
		// No demand anywhere: split evenly so the result is still a
		// distribution.
		for k := range weights {
			weights[k] = 1 / float64(len(weights))
		}
		return weights
	}
	for k := range weights {
		weights[k] /= sum
	}
	return weights
}
