package coflow

// Critical paths (paper §III.A): a path Φ is a leaf-to-root chain of
// dependent coflows, and the JCT of a multi-stage job is the maximum over
// paths of the summed coflow completion times, JCT = max_Φ Σ CCT. A coflow
// lies on a critical path iff increasing its CCT increases the JCT, which is
// what Gurita's 4th rule keys on.

// WeightFunc assigns each coflow its estimated completion-time weight.
type WeightFunc func(*Coflow) float64

// CCTWeight returns the paper's CCT estimate, CCT ≈ L/R: the coflow's
// largest flow divided by the processing rate R in bytes/second.
func CCTWeight(rate float64) WeightFunc {
	return func(c *Coflow) float64 {
		if rate <= 0 {
			return float64(c.LargestFlow())
		}
		return float64(c.LargestFlow()) / rate
	}
}

// CriticalPathLength returns the weight of the heaviest leaf-to-root path.
func CriticalPathLength(j *Job, weight WeightFunc) float64 {
	below := belowWeights(j, weight)
	best := 0.0
	for _, c := range j.Coflows {
		if c.IsRoot() && below[c] > best {
			best = below[c]
		}
	}
	return best
}

// CriticalSet returns the coflows lying on at least one critical path. The
// computation is two longest-path sweeps over the topological order — O(V+E)
// — rather than path enumeration, which would be exponential on the "W" and
// multi-root shapes from production.
func CriticalSet(j *Job, weight WeightFunc) map[CoflowID]bool {
	order := j.TopologicalOrder()
	below := belowWeights(j, weight)

	// up[v]: heaviest chain from v up to any root (inclusive). Parents come
	// after children in the topological order, so iterate it in reverse.
	up := make(map[*Coflow]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		c := order[i]
		best := 0.0
		for _, p := range c.Parents {
			if up[p] > best {
				best = up[p]
			}
		}
		up[c] = best + weight(c)
	}

	total := 0.0
	for _, c := range j.Coflows {
		if c.IsRoot() && below[c] > total {
			total = below[c]
		}
	}

	// v is critical iff the heaviest path through v attains the maximum.
	const relEps = 1e-12
	// The conversion rounds the product, so no platform fuses it into the
	// comparison below.
	eps := float64(total * relEps)
	out := make(map[CoflowID]bool)
	for _, c := range j.Coflows {
		through := below[c] + up[c] - weight(c)
		if through >= total-eps {
			out[c.ID] = true
		}
	}
	return out
}

// belowWeights computes, for every coflow, the heaviest chain from any leaf
// up to and including the coflow.
func belowWeights(j *Job, weight WeightFunc) map[*Coflow]float64 {
	order := j.TopologicalOrder()
	below := make(map[*Coflow]float64, len(order))
	for _, c := range order { // children precede parents
		best := 0.0
		for _, ch := range c.Children {
			if below[ch] > best {
				best = below[ch]
			}
		}
		below[c] = best + weight(c)
	}
	return below
}
