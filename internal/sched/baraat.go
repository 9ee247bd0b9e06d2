package sched

import (
	"sort"

	"gurita/internal/sim"
)

// BaraatConfig parameterizes the Baraat scheduler.
type BaraatConfig struct {
	// HeavyQuantile is the quantile of completed-job sizes above which an
	// active job is declared heavy (Baraat derives its heavy threshold from
	// the observed task-size distribution). Default 0.8.
	HeavyQuantile float64
	// InitialHeavyThreshold is used before enough jobs completed to estimate
	// the quantile. Default 100 MB.
	InitialHeavyThreshold float64
	// MinSamples is how many completed jobs are needed before the quantile
	// estimate replaces the initial threshold. Default 10.
	MinSamples int
}

func (c *BaraatConfig) applyDefaults() {
	if c.HeavyQuantile == 0 {
		c.HeavyQuantile = 0.8
	}
	if c.InitialHeavyThreshold == 0 {
		c.InitialHeavyThreshold = 100e6
	}
	if c.MinSamples == 0 {
		c.MinSamples = 10
	}
}

// Baraat is the FIFO-LM (FIFO with limited multiplexing) decentralized
// task-aware scheduler of Dogar et al. (SIGCOMM'14), the paper's
// state-of-the-art decentralized comparison point.
//
// Jobs are served in arrival order: the i-th oldest active job's flows go to
// priority queue min(i, K−1), so the head of the FIFO line owns the fabric.
// Limited multiplexing handles elephants: when an active job's observed
// bytes exceed the heavy threshold (a quantile of completed-job sizes), it
// is declared heavy and demoted to the lowest queue, letting later jobs
// multiplex past it instead of queueing behind it.
//
// The scheduler is information-agnostic: it keys only on arrival order and
// observed bytes sent, never on a job's true size or structure.
type Baraat struct {
	cfg BaraatConfig
	env sim.Env

	// fifo holds active jobs in arrival order (the simulator delivers
	// arrivals in time order; ties were already broken by job ID).
	fifo []*sim.JobState

	// heavy marks the active jobs declared heavy, and rank holds each light
	// active job's FIFO position as of the last call; both are indexed by
	// JobState.Index and sized once in Init.
	heavy []bool
	rank  []int

	// completedSizes is kept sorted for quantile lookups.
	completedSizes []float64
}

// NewBaraat builds a Baraat scheduler.
func NewBaraat(cfg BaraatConfig) *Baraat {
	cfg.applyDefaults()
	return &Baraat{cfg: cfg}
}

var _ sim.Scheduler = (*Baraat)(nil)

// Name implements sim.Scheduler.
func (*Baraat) Name() string { return "baraat" }

// Init implements sim.Scheduler.
func (b *Baraat) Init(env sim.Env) {
	b.env = env
	b.heavy = make([]bool, env.Jobs)
	b.rank = make([]int, env.Jobs)
}

// OnJobArrival implements sim.Scheduler.
func (b *Baraat) OnJobArrival(j *sim.JobState) {
	b.fifo = append(b.fifo, j)
}

// OnCoflowStart implements sim.Scheduler.
func (*Baraat) OnCoflowStart(*sim.CoflowState) {}

// OnCoflowComplete implements sim.Scheduler.
func (*Baraat) OnCoflowComplete(*sim.CoflowState) {}

// OnJobComplete implements sim.Scheduler.
func (b *Baraat) OnJobComplete(j *sim.JobState) {
	for i, x := range b.fifo {
		if x == j {
			b.fifo = append(b.fifo[:i], b.fifo[i+1:]...)
			break
		}
	}
	b.heavy[j.Index()] = false
	// Record the completed size for the heavy-threshold quantile.
	size := j.BytesSent
	i := sort.SearchFloat64s(b.completedSizes, size)
	b.completedSizes = append(b.completedSizes, 0)
	copy(b.completedSizes[i+1:], b.completedSizes[i:])
	b.completedSizes[i] = size
}

// heavyThreshold returns the current elephant cutoff.
func (b *Baraat) heavyThreshold() float64 {
	if len(b.completedSizes) < b.cfg.MinSamples {
		return b.cfg.InitialHeavyThreshold
	}
	idx := int(b.cfg.HeavyQuantile * float64(len(b.completedSizes)))
	if idx >= len(b.completedSizes) {
		idx = len(b.completedSizes) - 1
	}
	return b.completedSizes[idx]
}

// AssignQueues implements sim.Scheduler. A job's FIFO rank and heavy mark
// depend on continuously advancing byte counters, so targets are recomputed
// every call; changed flows are found with a compare-and-set sweep (no
// allocation — the rank and heavy tables persist across calls).
func (b *Baraat) AssignQueues(_ float64, flows, added, dirty []*sim.FlowState) []*sim.FlowState {
	threshold := b.heavyThreshold()
	lowest := b.env.Queues - 1

	// Update heavy marks and compute each light job's FIFO rank.
	r := 0
	for _, j := range b.fifo {
		i := j.Index()
		if b.heavy[i] || j.BytesSent > threshold {
			b.heavy[i] = true
			continue
		}
		b.rank[i] = r
		r++
	}

	for _, f := range added {
		f.SetQueue(b.targetQueue(f, lowest))
	}
	for _, f := range flows {
		if q := b.targetQueue(f, lowest); q != f.Queue() {
			f.SetQueue(q)
			dirty = append(dirty, f)
		}
	}
	return dirty
}

// targetQueue is the FIFO-LM queue for one flow's job under the current
// ranks and heavy marks.
func (b *Baraat) targetQueue(f *sim.FlowState, lowest int) int {
	i := f.Coflow.Job.Index()
	if b.heavy[i] {
		return lowest
	}
	return min(b.rank[i], lowest)
}
