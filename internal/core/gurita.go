package core

import (
	"fmt"

	"gurita/internal/coflow"
	"gurita/internal/faults"
	"gurita/internal/hr"
	"gurita/internal/sched"
	"gurita/internal/sim"
)

// Config parameterizes Gurita.
type Config struct {
	// Delta is the receiver → head-receiver reporting interval δ in seconds
	// (default 10 ms). Ignored in oracle mode.
	Delta float64
	// GammaC is the c̄ constant of γ, in (0,1). Default 0.5.
	GammaC float64
	// CritEpsilon is the critical-path discount ε in (0,1]. Default 0.25.
	CritEpsilon float64
	// DisableCriticalPath turns off Gurita's 4th rule (ablation switch).
	DisableCriticalPath bool
	// BaseThreshold and ThresholdFactor space the exponential demotion
	// thresholds for Ψ; defaults 10 MB and 10 (the paper adopts [5]'s
	// exponentially-spaced thresholds).
	BaseThreshold   float64
	ThresholdFactor float64
	// SMax bounds the AVA observation window per job (paper: s_max < 5, the
	// production mean depth). Default 5.
	SMax int
	// Oracle switches to GuritaPlus: exact per-stage information (true
	// sizes, widths, in-flight bytes), no reporting delay, and instantaneous
	// priority adjustment unconstrained by the TCP reordering rule.
	Oracle bool
	// KnownStageCount lets practical Gurita use the exact stage-progress
	// weight ω = 1 − s/s_total instead of the estimate ω̈ = 1/(1+s). The
	// paper notes s_total can sometimes be obtained from the framework
	// master (e.g. Map and Reduce stages) but often is not obvious [28];
	// this switch is the ablation between the two ω variants.
	KnownStageCount bool
}

func (c *Config) applyDefaults() {
	if c.Delta == 0 {
		c.Delta = 0.010
	}
	if c.GammaC == 0 {
		c.GammaC = 0.5
	}
	if c.CritEpsilon == 0 {
		c.CritEpsilon = 0.25
	}
	if c.BaseThreshold == 0 {
		c.BaseThreshold = sched.DefaultBaseThreshold
	}
	if c.ThresholdFactor == 0 {
		c.ThresholdFactor = sched.DefaultThresholdFactor
	}
	if c.SMax == 0 {
		c.SMax = 5
	}
}

// jobInfo is Gurita's per-job bookkeeping.
type jobInfo struct {
	// recentLargest is the AVA window: the observed largest-flow sizes of
	// the job's most recently completed coflows (at most SMax entries).
	recentLargest []float64
}

// avgLargest returns the AVA mean of the window, 0 when empty.
func (ji *jobInfo) avgLargest() float64 {
	if len(ji.recentLargest) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range ji.recentLargest {
		s += v
	}
	return s / float64(len(ji.recentLargest))
}

// Gurita is the LBEF scheduler. Use New (practical, HR-estimated) or
// NewPlus (GuritaPlus oracle).
type Gurita struct {
	cfg        Config
	env        sim.Env
	thresholds []float64
	agg        *hr.Aggregator

	// Per-job and per-coflow tables, indexed by JobState.Index and
	// CoflowState.Index and sized once in Init.
	jobs   []jobInfo
	active []*sim.CoflowState
	// critical marks the coflows of the exact critical sets (oracle mode).
	critical []bool

	// psiC/psiJ are the current blocking effects per coflow and per job, and
	// target each active coflow's LBEF queue. They are recomputed only when
	// a coordination round ran or the active structure changed
	// (structureDirty, set by the lifecycle hooks); between those points
	// every Ψ input is constant, so targets cannot move.
	psiC           []float64
	psiJ           []float64
	target         []int
	structureDirty bool
}

// New builds the practical Gurita scheduler for the given number of
// priority queues.
func New(cfg Config, queues int) (*Gurita, error) {
	cfg.applyDefaults()
	if cfg.Delta < 0 {
		return nil, fmt.Errorf("gurita: Delta must be >= 0, got %v", cfg.Delta)
	}
	if cfg.GammaC <= 0 || cfg.GammaC >= 1 {
		return nil, fmt.Errorf("gurita: GammaC must be in (0,1), got %v", cfg.GammaC)
	}
	if cfg.CritEpsilon <= 0 || cfg.CritEpsilon > 1 {
		return nil, fmt.Errorf("gurita: CritEpsilon must be in (0,1], got %v", cfg.CritEpsilon)
	}
	if cfg.SMax < 1 {
		return nil, fmt.Errorf("gurita: SMax must be >= 1, got %d", cfg.SMax)
	}
	th, err := sched.ExpThresholds(cfg.BaseThreshold, cfg.ThresholdFactor, queues)
	if err != nil {
		return nil, fmt.Errorf("gurita: %w", err)
	}
	return &Gurita{
		cfg:        cfg,
		thresholds: th,
		agg:        hr.New(cfg.Delta),
	}, nil
}

// NewPlus builds GuritaPlus: the oracle variant with complete per-stage
// information and instantaneous priority propagation (paper §V, Figure 8).
func NewPlus(cfg Config, queues int) (*Gurita, error) {
	cfg.Oracle = true
	return New(cfg, queues)
}

var _ sim.Scheduler = (*Gurita)(nil)

// Name implements sim.Scheduler.
func (g *Gurita) Name() string {
	if g.cfg.Oracle {
		return "gurita+"
	}
	return "gurita"
}

// Init implements sim.Scheduler: it sizes every per-job and per-coflow
// table for the run.
func (g *Gurita) Init(env sim.Env) {
	g.env = env
	g.agg.Init(env)
	g.jobs = make([]jobInfo, env.Jobs)
	g.psiJ = make([]float64, env.Jobs)
	g.psiC = make([]float64, env.Coflows)
	g.target = make([]int, env.Coflows)
	if g.cfg.Oracle && !g.cfg.DisableCriticalPath {
		g.critical = make([]bool, env.Coflows)
	}
}

// OnControlFault implements sim.ControlFaultObserver. GuritaPlus is an
// oracle — it has no reporting plane to degrade — so control faults only
// reach the practical variant's HR aggregator.
func (g *Gurita) OnControlFault(now float64, ev faults.Event) {
	if g.cfg.Oracle {
		return
	}
	g.agg.OnControlFault(now, ev)
}

// OnJobArrival implements sim.Scheduler.
func (g *Gurita) OnJobArrival(js *sim.JobState) {
	if g.critical != nil {
		// Exact critical set over the job DAG with CCT ≈ L/R weights.
		set := coflow.CriticalSet(js.Job, coflow.CCTWeight(g.env.Topo.LinkCapacity(0)))
		for _, cs := range js.Coflows {
			g.critical[cs.Index()] = set[cs.Coflow.ID]
		}
	}
	g.structureDirty = true
}

// OnCoflowStart implements sim.Scheduler.
func (g *Gurita) OnCoflowStart(cs *sim.CoflowState) {
	g.active = append(g.active, cs)
	g.structureDirty = true
}

// OnCoflowComplete implements sim.Scheduler.
func (g *Gurita) OnCoflowComplete(cs *sim.CoflowState) {
	g.structureDirty = true
	for i, x := range g.active {
		if x == cs {
			g.active = append(g.active[:i], g.active[i+1:]...)
			break
		}
	}
	// Feed the AVA window with the completed coflow's observed largest flow.
	ji := &g.jobs[cs.Job.Index()]
	ji.recentLargest = append(ji.recentLargest, cs.ObservedLargest())
	if len(ji.recentLargest) > g.cfg.SMax {
		ji.recentLargest = ji.recentLargest[len(ji.recentLargest)-g.cfg.SMax:]
	}
}

// OnJobComplete implements sim.Scheduler.
func (g *Gurita) OnJobComplete(*sim.JobState) {
	g.structureDirty = true
}

// psi computes the (critical-path-discounted) blocking effect of one active
// coflow under the configured information model.
func (g *Gurita) psi(cs *sim.CoflowState) float64 {
	c := cs.Coflow
	var omega, largest, mean float64
	var width int
	critical := false

	if g.cfg.Oracle {
		// Exact structure and live in-flight progress.
		omega = OmegaIdeal(cs.Job.CompletedStages, cs.Job.Job.NumStages)
		largest = float64(c.LargestFlow())
		width = c.Width()
		mean = c.MeanFlowSize()
		if g.critical != nil {
			critical = g.critical[cs.Index()]
		}
	} else {
		obs, ok := g.agg.Coflow(cs)
		if !ok {
			// Never observed by a reporting round: brand-new coflows keep
			// the highest priority (paper: "too small to wait for decisions
			// from HR").
			return 0
		}
		if g.cfg.KnownStageCount {
			omega = OmegaIdeal(obs.JobCompletedStages, cs.Job.Job.NumStages)
		} else {
			omega = OmegaEstimated(obs.JobCompletedStages)
		}
		largest = obs.Largest
		width = obs.Width
		mean = obs.Mean
		if !g.cfg.DisableCriticalPath {
			// AVA: the coflow is probably on a critical path when its
			// observed largest flow reaches the average of the largest
			// flows seen on the job's recently completed coflows.
			if avg := g.jobs[cs.Job.Index()].avgLargest(); avg > 0 && obs.Largest >= avg {
				critical = true
			}
		}
	}

	gamma := Gamma(g.cfg.GammaC, mean, largest)
	psi := BlockingEffect(omega, largest, width, gamma)
	return ApplyCriticalDiscount(psi, critical, g.cfg.CritEpsilon)
}

// AssignQueues implements sim.Scheduler: LBEF with job- and coflow-level
// demotion thresholds.
//
// Job level: Ψ_j = Σ Ψ_c over the job's transmitting coflows (the paper's
// per-stage blocking effect, generalized to coflows concurrently in
// different stages, which the paper updates "when new coflows begin and
// complete"). The job's flows are demoted to QueueFor(Ψ_j).
//
// Coflow level: a coflow is additionally demoted by its own Ψ_c. New
// coflows start at the highest priority. In practical mode the TCP
// out-of-order rule applies: an in-flight flow's priority may only be
// demoted, never promoted (only newly generated flows benefit from a job's
// improved priority); GuritaPlus adjusts both ways instantly.
//
// Every Ψ input — HR observations, AVA windows, stage counters, the active
// set itself — changes only at a coordination round or a lifecycle event
// (structureDirty), so the Ψ tables and per-coflow targets are rebuilt and
// the flows swept only then; between those points only newly admitted flows
// need assigning from the standing targets.
func (g *Gurita) AssignQueues(now float64, flows, added, dirty []*sim.FlowState) []*sim.FlowState {
	refreshed := false
	if !g.cfg.Oracle {
		refreshed = g.agg.Refresh(now, g.active)
	}
	if refreshed || g.structureDirty {
		g.structureDirty = false
		g.rebuild()
		for _, f := range flows {
			target := g.target[f.Coflow.Index()]
			if !g.cfg.Oracle && target < f.Queue() {
				// Reordering rule: no in-flight promotion.
				continue
			}
			if target != f.Queue() {
				f.SetQueue(target)
				dirty = append(dirty, f)
			}
		}
		return dirty
	}
	for _, f := range added {
		// New flows start in queue 0, so the reordering rule (no in-flight
		// promotion) can never block their first assignment.
		f.SetQueue(g.target[f.Coflow.Index()])
	}
	return dirty
}

// rebuild recomputes Ψ per active coflow, Σ per job (summed in active
// order, so the float sums are reproducible), and each active coflow's LBEF
// target: the worse of its job-level and coflow-level demotion.
func (g *Gurita) rebuild() {
	for _, cs := range g.active {
		g.psiJ[cs.Job.Index()] = 0
	}
	for _, cs := range g.active {
		p := g.psi(cs)
		g.psiC[cs.Index()] = p
		g.psiJ[cs.Job.Index()] += p
	}
	for _, cs := range g.active {
		jobQ := sched.QueueFor(g.psiJ[cs.Job.Index()], g.thresholds)
		ownQ := sched.QueueFor(g.psiC[cs.Index()], g.thresholds)
		g.target[cs.Index()] = max(jobQ, ownQ)
	}
}

// DecisionScore implements sim.DecisionScorer: the coflow's standing
// blocking-effect Ψ — the LBEF scalar the thresholds discretize. The job
// aggregate Σψ also shapes the final queue (rebuild takes the worse of the
// two demotions); the per-coflow Ψ is the value worth auditing because
// it is what distinguishes LBEF from plain TBS ordering. Every flow the
// engine asks about belongs to a coflow the last rebuild saw.
func (g *Gurita) DecisionScore(f *sim.FlowState) (float64, bool) {
	return g.psiC[f.Coflow.Index()], true
}
