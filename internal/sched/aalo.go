package sched

import (
	"fmt"

	"gurita/internal/hr"
	"gurita/internal/sim"
)

// AaloConfig parameterizes the Aalo scheduler.
type AaloConfig struct {
	// BaseThreshold and ThresholdFactor space the exponential queue
	// thresholds of D-CLAS; defaults are 10 MB and 10 (Aalo's own settings).
	BaseThreshold   float64
	ThresholdFactor float64
	// CoordinationInterval, when positive, charges Aalo its real
	// coordination cost: byte counters reach the coordinator only every
	// interval seconds, so queue decisions run on stale values. The paper's
	// evaluation grants Aalo free instantaneous coordination (interval 0,
	// the default); this knob quantifies that grant.
	CoordinationInterval float64
}

func (c *AaloConfig) applyDefaults() {
	if c.BaseThreshold == 0 {
		c.BaseThreshold = DefaultBaseThreshold
	}
	if c.ThresholdFactor == 0 {
		c.ThresholdFactor = DefaultThresholdFactor
	}
}

// Aalo is Chowdhury & Stoica's centralized coflow scheduler (SIGCOMM'15):
// Discretized Coflow-Aware Least-Attained-Service. Each coflow's priority
// queue is chosen by its accumulated bytes sent against exponentially
// spaced thresholds; coflows that have sent little stay in high-priority
// queues, elephants sink.
//
// Per the paper's simulation setting (§V), Aalo is granted a free and
// instantaneous global view: queue decisions use live byte counters with no
// coordination delay, unlike the decentralized schemes which see δ-stale
// observations. (The real Aalo serves coflows FIFO within one queue; like
// the paper's flow-level simulator we share a queue max-min, which slightly
// favors Aalo by removing its head-of-line blocking within a queue.)
type Aalo struct {
	cfg        AaloConfig
	thresholds []float64

	// Delayed-coordination state (CoordinationInterval > 0 only).
	agg    *hr.Aggregator
	active []*sim.CoflowState
}

// NewAalo builds an Aalo scheduler for the given number of queues.
func NewAalo(cfg AaloConfig, queues int) (*Aalo, error) {
	cfg.applyDefaults()
	if cfg.CoordinationInterval < 0 {
		return nil, fmt.Errorf("aalo: CoordinationInterval must be >= 0, got %v", cfg.CoordinationInterval)
	}
	th, err := ExpThresholds(cfg.BaseThreshold, cfg.ThresholdFactor, queues)
	if err != nil {
		return nil, fmt.Errorf("aalo: %w", err)
	}
	a := &Aalo{cfg: cfg, thresholds: th}
	if cfg.CoordinationInterval > 0 {
		a.agg = hr.New(cfg.CoordinationInterval)
	}
	return a, nil
}

var _ sim.Scheduler = (*Aalo)(nil)

// Name implements sim.Scheduler.
func (*Aalo) Name() string { return "aalo" }

// Init implements sim.Scheduler.
func (a *Aalo) Init(env sim.Env) {
	if a.agg != nil {
		a.agg.Init(env)
	}
}

// OnJobArrival implements sim.Scheduler.
func (*Aalo) OnJobArrival(*sim.JobState) {}

// OnCoflowStart implements sim.Scheduler.
func (a *Aalo) OnCoflowStart(c *sim.CoflowState) {
	if a.agg != nil {
		a.active = append(a.active, c)
	}
}

// OnCoflowComplete implements sim.Scheduler.
func (a *Aalo) OnCoflowComplete(c *sim.CoflowState) {
	if a.agg == nil {
		return
	}
	for i, x := range a.active {
		if x == c {
			a.active = append(a.active[:i], a.active[i+1:]...)
			break
		}
	}
}

// OnJobComplete implements sim.Scheduler.
func (*Aalo) OnJobComplete(*sim.JobState) {}

// AssignQueues implements sim.Scheduler: the priority of a coflow's flows is
// its accumulated bytes discretized by the thresholds — live bytes with
// free coordination (the paper's setting), or coordinator-round-stale bytes
// when CoordinationInterval is set. With live bytes the target can move at
// any event, so every call sweeps with compare-and-set; with delayed
// coordination targets only move at reporting rounds, so between rounds only
// newly admitted flows need assigning.
func (a *Aalo) AssignQueues(now float64, flows, added, dirty []*sim.FlowState) []*sim.FlowState {
	if a.agg == nil {
		for _, f := range added {
			f.SetQueue(QueueFor(f.Coflow.BytesSent, a.thresholds))
		}
		for _, f := range flows {
			if q := QueueFor(f.Coflow.BytesSent, a.thresholds); q != f.Queue() {
				f.SetQueue(q)
				dirty = append(dirty, f)
			}
		}
		return dirty
	}
	if a.agg.Refresh(now, a.active) {
		for _, f := range flows {
			if q := a.targetQueue(f); q != f.Queue() {
				f.SetQueue(q)
				dirty = append(dirty, f)
			}
		}
		return dirty
	}
	for _, f := range added {
		f.SetQueue(a.targetQueue(f))
	}
	return dirty
}

// targetQueue maps a flow's coflow observation to a queue; coflows not yet
// seen by a coordination round keep the highest priority.
func (a *Aalo) targetQueue(f *sim.FlowState) int {
	obs, ok := a.agg.Coflow(f.Coflow)
	if !ok {
		return 0
	}
	return QueueFor(obs.Bytes, a.thresholds)
}

// DecisionScore implements sim.DecisionScorer: the coflow's accumulated TBS
// bytes (live, or coordinator-round-stale when coordination is delayed) —
// the scalar the thresholds discretize into a queue.
func (a *Aalo) DecisionScore(f *sim.FlowState) (float64, bool) {
	if a.agg == nil {
		return f.Coflow.BytesSent, true
	}
	obs, ok := a.agg.Coflow(f.Coflow)
	if !ok {
		return 0, false
	}
	return obs.Bytes, true
}
