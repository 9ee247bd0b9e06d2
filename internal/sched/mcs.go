package sched

import (
	"fmt"

	"gurita/internal/hr"
	"gurita/internal/sim"
)

// MCSConfig parameterizes the MCS scheduler.
type MCSConfig struct {
	// Delta is the receiver reporting interval δ (default 10 ms), matching
	// the information model of the other decentralized schemes.
	Delta float64
	// BaseThreshold and ThresholdFactor space the demotion thresholds over
	// the W×L product; defaults 10 MB and 10.
	BaseThreshold   float64
	ThresholdFactor float64
}

func (c *MCSConfig) applyDefaults() {
	if c.Delta == 0 {
		c.Delta = 0.010
	}
	if c.BaseThreshold == 0 {
		c.BaseThreshold = DefaultBaseThreshold
	}
	if c.ThresholdFactor == 0 {
		c.ThresholdFactor = DefaultThresholdFactor
	}
}

// MCS schedules coflows by the product of their two static dimensions —
// number of flows (width) and observed largest flow (length) — the
// multi-attribute scheme the paper cites as [38]. It is width- and
// length-aware like Gurita but *stage-agnostic*: no ω term, no job-level
// aggregation, no critical-path rule. Comparing MCS against Gurita
// therefore isolates exactly what the multi-stage (depth) awareness
// contributes, which is why it ships here as an extension baseline.
type MCS struct {
	cfg        MCSConfig
	thresholds []float64
	agg        *hr.Aggregator
	active     []*sim.CoflowState
	// target holds each active coflow's queue under the current snapshot,
	// indexed by CoflowState.Index; it is recomputed once per reporting
	// round.
	target []int
}

// NewMCS builds an MCS scheduler for the given number of queues.
func NewMCS(cfg MCSConfig, queues int) (*MCS, error) {
	cfg.applyDefaults()
	th, err := ExpThresholds(cfg.BaseThreshold, cfg.ThresholdFactor, queues)
	if err != nil {
		return nil, fmt.Errorf("mcs: %w", err)
	}
	return &MCS{cfg: cfg, thresholds: th, agg: hr.New(cfg.Delta)}, nil
}

var _ sim.Scheduler = (*MCS)(nil)

// Name implements sim.Scheduler.
func (*MCS) Name() string { return "mcs" }

// Init implements sim.Scheduler.
func (m *MCS) Init(env sim.Env) {
	m.agg.Init(env)
	m.target = make([]int, env.Coflows)
}

// OnJobArrival implements sim.Scheduler.
func (*MCS) OnJobArrival(*sim.JobState) {}

// OnCoflowStart implements sim.Scheduler.
func (m *MCS) OnCoflowStart(c *sim.CoflowState) {
	m.active = append(m.active, c)
}

// OnCoflowComplete implements sim.Scheduler.
func (m *MCS) OnCoflowComplete(c *sim.CoflowState) {
	for i, x := range m.active {
		if x == c {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
}

// OnJobComplete implements sim.Scheduler.
func (*MCS) OnJobComplete(*sim.JobState) {}

// AssignQueues implements sim.Scheduler: queue by observed W×L against the
// exponential thresholds. Targets derive solely from the aggregator
// snapshot, which only changes when a reporting round runs: between rounds
// every pre-existing flow keeps its queue and only newly admitted flows need
// assigning.
func (m *MCS) AssignQueues(now float64, flows, added, dirty []*sim.FlowState) []*sim.FlowState {
	if m.agg.Refresh(now, m.active) {
		for _, cs := range m.active {
			m.target[cs.Index()] = m.targetQueue(cs)
		}
		for _, f := range flows {
			if q := m.target[f.Coflow.Index()]; q != f.Queue() {
				f.SetQueue(q)
				dirty = append(dirty, f)
			}
		}
		return dirty
	}
	for _, f := range added {
		f.SetQueue(m.targetQueue(f.Coflow))
	}
	return dirty
}

// targetQueue maps a coflow's observation to a queue; coflows not yet seen
// by a reporting round start at the highest priority.
func (m *MCS) targetQueue(cs *sim.CoflowState) int {
	obs, ok := m.agg.Coflow(cs)
	if !ok {
		return 0
	}
	return QueueFor(float64(obs.Width)*obs.Largest, m.thresholds)
}
