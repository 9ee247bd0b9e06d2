package sched

import (
	"fmt"

	"gurita/internal/hr"
	"gurita/internal/sim"
)

// StreamConfig parameterizes the Stream scheduler.
type StreamConfig struct {
	// Delta is the receiver reporting interval δ (seconds). Default 10 ms.
	Delta float64
	// BaseThreshold and ThresholdFactor space the exponential demotion
	// thresholds; defaults are 10 MB and 10.
	BaseThreshold   float64
	ThresholdFactor float64
}

func (c *StreamConfig) applyDefaults() {
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

// Stream is the decentralized opportunistic inter-coflow scheduler of
// Susanto et al. (ICNP'16), as the paper characterizes it: a job's priority
// is derived from its accumulated total bytes sent (TBS) across *all*
// stages, observed at the receivers and aggregated with the same δ-interval
// reporting Gurita uses; exponentially spaced thresholds demote jobs as
// their TBS grows. This is precisely the behaviour the paper critiques:
// a job that shipped many bytes in early stages stays demoted even in
// stages where it has almost nothing to send.
type Stream struct {
	cfg        StreamConfig
	thresholds []float64
	agg        *hr.Aggregator
	active     []*sim.CoflowState
	// target holds each active job's queue under the current snapshot,
	// indexed by JobState.Index; it is recomputed once per reporting round.
	target []int
}

// NewStream builds a Stream scheduler for the given number of queues.
func NewStream(cfg StreamConfig, queues int) (*Stream, error) {
	cfg.applyDefaults()
	th, err := ExpThresholds(cfg.BaseThreshold, cfg.ThresholdFactor, queues)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &Stream{cfg: cfg, thresholds: th, agg: hr.New(cfg.Delta)}, nil
}

var _ sim.Scheduler = (*Stream)(nil)

// Name implements sim.Scheduler.
func (*Stream) Name() string { return "stream" }

// Init implements sim.Scheduler.
func (s *Stream) Init(env sim.Env) {
	s.agg.Init(env)
	s.target = make([]int, env.Jobs)
}

// OnJobArrival implements sim.Scheduler.
func (*Stream) OnJobArrival(*sim.JobState) {}

// OnCoflowStart implements sim.Scheduler.
func (s *Stream) OnCoflowStart(c *sim.CoflowState) {
	s.active = append(s.active, c)
}

// OnCoflowComplete implements sim.Scheduler.
func (s *Stream) OnCoflowComplete(c *sim.CoflowState) {
	for i, x := range s.active {
		if x == c {
			s.active = append(s.active[:i], s.active[i+1:]...)
			break
		}
	}
}

// OnJobComplete implements sim.Scheduler.
func (*Stream) OnJobComplete(*sim.JobState) {}

// AssignQueues implements sim.Scheduler. Queue targets derive solely from
// the aggregator snapshot, which only changes when a reporting round runs:
// between rounds every pre-existing flow keeps its queue and only newly
// admitted flows need assigning.
func (s *Stream) AssignQueues(now float64, flows, added, dirty []*sim.FlowState) []*sim.FlowState {
	if s.agg.Refresh(now, s.active) {
		for _, cs := range s.active {
			s.target[cs.Job.Index()] = s.targetQueue(cs.Job)
		}
		for _, f := range flows {
			if q := s.target[f.Coflow.Job.Index()]; q != f.Queue() {
				f.SetQueue(q)
				dirty = append(dirty, f)
			}
		}
		return dirty
	}
	for _, f := range added {
		f.SetQueue(s.targetQueue(f.Coflow.Job))
	}
	return dirty
}

// targetQueue maps a job's TBS observation to a queue; jobs not yet seen by
// a reporting round start at the highest priority.
func (s *Stream) targetQueue(js *sim.JobState) int {
	obs, ok := s.agg.Job(js)
	if !ok {
		return 0
	}
	return QueueFor(obs.Bytes, s.thresholds)
}

// DecisionScore implements sim.DecisionScorer: the job's aggregated TBS
// bytes as of the last reporting round, the scalar targetQueue thresholds.
func (s *Stream) DecisionScore(f *sim.FlowState) (float64, bool) {
	obs, ok := s.agg.Job(f.Coflow.Job)
	if !ok {
		return 0, false
	}
	return obs.Bytes, true
}
