// Package sim is the flow-level discrete-event simulator the evaluation runs
// on (paper §V: "We develop a flow-level simulator and it accounts for the
// flow arrival and departure events, rather than packet sending and
// receiving events. It updates the rate and the remaining volume of each
// flow when event occurs.").
//
// The engine advances a fluid model: between events every active flow
// transmits at the rate computed by the netmod allocator; events are job
// arrivals, flow completions (which may complete coflows, release DAG
// parents, and complete jobs), and periodic scheduler ticks. Scheduling
// policies plug in through the Scheduler interface and only assign priority
// queues; the data plane (SPQ or WRR emulation) turns those into rates.
//
// The simulator is deterministic: identical inputs produce identical
// schedules, byte for byte. All state is confined to one goroutine.
package sim

import (
	"fmt"
	"math"
	"sort"

	"gurita/internal/coflow"
	"gurita/internal/eventq"
	"gurita/internal/faults"
	"gurita/internal/netmod"
	"gurita/internal/obs"
	"gurita/internal/slab"
	"gurita/internal/topo"
)

// CoflowPhase is the lifecycle of a coflow inside a run.
type CoflowPhase int

// Coflow lifecycle phases.
const (
	// PhaseWaiting: DAG children not yet complete; no flows in the network.
	PhaseWaiting CoflowPhase = iota + 1
	// PhaseActive: flows are transmitting.
	PhaseActive
	// PhaseDone: all flows completed.
	PhaseDone
)

// FlowState is the runtime state of one flow. Schedulers may read all
// fields; information-agnostic schedulers must not read Flow.Size (only
// Sent, which is what receivers can observe).
type FlowState struct {
	Flow   *coflow.Flow
	Coflow *CoflowState

	// Handle is the flow's slab identity: a stable dense index assigned at
	// construction (see Index). The zero Handle means the state was built by
	// hand outside both the engine and BuildStates.
	Handle slab.Handle

	// Demand carries the path, the priority queue assigned by the scheduler,
	// and the allocated rate. Schedulers set Demand.Queue.
	Demand netmod.FlowDemand

	// Remaining and Sent are bytes; Sent is the receiver-observable counter.
	Remaining float64
	Sent      float64

	Started  float64
	Finished float64
	Done     bool

	started   bool
	activeIdx int // index into Simulator.active, -1 when inactive
}

// Active reports whether the flow has started and not yet finished (an
// "open connection" from the receiver's perspective).
func (f *FlowState) Active() bool { return f.started && !f.Done }

// Index returns the flow's dense slab index: states built by the engine or
// by BuildStates are numbered 0..n-1 per type in construction order (job,
// then coflow, then flow order — deterministic), so schedulers and
// instrumentation key O(1) side arrays with it instead of maps. Job and
// coflow indices are below Env.Jobs and Env.Coflows, which is what lets a
// policy size its tables once in Init. States built by hand (a struct
// literal, no Handle) all report 0 and so alias one another in those
// tables: build test states with BuildStates.
func (f *FlowState) Index() int32 { return f.Handle.Index() }

// MarkStarted records that the flow was admitted into the network at the
// given time. The engine calls this internally; external drivers building
// runtime states by hand (scheduler unit tests, alternative frontends) must
// call it (once per flow) for the flow to count as an open connection.
func (f *FlowState) MarkStarted(now float64) {
	f.started = true
	f.Started = now
	if f.Coflow != nil {
		f.Coflow.activeFlows++
	}
}

// Queue returns the currently assigned priority queue.
func (f *FlowState) Queue() int { return f.Demand.Queue }

// SetQueue assigns the priority queue (0 = highest).
func (f *FlowState) SetQueue(q int) { f.Demand.Queue = q }

// Rate returns the last allocated rate in bytes/second.
func (f *FlowState) Rate() float64 { return f.Demand.Rate }

// CoflowState is the runtime state of one coflow.
type CoflowState struct {
	Coflow *coflow.Coflow
	Job    *JobState
	Flows  []*FlowState

	// Handle is the coflow's slab identity (see FlowState.Handle).
	Handle slab.Handle

	Phase           CoflowPhase
	PendingChildren int
	RemainingFlows  int

	// BytesSent is the observable accumulated bytes across the coflow's
	// flows — what TBS-based schedulers and Gurita's receivers key on.
	BytesSent float64

	Started  float64
	Finished float64

	// activeFlows counts flows with Active() == true, maintained on flow
	// start and finish so ObservedWidth is O(1) for the reporting rounds.
	activeFlows int
}

// ObservedWidth returns the number of flows currently transmitting — the
// receiver-side "open connections" estimate of the horizontal dimension.
func (c *CoflowState) ObservedWidth() int { return c.activeFlows }

// Index returns the coflow's dense slab index (see FlowState.Index).
func (c *CoflowState) Index() int32 { return c.Handle.Index() }

// ObservedLargest returns the largest per-flow bytes received so far — the
// receiver-side estimate of the vertical dimension L.
func (c *CoflowState) ObservedLargest() float64 {
	best := 0.0
	for _, f := range c.Flows {
		if f.Sent > best {
			best = f.Sent
		}
	}
	return best
}

// ObservedMeanFlowSize returns the mean bytes received per flow so far.
func (c *CoflowState) ObservedMeanFlowSize() float64 {
	if len(c.Flows) == 0 {
		return 0
	}
	return c.BytesSent / float64(len(c.Flows))
}

// JobState is the runtime state of one job.
type JobState struct {
	Job     *coflow.Job
	Coflows []*CoflowState

	// Handle is the job's slab identity (see FlowState.Handle).
	Handle slab.Handle

	// CompletedStages is the paper's s: the longest prefix of stages fully
	// completed. stageLeft[k] counts unfinished coflows at stage k+1.
	CompletedStages int
	stageLeft       []int

	RemainingCoflows int
	// BytesSent is the job-level observable TBS.
	BytesSent float64

	Finished float64
	Done     bool
}

// Index returns the job's dense slab index (see FlowState.Index).
func (j *JobState) Index() int32 { return j.Handle.Index() }

// ByID returns the job's coflow state with the given ID, or nil.
func (j *JobState) ByID(id coflow.CoflowID) *CoflowState {
	for _, c := range j.Coflows {
		if c.Coflow.ID == id {
			return c
		}
	}
	return nil
}

// Env is what the engine exposes to schedulers at Init time.
type Env struct {
	Topo   *topo.Topology
	Queues int
	// Now returns the current simulation time; valid for the whole run.
	Now func() float64
	// Jobs and Coflows bound the dense state indices of the run: every
	// JobState.Index() is below Jobs and every CoflowState.Index() below
	// Coflows. Policies size their per-job and per-coflow tables from them
	// once, in Init; the population never grows during a run.
	Jobs    int
	Coflows int
}

// Scheduler is a scheduling policy. The engine calls the On* notifications
// as the workload unfolds and AssignQueues before every rate allocation.
//
// Every flow in flows and added belongs to a coflow that OnCoflowStart has
// announced and OnCoflowComplete has not yet retired, and to a job between
// OnJobArrival and OnJobComplete; policies rely on that to read per-coflow
// and per-job tables (keyed by Index, sized from Env) without a presence
// check.
//
// AssignQueues sets priority queues (Demand.Queue, 0 = highest): it must
// assign a queue to every flow in added — the flows admitted since the
// previous call — and may reassign any other flow in flows. Every
// pre-existing flow whose queue the call changed must be appended to dirty
// and the resulting slice returned. Flows outside added and the returned
// slice are assumed to keep the queue they already had; that contract is
// what lets the engine skip rate recomputation when an event changed
// nothing. Appending a flow whose queue was rewritten with the same value is
// allowed (the engine diffs cheaply); omitting a real change corrupts the
// incremental allocation. Implementations must be deterministic.
type Scheduler interface {
	Name() string
	Init(env Env)
	OnJobArrival(j *JobState)
	OnCoflowStart(c *CoflowState)
	OnCoflowComplete(c *CoflowState)
	OnJobComplete(j *JobState)
	AssignQueues(now float64, flows, added, dirty []*FlowState) []*FlowState
}

// DecisionScorer is optionally implemented by schedulers that can expose
// the scalar driving a flow's queue assignment — Gurita's Ψ, accumulated
// TBS bytes. When the decision audit log is armed (Config.Obs) the engine
// records the score alongside each assignment; schedulers without a
// meaningful scalar simply don't implement it. Must be side-effect free.
type DecisionScorer interface {
	DecisionScore(f *FlowState) (score float64, ok bool)
}

// DependencyMode selects the granularity at which DAG precedence releases
// work.
type DependencyMode int

// Dependency modes.
const (
	// DepCoflow (the default) releases a coflow only when every child
	// coflow has completed — the paper's base model (constraint 1.a).
	DepCoflow DependencyMode = iota + 1
	// DepTask implements the paper's §I refinement: "a task in the next
	// stage can begin processing as soon as its dependent tasks complete".
	// A parent flow starts once every child flow delivering to its source
	// server has completed; flows whose source receives nothing from the
	// children still wait for full child completion.
	DepTask
)

func (m DependencyMode) String() string {
	switch m {
	case DepCoflow:
		return "coflow"
	case DepTask:
		return "task"
	default:
		return fmt.Sprintf("DependencyMode(%d)", int(m))
	}
}

// Config parameterizes a run.
type Config struct {
	// Topology is required.
	Topology *topo.Topology
	// Queues is the number of priority queues (default 4, the paper's
	// evaluation setting).
	Queues int
	// Mode selects SPQ or the WRR starvation-mitigation emulation
	// (default SPQ).
	Mode netmod.Mode
	// Tick is the scheduler update interval δ in seconds (default 10 ms).
	// Priorities are also refreshed at every natural event.
	Tick float64
	// MaxFlowRate caps each flow (TCP/NIC); 0 means the link capacity.
	MaxFlowRate float64
	// StageDelay is an optional computation delay inserted between a
	// coflow's children completing and the coflow starting to transmit.
	StageDelay float64
	// MaxEvents bounds the run as a safety net (default 200 million).
	MaxEvents int64
	// Utilization is the η used for WRR weight derivation (default 0.95).
	Utilization float64
	// Dependency selects coflow-level (default) or task-level release.
	Dependency DependencyMode
	// Probe, when non-nil, is called roughly every Tick with the current
	// time and the active flows (rates freshly allocated) — an
	// instrumentation hook for utilization sampling or tracing. It must not
	// mutate the flows.
	Probe func(now float64, active []*FlowState)
	// TCPSlowStart enables a fluid approximation of TCP slow start: each
	// flow's rate cap ramps exponentially from InitWindow/RTT, doubling per
	// RTT, until it reaches MaxFlowRate. Off by default — the paper's
	// simulator (like most flow-level simulators) models steady-state TCP
	// only; this knob quantifies what start-up dynamics would change.
	TCPSlowStart bool
	// RTT is the round-trip time driving slow start (default 100 µs).
	RTT float64
	// InitWindow is the initial congestion window in bytes (default 15 kB,
	// ≈ 10 segments).
	InitWindow float64
	// VerifyIncremental cross-checks every incremental reallocation against
	// a from-scratch batch solve over the same flows and aborts the run on
	// the first rate that is not bit-identical. A test/debug knob: it
	// re-solves everything at every dirty event, forfeiting the incremental
	// speedup.
	VerifyIncremental bool
	// Faults replays a deterministic fault schedule inside the run: link
	// and switch failures, NIC degradation, and control-plane faults (see
	// internal/faults). Nil or empty leaves the engine's fault-free
	// trajectory untouched, byte for byte.
	Faults *faults.Schedule
	// CheckInvariants asserts engine invariants — per-link rate
	// conservation, no lost flows, no active flow on a failed link — after
	// every fault instant, aborting the run on the first violation. A
	// test/debug knob (O(active·pathlen) per fault event).
	CheckInvariants bool
	// Interrupt, when non-nil, is polled every few thousand events; a
	// non-nil return aborts the run with that error (wrapped, so
	// errors.Is sees through it). Campaign runners use it to impose
	// per-trial timeouts without touching determinism: polling frequency
	// never influences the trajectory, only how promptly an abort lands.
	Interrupt func() error
	// Obs, when non-nil, receives typed simulation events and scheduler
	// decisions (see internal/obs). The nil default is the zero-cost path:
	// every emission is guarded by a single pointer compare and no event
	// value is constructed. Sinks are invoked synchronously from the
	// simulation goroutine and must never influence the trajectory.
	Obs obs.Sink
	// Registry, when non-nil, is the counter/histogram registry the engine
	// feeds instead of its internal one, so callers can read aggregates
	// beyond Result.Counters. Engine counters are collected either way and
	// always folded into Result.Counters: results are a pure function of the
	// scenario, never of observability settings.
	Registry *obs.Registry
	// EventQueue selects the event-queue implementation (default calendar).
	// Both kinds pop in identical (time, FIFO) order, so the trajectory is
	// byte-identical either way; the knob exists for cross-implementation
	// equivalence tests and as an escape hatch.
	EventQueue eventq.Kind
}

func (c *Config) applyDefaults() {
	if c.Queues == 0 {
		c.Queues = 4
	}
	if c.Mode == 0 {
		c.Mode = netmod.ModeSPQ
	}
	if c.Tick == 0 {
		c.Tick = 0.010
	}
	if c.MaxFlowRate == 0 && c.Topology != nil {
		c.MaxFlowRate = c.Topology.LinkCapacity(0)
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 200_000_000
	}
	if c.Utilization == 0 {
		c.Utilization = 0.95
	}
	if c.Dependency == 0 {
		c.Dependency = DepCoflow
	}
	if c.RTT == 0 {
		c.RTT = 100e-6
	}
	if c.InitWindow == 0 {
		c.InitWindow = 15e3
	}
}

// JobResult records one finished job.
type JobResult struct {
	JobID      coflow.JobID
	Arrival    float64
	Finished   float64
	JCT        float64
	TotalBytes int64
	NumStages  int
	NumCoflows int
}

// CoflowResult records one finished coflow.
type CoflowResult struct {
	CoflowID coflow.CoflowID
	JobID    coflow.JobID
	Stage    int
	Started  float64
	Finished float64
	CCT      float64
	Bytes    int64
	Width    int
}

// Result is the outcome of a run.
type Result struct {
	Scheduler string
	Jobs      []JobResult
	Coflows   []CoflowResult
	// EndTime is the simulation time when the last job completed.
	EndTime float64
	// Events is the number of processed events.
	Events int64
	// TotalBytes is the volume moved across the fabric.
	TotalBytes int64
	// MaxActiveFlows is the peak number of concurrently transmitting flows,
	// a load indicator for the run.
	MaxActiveFlows int
	// Counters are deterministic engine work counters and histograms:
	// allocator re-solves, water-fill rounds, dirty-set and active-flow
	// distributions (histograms flattened Prometheus-style, see
	// obs.Registry.Merge). Always populated, independent of observability
	// settings, so a Result stays a pure function of the scenario.
	Counters map[string]int64
}

// AvgJCT returns the average job completion time, or 0 with no jobs.
func (r *Result) AvgJCT() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	s := 0.0
	for _, j := range r.Jobs {
		s += j.JCT
	}
	return s / float64(len(r.Jobs))
}

// AvgCCT returns the average coflow completion time — the paper's other
// primary metric — or 0 with no coflows.
func (r *Result) AvgCCT() float64 {
	if len(r.Coflows) == 0 {
		return 0
	}
	s := 0.0
	for _, c := range r.Coflows {
		s += c.CCT
	}
	return s / float64(len(r.Coflows))
}

// completion epsilon, in bytes: a flow with less than this remaining is
// finished. Well below one byte, far above float noise at 10G rates.
const epsBytes = 1e-3

// Simulator runs one scenario. Create with New, run once with Run.
type Simulator struct {
	cfg   Config
	sched Scheduler
	alloc *netmod.Allocator

	queue eventq.Queue
	now   float64

	// jobs are built by BuildStates; coflows counts their coflow states
	// (Env.Coflows).
	jobs    []*JobState
	coflows int
	active  []*FlowState
	// added collects flows admitted since the last AssignQueues call; dirty
	// is the reusable buffer handed to the scheduler for change reports.
	added []*FlowState
	dirty []*FlowState

	// Batch-reference cross-check state (Config.VerifyIncremental).
	verify     *netmod.Allocator
	verifyBuf  []netmod.FlowDemand
	verifyPtrs []*netmod.FlowDemand
	verifyErr  error

	// Task-level dependency wiring (Config.Dependency == DepTask), keyed by
	// flow slab index: dependents[i] lists the parent flows that flow i
	// feeds; feedersLeft[i] counts flow i's outstanding feeder flows.
	taskDeps    bool
	dependents  [][]*FlowState
	feedersLeft []int32

	pendingDone eventq.Handle
	tickFn      func() // periodic tick action, built once in New
	noopFn      func() // completion marker action, built once in New
	tickPending bool
	rampPending bool
	lastProbe   float64
	probed      bool

	// Fault-injection state (see faults.go). downRef counts why a link is
	// down (direct failure and/or its switch); degradeF holds NIC capacity
	// factors; stalled holds flows waiting out a partition.
	faultsOn       bool
	ctrlObs        ControlFaultObserver
	downRef        []int32
	degradeF       []float64
	downLinks      int
	pendingFaults  int
	faultFired     bool
	needReroute    bool
	needReadmit    bool
	stalled        []*stalledFlow
	stalledPool    []*stalledFlow // recycled records: stall/readmit churn allocates nothing
	faultErr       error
	switchLinksBuf []topo.LinkID

	// Observability (always-on registry feeds; event emission only when
	// cfg.Obs != nil). histDirty/histActive are pre-resolved handles so the
	// per-event cost is an array increment, not a map lookup.
	reg        *obs.Registry
	histDirty  obs.Histogram
	histActive obs.Histogram
	scorer     DecisionScorer

	// Flow conservation counters for CheckInvariants.
	startedFlows  int64
	finishedFlows int64
	linkLoad      []float64
	invTouched    []topo.LinkID

	result Result
	ran    bool
}

// New validates the configuration and prepares a run over the given jobs.
// Jobs must have been produced by coflow.Builder (validated DAGs). The jobs
// slice is not modified.
func New(cfg Config, sched Scheduler, jobs []*coflow.Job) (*Simulator, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: Config.Topology is required")
	}
	if sched == nil {
		return nil, fmt.Errorf("sim: scheduler is required")
	}
	cfg.applyDefaults()
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("sim: Tick must be positive, got %v", cfg.Tick)
	}
	if cfg.StageDelay < 0 {
		return nil, fmt.Errorf("sim: StageDelay must be >= 0, got %v", cfg.StageDelay)
	}
	if cfg.MaxFlowRate < 0 {
		return nil, fmt.Errorf("sim: MaxFlowRate must be >= 0, got %v", cfg.MaxFlowRate)
	}
	if cfg.RTT < 0 || cfg.InitWindow < 0 {
		return nil, fmt.Errorf("sim: RTT and InitWindow must be >= 0")
	}
	if cfg.Dependency != DepCoflow && cfg.Dependency != DepTask {
		return nil, fmt.Errorf("sim: unknown dependency mode %v", cfg.Dependency)
	}
	alloc, err := netmod.NewAllocator(cfg.Topology, cfg.Queues, cfg.Mode,
		netmod.WithUtilization(cfg.Utilization))
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Simulator{cfg: cfg, sched: sched, alloc: alloc}
	s.queue = eventq.New(cfg.EventQueue)
	// The tick and completion-marker actions are hoisted here so the
	// steady-state event path schedules them without materializing a new
	// closure per event (part of the 0 allocs/op contract pinned by
	// BenchmarkSteadyStateEvent).
	s.tickFn = func() {
		s.tickPending = false
		s.ensureTick()
	}
	s.noopFn = func() {}
	s.reg = cfg.Registry
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.histDirty = s.reg.Histogram("sched_dirty_set")
	s.histActive = s.reg.Histogram("active_flows")
	if ds, ok := sched.(DecisionScorer); ok {
		s.scorer = ds
	}
	if cfg.VerifyIncremental {
		s.verify, err = netmod.NewAllocator(cfg.Topology, cfg.Queues, cfg.Mode,
			netmod.WithUtilization(cfg.Utilization))
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	s.taskDeps = cfg.Dependency == DepTask

	// Schedulers key state on job, coflow, and flow IDs; duplicates across
	// the workload silently corrupt those maps, so reject them up front.
	// (Builders given shared counters, and all generators, produce unique
	// IDs automatically.)
	jobIDs := make(map[coflow.JobID]bool, len(jobs))
	coflowIDs := make(map[coflow.CoflowID]bool)
	flowIDs := make(map[coflow.FlowID]bool)
	for _, j := range jobs {
		if jobIDs[j.ID] {
			return nil, fmt.Errorf("sim: duplicate job ID %d", j.ID)
		}
		jobIDs[j.ID] = true
		for _, c := range j.Coflows {
			if coflowIDs[c.ID] {
				return nil, fmt.Errorf("sim: duplicate coflow ID %d (build jobs with shared ID counters)", c.ID)
			}
			coflowIDs[c.ID] = true
			for _, f := range c.Flows {
				if flowIDs[f.ID] {
					return nil, fmt.Errorf("sim: duplicate flow ID %d (build jobs with shared ID counters)", f.ID)
				}
				flowIDs[f.ID] = true
			}
		}
	}

	for _, j := range jobs {
		if j.Arrival < 0 {
			return nil, fmt.Errorf("sim: job %d has negative arrival %v", j.ID, j.Arrival)
		}
	}
	s.jobs = BuildStates(jobs)
	s.coflows = len(coflowIDs)
	if s.taskDeps {
		s.dependents = make([][]*FlowState, len(flowIDs))
		s.feedersLeft = make([]int32, len(flowIDs))
		for _, js := range s.jobs {
			s.wireTaskDependencies(js)
		}
	}
	// Fault events are scheduled before arrivals: at equal timestamps the
	// queue's FIFO tie-break then fires faults first — ahead of arrivals
	// and of every completion/tick event scheduled during the run. This
	// ordering is part of the replayability contract (pinned by tests in
	// internal/eventq and here).
	if err := s.scheduleFaults(); err != nil {
		return nil, err
	}
	// Sort arrival events by time for reproducibility regardless of input
	// order; ties resolve by job ID.
	order := make([]*JobState, len(s.jobs))
	copy(order, s.jobs)
	sort.SliceStable(order, func(a, b int) bool {
		if order[a].Job.Arrival < order[b].Job.Arrival {
			return true
		}
		if order[a].Job.Arrival > order[b].Job.Arrival {
			return false
		}
		return order[a].Job.ID < order[b].Job.ID
	})
	for _, js := range order {
		js := js
		s.queue.Schedule(js.Job.Arrival, func() { s.handleArrival(js) })
	}
	return s, nil
}

// BuildStates builds waiting runtime states for jobs the way New does, each
// with a distinct dense handle: job, coflow and flow indices count up from
// 0 in workload order. It is for code that exercises a Scheduler outside
// the engine (unit tests, alternative frontends); pair it with
// Env{Jobs: len(states), Coflows: <total coflows>} at Init. Jobs must be
// valid DAGs (coflow.Builder output) with unique IDs; BuildStates does not
// re-check them.
//
// The population is known up front, so each slab's first chunk holds every
// state of its type: states are contiguous in memory (stable addresses —
// the pointers handed to schedulers stay valid for the run) and numbered
// densely in construction order (jobs, then each job's coflows, then each
// coflow's flows — the deterministic workload order).
func BuildStates(jobs []*coflow.Job) []*JobState {
	coflows, flows := 0, 0
	for _, j := range jobs {
		coflows += len(j.Coflows)
		for _, c := range j.Coflows {
			flows += len(c.Flows)
		}
	}
	jobSlab := slab.New[JobState](len(jobs))
	coflowSlab := slab.New[CoflowState](coflows)
	flowSlab := slab.New[FlowState](flows)
	out := make([]*JobState, 0, len(jobs))
	for _, j := range jobs {
		jh, js := jobSlab.Alloc()
		*js = JobState{
			Job:              j,
			Handle:           jh,
			RemainingCoflows: len(j.Coflows),
			stageLeft:        make([]int, j.NumStages),
		}
		for _, c := range j.Coflows {
			ch, cs := coflowSlab.Alloc()
			*cs = CoflowState{
				Coflow:          c,
				Job:             js,
				Handle:          ch,
				Phase:           PhaseWaiting,
				PendingChildren: len(c.Children),
				RemainingFlows:  len(c.Flows),
			}
			for _, fl := range c.Flows {
				fh, fs := flowSlab.Alloc()
				*fs = FlowState{
					Flow:      fl,
					Coflow:    cs,
					Handle:    fh,
					Remaining: float64(fl.Size),
					activeIdx: -1,
				}
				cs.Flows = append(cs.Flows, fs)
			}
			js.Coflows = append(js.Coflows, cs)
			js.stageLeft[c.Stage-1]++
		}
		out = append(out, js)
	}
	return out
}

// Run executes the simulation to completion and returns the results. A
// Simulator is single-use.
func (s *Simulator) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	s.sched.Init(Env{
		Topo:    s.cfg.Topology,
		Queues:  s.cfg.Queues,
		Now:     func() float64 { return s.now },
		Jobs:    len(s.jobs),
		Coflows: s.coflows,
	})

	var events int64
	for s.queue.Len() > 0 {
		events++
		if events > s.cfg.MaxEvents {
			return nil, fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v (possible livelock)", s.cfg.MaxEvents, s.now)
		}
		if s.cfg.Interrupt != nil && events&4095 == 1 {
			if err := s.cfg.Interrupt(); err != nil {
				return nil, fmt.Errorf("sim: run interrupted at t=%v after %d events: %w", s.now, events, err)
			}
		}
		t, fire, _ := s.queue.Pop()
		if s.cfg.CheckInvariants && t < s.now {
			s.emitInvariant()
			return nil, fmt.Errorf("sim: invariant violated: clock would move backwards from t=%v to t=%v", s.now, t)
		}
		s.advanceTo(t)
		fire()
		// Batch every event at this instant before reallocating.
		for {
			nt, ok := s.queue.PeekTime()
			if !ok || nt > s.now {
				break
			}
			events++
			_, fire, _ := s.queue.Pop()
			fire()
		}
		if s.faultFired {
			// All same-instant events settled the failure set; now reroute
			// broken flows and readmit repaired ones, then let reallocate
			// fold the capacity deltas into fresh rates.
			s.afterFaults()
		}
		s.reallocate()
		if s.verifyErr != nil {
			s.emitInvariant()
			return nil, s.verifyErr
		}
		if s.faultFired {
			s.faultFired = false
			if s.cfg.CheckInvariants {
				if err := s.checkInvariants(); err != nil {
					s.emitInvariant()
					return nil, err
				}
			}
		}
		if s.faultErr != nil {
			return nil, s.faultErr
		}
	}

	s.result.Scheduler = s.sched.Name()
	s.result.Events = events
	sort.Slice(s.result.Jobs, func(a, b int) bool {
		return s.result.Jobs[a].JobID < s.result.Jobs[b].JobID
	})
	sort.Slice(s.result.Coflows, func(a, b int) bool {
		return s.result.Coflows[a].CoflowID < s.result.Coflows[b].CoflowID
	})
	st := s.alloc.Stats()
	s.result.Counters = map[string]int64{
		"netmod_reallocs":         st.Reallocs,
		"netmod_tier_solves":      st.TierSolves,
		"netmod_waterfill_rounds": st.WaterfillRounds,
	}
	s.reg.Merge(s.result.Counters)
	return &s.result, nil
}

// emitInvariant reports an imminent invariant-violation abort to the sink,
// so a flight-recorder dump ends with the violation marker the issue's
// post-mortem tooling keys on.
func (s *Simulator) emitInvariant() {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{T: s.now, Kind: obs.KindInvariant})
	}
}

// advanceTo moves the clock forward, draining bytes at current rates.
//
//alloc:free runs once per event on the steady-state path; pure arithmetic over live flows
func (s *Simulator) advanceTo(t float64) {
	dt := t - s.now
	if dt < 0 {
		// Guard against float noise in event times.
		dt = 0
	}
	if dt > 0 {
		for _, f := range s.active {
			if f.Demand.Rate > 0 {
				moved := f.Demand.Rate * dt
				if moved > f.Remaining {
					moved = f.Remaining
				}
				f.Remaining -= moved
				f.Sent += moved
				f.Coflow.BytesSent += moved
				f.Coflow.Job.BytesSent += moved
			}
		}
	}
	s.now = t
}

// wireTaskDependencies indexes, for every non-leaf flow, the child flows
// that deliver data to its source server (its "feeders"). Flows with no
// feeders keep coflow-level release semantics.
func (s *Simulator) wireTaskDependencies(js *JobState) {
	for _, cs := range js.Coflows {
		if len(cs.Coflow.Children) == 0 {
			continue
		}
		// Destination index over the children's flow states.
		byDst := make(map[topo.ServerID][]*FlowState)
		for _, child := range cs.Coflow.Children {
			childState := js.Coflows[indexOf(js.Job.Coflows, child)]
			for _, cf := range childState.Flows {
				byDst[cf.Flow.Dst] = append(byDst[cf.Flow.Dst], cf)
			}
		}
		for _, fs := range cs.Flows {
			feeders := byDst[fs.Flow.Src]
			if len(feeders) == 0 {
				continue
			}
			s.feedersLeft[fs.Index()] = int32(len(feeders))
			for _, feeder := range feeders {
				s.dependents[feeder.Index()] = append(s.dependents[feeder.Index()], fs)
			}
		}
	}
}

func (s *Simulator) handleArrival(js *JobState) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{T: s.now, Kind: obs.KindJobArrival, Job: int64(js.Job.ID)})
	}
	s.sched.OnJobArrival(js)
	for _, cs := range js.Coflows {
		if cs.PendingChildren == 0 {
			s.releaseCoflow(cs)
		}
	}
	s.ensureTick()
}

// releaseCoflow starts every not-yet-started flow of the coflow.
func (s *Simulator) releaseCoflow(cs *CoflowState) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindStageRelease,
			Job: int64(cs.Job.Job.ID), Coflow: int64(cs.Coflow.ID),
			Stage: int32(cs.Coflow.Stage),
		})
	}
	s.reg.Add("stage_releases", 1)
	for _, fs := range cs.Flows {
		s.startFlow(fs)
	}
}

// startFlow admits one flow into the network; the first flow of a coflow
// transitions it to PhaseActive and notifies the scheduler.
func (s *Simulator) startFlow(fs *FlowState) {
	if fs.started {
		return
	}
	fs.MarkStarted(s.now)
	s.startedFlows++
	fl := fs.Flow
	hash := topo.ECMPHash(fl.Src, fl.Dst, uint64(fl.ID))
	admitted := true
	if s.downLinks > 0 {
		// Route around the current failure set; with no surviving path the
		// flow stalls at birth (still an open connection) and retries.
		path, ok := s.cfg.Topology.SurvivingPath(nil, fl.Src, fl.Dst, hash, s.isLinkDown)
		if ok {
			fs.Demand.Path = path
		} else {
			admitted = false
		}
	} else {
		fs.Demand.Path = s.cfg.Topology.Path(fl.Src, fl.Dst, hash)
	}
	fs.Demand.MaxRate = s.cfg.MaxFlowRate
	if admitted {
		fs.activeIdx = len(s.active)
		s.active = append(s.active, fs)
		// Registration with the allocator happens at the next reallocate,
		// after the scheduler has assigned the flow's queue.
		s.added = append(s.added, fs)
	} else {
		fs.Demand.Rate = 0
		s.stallFlow(fs)
	}
	s.result.TotalBytes += fl.Size
	if len(s.active) > s.result.MaxActiveFlows {
		s.result.MaxActiveFlows = len(s.active)
	}

	cs := fs.Coflow
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindFlowStart,
			Job: int64(cs.Job.Job.ID), Coflow: int64(cs.Coflow.ID),
			Flow: int64(fl.ID), Stage: int32(cs.Coflow.Stage),
			Val: float64(fl.Size),
		})
	}
	if cs.Phase == PhaseWaiting {
		cs.Phase = PhaseActive
		cs.Started = s.now
		if s.cfg.Obs != nil {
			s.cfg.Obs.Event(obs.Event{
				T: s.now, Kind: obs.KindCoflowStart,
				Job: int64(cs.Job.Job.ID), Coflow: int64(cs.Coflow.ID),
				Stage: int32(cs.Coflow.Stage),
			})
		}
		s.sched.OnCoflowStart(cs)
	}
}

// finishFlow retires a completed flow and cascades coflow/job completion.
func (s *Simulator) finishFlow(fs *FlowState) {
	fs.Done = true
	fs.Finished = s.now
	fs.Remaining = 0
	s.finishedFlows++
	s.alloc.Unregister(&fs.Demand)

	// Swap-remove from the active set.
	i := fs.activeIdx
	last := len(s.active) - 1
	s.active[i] = s.active[last]
	s.active[i].activeIdx = i
	s.active = s.active[:last]
	fs.activeIdx = -1

	// Task-level release: parent flows fed solely by completed child flows
	// may start before the whole child coflow finishes (§I).
	if s.taskDeps {
		for _, parent := range s.dependents[fs.Index()] {
			s.feedersLeft[parent.Index()]--
			if s.feedersLeft[parent.Index()] == 0 {
				if s.cfg.StageDelay > 0 {
					parent := parent
					s.queue.Schedule(s.now+s.cfg.StageDelay, func() { s.startFlow(parent) })
				} else {
					s.startFlow(parent)
				}
			}
		}
	}

	cs := fs.Coflow
	cs.activeFlows--
	cs.RemainingFlows--
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindFlowFinish,
			Job: int64(cs.Job.Job.ID), Coflow: int64(cs.Coflow.ID),
			Flow: int64(fs.Flow.ID), Stage: int32(cs.Coflow.Stage),
		})
	}
	if cs.RemainingFlows > 0 {
		return
	}

	// Coflow completed.
	cs.Phase = PhaseDone
	cs.Finished = s.now
	js := cs.Job
	s.result.Coflows = append(s.result.Coflows, CoflowResult{
		CoflowID: cs.Coflow.ID,
		JobID:    js.Job.ID,
		Stage:    cs.Coflow.Stage,
		Started:  cs.Started,
		Finished: cs.Finished,
		CCT:      cs.Finished - cs.Started,
		Bytes:    cs.Coflow.TotalBytes(),
		Width:    cs.Coflow.Width(),
	})
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindCoflowFinish,
			Job: int64(js.Job.ID), Coflow: int64(cs.Coflow.ID),
			Stage: int32(cs.Coflow.Stage), Val: cs.Finished - cs.Started,
		})
	}
	js.stageLeft[cs.Coflow.Stage-1]--
	for js.CompletedStages < len(js.stageLeft) && js.stageLeft[js.CompletedStages] == 0 {
		js.CompletedStages++
	}
	s.sched.OnCoflowComplete(cs)

	// Release parents whose children are now all complete.
	for _, p := range cs.Coflow.Parents {
		ps := js.Coflows[indexOf(js.Job.Coflows, p)]
		ps.PendingChildren--
		if ps.PendingChildren == 0 {
			if s.cfg.StageDelay > 0 {
				ps := ps
				s.queue.Schedule(s.now+s.cfg.StageDelay, func() { s.releaseCoflow(ps) })
			} else {
				s.releaseCoflow(ps)
			}
		}
	}

	js.RemainingCoflows--
	if js.RemainingCoflows == 0 {
		js.Done = true
		js.Finished = s.now
		if s.now > s.result.EndTime {
			s.result.EndTime = s.now
		}
		s.result.Jobs = append(s.result.Jobs, JobResult{
			JobID:      js.Job.ID,
			Arrival:    js.Job.Arrival,
			Finished:   js.Finished,
			JCT:        js.Finished - js.Job.Arrival,
			TotalBytes: js.Job.TotalBytes(),
			NumStages:  js.Job.NumStages,
			NumCoflows: len(js.Job.Coflows),
		})
		if s.cfg.Obs != nil {
			s.cfg.Obs.Event(obs.Event{
				T: s.now, Kind: obs.KindJobFinish,
				Job: int64(js.Job.ID), Val: js.Finished - js.Job.Arrival,
			})
		}
		s.sched.OnJobComplete(js)
	}
}

// indexOf locates a coflow within its job's static slice. Jobs have modest
// coflow counts (production mean depth 5), so a linear scan beats a map.
func indexOf(cs []*coflow.Coflow, c *coflow.Coflow) int {
	for i, x := range cs {
		if x == c {
			return i
		}
	}
	return -1
}

// reallocate refreshes priorities and rates, finishes any flows that are
// already done, and schedules the next completion event. Rates are
// recomputed only when the event actually changed the demand set — a flow
// was admitted or retired, a queue moved, or a cap ramped — and then only
// from the lowest dirty priority tier down (see netmod.Reallocate). The
// completion scan below always runs: it is O(active), allocation-free, and
// re-deriving the next completion time from the same Remaining/Rate values
// every event keeps the event trajectory bit-identical to the batch
// engine's.
func (s *Simulator) reallocate() {
	// Retire flows drained by advanceTo (batch completions at this instant).
	// finishFlow swap-removes index i (so it is re-examined) and may start
	// parent coflows, whose flows append to the tail and are scanned too.
	for i := 0; i < len(s.active); i++ {
		if s.active[i].Remaining <= epsBytes {
			s.finishFlow(s.active[i])
			i--
		}
	}

	if !s.pendingDone.Zero() {
		s.queue.Cancel(s.pendingDone)
		s.pendingDone = eventq.Handle{}
	}
	if len(s.active) == 0 {
		s.added = s.added[:0]
		return
	}

	// TCP slow start: cap each flow's rate by its ramping congestion
	// window; while any flow ramps, wake up every RTT so caps refresh.
	ramping := false
	if s.cfg.TCPSlowStart {
		for _, f := range s.active {
			cap := s.slowStartCap(s.now - f.Started)
			if cap < s.cfg.MaxFlowRate {
				ramping = true
			} else {
				cap = s.cfg.MaxFlowRate
			}
			//lint:ignore floatcmp change detection: the cap is recomputed from the same inputs each tick, so bitwise inequality is exactly "the cap moved"
			if f.Demand.MaxRate != cap {
				f.Demand.MaxRate = cap
				s.alloc.Update(&f.Demand)
			}
		}
	}

	s.dirty = s.sched.AssignQueues(s.now, s.active, s.added, s.dirty[:0])
	s.histDirty.Observe(float64(len(s.dirty)))
	s.histActive.Observe(float64(len(s.active)))
	if s.cfg.Obs != nil {
		s.emitDecisions()
	}
	for _, f := range s.added {
		if !f.Done {
			s.alloc.Register(&f.Demand)
		}
	}
	s.added = s.added[:0]
	for _, f := range s.dirty {
		s.alloc.Update(&f.Demand)
	}
	if s.alloc.Dirty() {
		if s.cfg.Obs != nil {
			s.cfg.Obs.Event(obs.Event{
				T: s.now, Kind: obs.KindReallocation,
				Arg: int64(len(s.dirty)), Val: float64(len(s.active)),
			})
		}
		s.alloc.Reallocate()
		if s.verify != nil {
			s.checkAgainstBatch()
		}
	}

	next := -1.0
	for _, f := range s.active {
		if f.Demand.Rate <= 0 {
			continue
		}
		t := f.Remaining / f.Demand.Rate
		if next < 0 || t < next {
			next = t
		}
	}
	if next >= 0 {
		// Never schedule in the past relative to float granularity.
		at := s.now + next
		if at <= s.now {
			at = s.now + 1e-12
		}
		s.pendingDone = s.queue.Schedule(at, s.noopFn)
	}
	if ramping && !s.rampPending {
		s.rampPending = true
		s.queue.Schedule(s.now+s.cfg.RTT, func() { s.rampPending = false })
	}
	if s.cfg.Probe != nil && (!s.probed || s.now-s.lastProbe >= s.cfg.Tick) {
		s.probed = true
		s.lastProbe = s.now
		s.cfg.Probe(s.now, s.active)
	}
	s.ensureTick()
}

// emitDecisions records the audit-log entries for one AssignQueues outcome:
// a first assignment for every newly admitted flow and a reassignment (plus
// a priority-change event) for every flow the scheduler reported moved, each
// carrying the decision scalar when the scheduler exposes one. Only called
// with a non-nil sink — the disabled path never reaches this function.
func (s *Simulator) emitDecisions() {
	dn := int32(len(s.dirty))
	for _, f := range s.added {
		s.emitDecision(f, dn, true)
	}
	for _, f := range s.dirty {
		s.emitDecision(f, dn, false)
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindPriorityChange,
			Job: int64(f.Coflow.Job.Job.ID), Coflow: int64(f.Coflow.Coflow.ID),
			Flow: int64(f.Flow.ID), Queue: int32(f.Demand.Queue),
		})
	}
}

func (s *Simulator) emitDecision(f *FlowState, dirty int32, isNew bool) {
	d := obs.Decision{
		T:      s.now,
		Job:    int64(f.Coflow.Job.Job.ID),
		Coflow: int64(f.Coflow.Coflow.ID),
		Flow:   int64(f.Flow.ID),
		Queue:  int32(f.Demand.Queue),
		Dirty:  dirty,
		New:    isNew,
	}
	if s.scorer != nil {
		d.Score, d.HasScore = s.scorer.DecisionScore(f)
	}
	s.cfg.Obs.Decision(d)
}

// checkAgainstBatch re-solves the current demand set with the reference
// batch allocator on snapshot copies and records an error unless every rate
// is bit-identical to the incremental result.
func (s *Simulator) checkAgainstBatch() {
	s.verifyBuf = s.verifyBuf[:0]
	s.verifyPtrs = s.verifyPtrs[:0]
	for _, f := range s.active {
		s.verifyBuf = append(s.verifyBuf, f.Demand.Snapshot())
	}
	for i := range s.verifyBuf {
		s.verifyPtrs = append(s.verifyPtrs, &s.verifyBuf[i])
	}
	s.verify.Allocate(s.verifyPtrs)
	for i, f := range s.active {
		//lint:ignore floatcmp the delta≡batch contract IS bitwise identity; an epsilon here would hide exactly the drift this check exists to catch
		if f.Demand.Rate != s.verifyBuf[i].Rate {
			s.verifyErr = fmt.Errorf(
				"sim: incremental allocation diverged from batch at t=%v: flow %d (queue %d) rate %v, batch %v",
				s.now, f.Flow.ID, f.Queue(), f.Demand.Rate, s.verifyBuf[i].Rate)
			return
		}
	}
}

// slowStartCap returns the rate allowed by a congestion window that started
// ramping age seconds ago: InitWindow/RTT doubling every RTT.
func (s *Simulator) slowStartCap(age float64) float64 {
	if age < 0 {
		age = 0
	}
	return s.cfg.InitWindow / s.cfg.RTT * math.Pow(2, age/s.cfg.RTT)
}

// ensureTick keeps the periodic scheduler tick alive while flows are active.
func (s *Simulator) ensureTick() {
	if s.tickPending || len(s.active) == 0 {
		return
	}
	s.tickPending = true
	s.queue.Schedule(s.now+s.cfg.Tick, s.tickFn)
}
