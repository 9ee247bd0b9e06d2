// Package hr models the paper's decentralized coordination plane (§IV.B
// "Priority decision"): each job designates a head receiver (HR) — the first
// receiver invoked in a coflow — and every other receiver reports its
// locally observed information (bytes received per flow, number of open
// connections) to the HR at a regular interval δ. The HR therefore makes
// priority decisions from *stale* observations; only at the next reporting
// round does it see newer state.
//
// The Aggregator reproduces exactly that information model for the
// schedulers that are decentralized in the paper (Gurita, Stream): readers
// see the snapshot taken at the last completed reporting round, never the
// live state. Centralized Aalo bypasses this package (the paper grants it
// instantaneous global knowledge in simulation).
package hr

import (
	"gurita/internal/faults"
	"gurita/internal/sim"
	"gurita/internal/topo"
)

// CoflowObs is what a head receiver knows about one coflow after a
// reporting round.
type CoflowObs struct {
	// Width is the number of open connections (flows currently
	// transmitting), the receiver-side estimate of the horizontal dimension.
	Width int
	// Largest is the maximum bytes received over the coflow's flows, the
	// estimate of the vertical dimension L.
	Largest float64
	// Mean is the mean bytes received per flow (estimates f_avg).
	Mean float64
	// Bytes is the coflow's total bytes received so far.
	Bytes float64
	// Stage is the coflow's stage as registered through the framework
	// master (the paper obtains it from the application's coflow API).
	Stage int
	// JobCompletedStages is the job's completed-stage counter s at the
	// reporting round.
	JobCompletedStages int
	// Done reports whether the coflow had already completed at the round.
	Done bool
}

// JobObs is what the HR knows about a whole job after a reporting round.
type JobObs struct {
	// Bytes is the job's accumulated total bytes sent (TBS) — the quantity
	// TBS-based schedulers key on.
	Bytes float64
	// CompletedStages is the paper's s.
	CompletedStages int
}

// Aggregator snapshots receiver observations every delta seconds.
// The zero value is unusable; use New, then Init. Not safe for concurrent
// use — the simulator is single-threaded.
//
// Snapshots live in dense tables indexed by CoflowState.Index and
// JobState.Index, double-buffered so stale hosts can keep serving the
// previous round. Every entry carries the round that wrote it: an entry
// belongs to the current snapshot only while its stamp equals round, and to
// the previous one while it equals round-1, so a reporting round overwrites
// the entries of the coflows it sees and never clears a table.
type Aggregator struct {
	delta    float64
	last     float64
	hasRound bool

	// round numbers the current snapshot. It starts at 1, so zero-stamped
	// (never written) entries belong to no snapshot, and advances once per
	// completed reporting round; cur selects which buffer of each pair is
	// the current one.
	round   uint32
	cur     int
	coflows [2][]coflowEntry
	jobs    [2][]jobEntry

	// Control-plane fault state (see DropRounds, Suspend, MarkHostStale).
	dropNext     int
	suspendUntil float64
	staleHosts   map[topo.ServerID]float64
}

type coflowEntry struct {
	obs   CoflowObs
	round uint32
}

type jobEntry struct {
	obs   JobObs
	round uint32
}

// New builds an aggregator with reporting interval delta (seconds). A
// non-positive delta means "report continuously": every Refresh snapshots.
func New(delta float64) *Aggregator {
	return &Aggregator{delta: delta, round: 1}
}

// Init sizes the snapshot tables for a run's states (env.Jobs and
// env.Coflows bound their dense indices). Schedulers call it from their own
// Init, before the first Refresh.
func (a *Aggregator) Init(env sim.Env) {
	for i := range a.coflows {
		a.coflows[i] = make([]coflowEntry, env.Coflows)
		a.jobs[i] = make([]jobEntry, env.Jobs)
	}
}

// Delta returns the reporting interval.
func (a *Aggregator) Delta() float64 { return a.delta }

// Refresh runs a reporting round if one is due at time now, snapshotting
// the supplied active coflow states. It returns true when a round ran.
// Completed coflows are retired from the snapshot at the following round
// (the paper: "the HR excludes information of completed flows").
func (a *Aggregator) Refresh(now float64, active []*sim.CoflowState) bool {
	if a.hasRound && a.delta > 0 && now-a.last < a.delta {
		return false
	}
	if now < a.suspendUntil {
		// Control plane delayed: the round that would be due does not run;
		// readers keep the pre-fault snapshot.
		return false
	}
	if a.dropNext > 0 {
		// The round's reports were lost in flight: the round slot is
		// consumed (the next one is a full δ away) but the snapshot stays.
		a.dropNext--
		a.last = now
		a.hasRound = true
		return false
	}
	a.last = now
	a.hasRound = true

	// The current snapshot becomes the previous one, which stale hosts keep
	// serving; the new round's entries are stamped with the new round
	// number, so coflows it does not see (completed ones) drop out.
	prevRound := a.round
	a.round++
	a.cur ^= 1
	cofs, jobs := a.coflows[a.cur], a.jobs[a.cur]
	prevCofs, prevJobs := a.coflows[a.cur^1], a.jobs[a.cur^1]
	for h, until := range a.staleHosts {
		if now >= until {
			delete(a.staleHosts, h)
		}
	}
	for _, cs := range active {
		js := cs.Job
		ci, ji := cs.Index(), js.Index()
		if h, ok := headReceiver(cs); ok {
			if until, stale := a.staleHosts[h]; stale && now < until {
				// Reports from this HR's host are lost: it keeps serving
				// whatever it knew at the last healthy round (nothing, if it
				// had never reported).
				if prev := prevCofs[ci]; prev.round == prevRound {
					cofs[ci] = coflowEntry{prev.obs, a.round}
				}
				if jobs[ji].round != a.round {
					if prev := prevJobs[ji]; prev.round == prevRound {
						jobs[ji] = jobEntry{prev.obs, a.round}
					}
				}
				continue
			}
		}
		cofs[ci] = coflowEntry{CoflowObs{
			Width:              cs.ObservedWidth(),
			Largest:            cs.ObservedLargest(),
			Mean:               cs.ObservedMeanFlowSize(),
			Bytes:              cs.BytesSent,
			Stage:              cs.Coflow.Stage,
			JobCompletedStages: js.CompletedStages,
			Done:               cs.Phase == sim.PhaseDone,
		}, a.round}
		jobs[ji] = jobEntry{JobObs{
			Bytes:           js.BytesSent,
			CompletedStages: js.CompletedStages,
		}, a.round}
	}
	return true
}

// headReceiver returns the server hosting the coflow's head receiver — the
// first receiver invoked, i.e. the destination of the coflow's first flow.
func headReceiver(cs *sim.CoflowState) (topo.ServerID, bool) {
	if len(cs.Flows) == 0 {
		return 0, false
	}
	return cs.Flows[0].Flow.Dst, true
}

// DropRounds makes the next n due reporting rounds lose their reports: each
// consumes its round slot but leaves every reader on the previous snapshot.
// Models dropped priority-refresh rounds in a lossy control plane.
func (a *Aggregator) DropRounds(n int) {
	if n > 0 {
		a.dropNext += n
	}
}

// Suspend suppresses reporting rounds before time until (seconds): no round
// runs and no round slot is consumed, so the first Refresh at or after the
// deadline snapshots normally. Models a partitioned or pausing control
// plane. Overlapping suspensions keep the latest deadline.
func (a *Aggregator) Suspend(until float64) {
	if until > a.suspendUntil {
		a.suspendUntil = until
	}
}

// MarkHostStale makes reports from host h invisible until the given time:
// coflows whose head receiver lives on h keep their previous-round
// observation while the rest of the fabric refreshes normally.
func (a *Aggregator) MarkHostStale(h topo.ServerID, until float64) {
	if a.staleHosts == nil {
		a.staleHosts = make(map[topo.ServerID]float64)
	}
	if until > a.staleHosts[h] {
		a.staleHosts[h] = until
	}
}

// OnControlFault applies a control-plane fault event to the aggregator.
// Schedulers that report through an HR forward sim.ControlFaultObserver
// callbacks here; events of non-control kinds are ignored.
func (a *Aggregator) OnControlFault(now float64, ev faults.Event) {
	switch ev.Kind {
	case faults.CtrlDropRounds:
		n := ev.Count
		if n < 1 {
			n = 1
		}
		a.DropRounds(n)
	case faults.CtrlDelay:
		a.Suspend(now + ev.Duration)
	case faults.CtrlStaleHost:
		a.MarkHostStale(ev.Host, now+ev.Duration)
	}
}

// Coflow returns the last-round observation for a coflow. ok is false when
// the coflow has not yet appeared in any round — the paper's "too small to
// wait for decisions from HR" case, which callers treat as highest priority.
func (a *Aggregator) Coflow(cs *sim.CoflowState) (CoflowObs, bool) {
	e := &a.coflows[a.cur][cs.Index()]
	if e.round != a.round {
		return CoflowObs{}, false
	}
	return e.obs, true
}

// Job returns the last-round observation for a job.
func (a *Aggregator) Job(js *sim.JobState) (JobObs, bool) {
	e := &a.jobs[a.cur][js.Index()]
	if e.round != a.round {
		return JobObs{}, false
	}
	return e.obs, true
}
