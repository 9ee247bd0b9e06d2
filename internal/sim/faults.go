// Fault injection: replaying a faults.Schedule inside the engine.
//
// Data-plane faults flow into the allocator through the delta capacity API
// (netmod.SetLinkCapacity): a failed link's capacity drops to zero, a
// degraded NIC's host links shrink by the event factor. Flows whose path
// crosses a failed link are rerouted onto the surviving equal-cost paths
// (topo.SurvivingPath, deterministic probe order seeded by the flow's ECMP
// hash); when every candidate path is broken the flow stalls — it leaves
// the allocator at rate zero but stays an open connection — and retries
// with exponential backoff, plus an immediate retry whenever a repair event
// lands. A stalled flow whose fabric can never be repaired (no fault events
// left in the schedule) aborts the run with a descriptive error instead of
// spinning.
//
// Control-plane faults are forwarded to the scheduler when it implements
// ControlFaultObserver; schedulers without a control plane ignore them.
//
// Determinism: fault events are scheduled at construction time, before job
// arrivals, so at equal timestamps the event queue's FIFO tie-break fires
// faults first — before arrivals and before every event scheduled during
// the run; the completion wake-up and the tick, which are not queue
// entries, come after every queue event at their instant. Reroute and
// stall sweeps walk the active set in slice order.
// Replaying the same schedule therefore reproduces the same trajectory
// byte for byte.

package sim

import (
	"fmt"
	"math"

	"gurita/internal/eventq"
	"gurita/internal/faults"
	"gurita/internal/obs"
	"gurita/internal/topo"
)

// ControlFaultObserver is implemented by schedulers whose control plane can
// degrade: the engine forwards CtrlDropRounds / CtrlDelay / CtrlStaleHost
// events to it. Schedulers that do not implement it (or have no control
// plane, like PFS) silently ignore control-plane faults.
type ControlFaultObserver interface {
	OnControlFault(now float64, ev faults.Event)
}

// Stalled-flow retry backoff: first retry after retryBackoff0 seconds,
// doubling per failed attempt, capped at retryBackoffMax. Repair events
// additionally trigger an immediate readmission sweep, so the timers are a
// bounded-cost backstop (mirroring TCP's retransmission backoff), not the
// primary recovery path.
const (
	retryBackoff0   = 0.05
	retryBackoffMax = 5.0
)

// stalledFlow tracks one flow waiting out a partition.
type stalledFlow struct {
	fs       *FlowState
	attempts int
	retry    eventq.Handle
	idx      int // position in Simulator.stalled
}

// scheduleFaults validates and enqueues the configured fault schedule. It
// must run before arrival events are scheduled so faults win same-instant
// ties (see the package comment on determinism).
func (s *Simulator) scheduleFaults() error {
	sched := s.cfg.Faults
	if sched.Empty() {
		return nil
	}
	if err := sched.Validate(s.cfg.Topology); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	s.faultsOn = true
	s.downRef = make([]int32, s.cfg.Topology.NumLinks())
	if cfo, ok := s.sched.(ControlFaultObserver); ok {
		s.ctrlObs = cfo
	}
	s.pendingFaults = len(sched.Events)
	for _, ev := range sched.Events {
		ev := ev
		s.queue.Schedule(ev.Time, func() { s.handleFault(ev) })
	}
	return nil
}

// handleFault applies one fault event. Reroute/readmit sweeps are deferred
// to afterFaults so that all same-instant events settle the down set first
// (a switch failure lands many link-down deltas at once).
func (s *Simulator) handleFault(ev faults.Event) {
	s.pendingFaults--
	s.faultFired = true
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindFault,
			Arg: int64(ev.Kind), Val: ev.Factor,
		})
	}
	s.reg.Add("faults_fired", 1)
	switch ev.Kind {
	case faults.LinkDown:
		s.linkDownDelta(ev.Link, +1)
	case faults.LinkUp:
		s.linkDownDelta(ev.Link, -1)
	case faults.SwitchDown, faults.SwitchUp:
		d := +1
		if ev.Kind == faults.SwitchUp {
			d = -1
		}
		s.switchLinksBuf, _ = s.cfg.Topology.AppendSwitchLinks(s.switchLinksBuf[:0], ev.Switch)
		for _, l := range s.switchLinksBuf {
			s.linkDownDelta(l, d)
		}
	case faults.NICDegrade:
		s.setNICFactor(ev.Host, ev.Factor)
	case faults.NICRestore:
		s.setNICFactor(ev.Host, 1)
	case faults.CtrlDropRounds, faults.CtrlDelay, faults.CtrlStaleHost:
		if s.ctrlObs != nil {
			s.ctrlObs.OnControlFault(s.now, ev)
		}
	}
}

// linkDownDelta adjusts a link's failure reference count (a link can be
// down both directly and through its switch) and refreshes its capacity on
// the up/down edge.
func (s *Simulator) linkDownDelta(l topo.LinkID, d int) {
	was := s.downRef[l] > 0
	s.downRef[l] += int32(d)
	if s.downRef[l] < 0 {
		// Repair without a matching failure (hand-written schedule); treat
		// the link as healthy rather than corrupting the count.
		s.downRef[l] = 0
	}
	is := s.downRef[l] > 0
	if was == is {
		return
	}
	if is {
		s.downLinks++
		s.needReroute = true
	} else {
		s.downLinks--
		s.needReadmit = true
	}
	s.refreshLinkCapacity(l)
}

// setNICFactor scales one host's uplink and downlink capacity.
func (s *Simulator) setNICFactor(h topo.ServerID, factor float64) {
	if s.degradeF == nil {
		s.degradeF = make([]float64, s.cfg.Topology.NumLinks())
		for i := range s.degradeF {
			s.degradeF[i] = 1
		}
	}
	up, dn := s.cfg.Topology.ServerUplink(h), s.cfg.Topology.ServerDownlink(h)
	s.degradeF[up] = factor
	s.degradeF[dn] = factor
	s.refreshLinkCapacity(up)
	s.refreshLinkCapacity(dn)
}

// effCapacity returns the link's capacity with faults applied.
func (s *Simulator) effCapacity(l topo.LinkID) float64 {
	if s.downRef != nil && s.downRef[l] > 0 {
		return 0
	}
	c := s.cfg.Topology.LinkCapacity(l)
	if s.degradeF != nil {
		c *= s.degradeF[l]
	}
	return c
}

// refreshLinkCapacity pushes a link's effective capacity into the
// allocator (and the batch-reference allocator, which must solve against
// the same fabric for VerifyIncremental to stay meaningful).
func (s *Simulator) refreshLinkCapacity(l topo.LinkID) {
	eff := s.effCapacity(l)
	// With no degradation in force effCapacity returns the nominal capacity
	// bit-for-bit, and only that exact case may clear the override.
	if eff == s.cfg.Topology.LinkCapacity(l) {
		s.alloc.ClearLinkCapacity(l)
		if s.verify != nil {
			s.verify.ClearLinkCapacity(l)
		}
		return
	}
	s.alloc.SetLinkCapacity(l, eff)
	if s.verify != nil {
		s.verify.SetLinkCapacity(l, eff)
	}
}

// afterFaults runs once per instant after every same-time event fired:
// reroutes or stalls flows whose path broke, then readmits stalled flows
// that a repair made routable again.
func (s *Simulator) afterFaults() {
	if s.needReroute {
		s.needReroute = false
		s.sweepBrokenPaths()
	}
	if s.needReadmit {
		s.needReadmit = false
		s.sweepStalled()
	}
}

func (s *Simulator) isLinkDown(l topo.LinkID) bool { return s.downRef[l] > 0 }

func (s *Simulator) pathBroken(path []topo.LinkID) bool {
	for _, l := range path {
		if s.downRef[l] > 0 {
			return true
		}
	}
	return false
}

// survivingPathFor resolves the flow's route over the surviving fabric.
func (s *Simulator) survivingPathFor(fs *FlowState) ([]topo.LinkID, bool) {
	fl := fs.Flow
	return s.cfg.Topology.SurvivingPath(nil, fl.Src, fl.Dst,
		topo.ECMPHash(fl.Src, fl.Dst, uint64(fl.ID)), s.isLinkDown)
}

// sweepBrokenPaths reroutes every active flow crossing a failed link onto a
// surviving equal-cost path, or stalls it when src and dst are partitioned.
// Flows admitted this very instant already routed around the down set in
// startFlow (faults fire before arrivals at equal timestamps), so every
// broken-path flow found here is registered with the allocator.
func (s *Simulator) sweepBrokenPaths() {
	for i := 0; i < len(s.active); i++ {
		fs := s.active[i]
		if !s.pathBroken(fs.Demand.Path) {
			continue
		}
		if fs.Remaining <= epsBytes {
			// Fully drained at this very instant (completion and fault share
			// the timestamp): the completion scan in reallocate retires it;
			// stalling a finished transfer would be artificial.
			continue
		}
		s.alloc.Unregister(&fs.Demand)
		if path, ok := s.survivingPathFor(fs); ok {
			// Rerouted flows keep their assigned queue; re-registering on
			// the new path marks the tier dirty for the next Reallocate.
			fs.Demand.Path = path
			s.alloc.Register(&fs.Demand)
			continue
		}
		s.stallFlow(fs)
		i--
	}
}

// stallFlow parks an active (or just-started) flow whose destination is
// unreachable. The flow stays an open connection — the receiver still sees
// it, so observed widths do not change — but leaves the allocator and
// transmits nothing until readmitted.
func (s *Simulator) stallFlow(fs *FlowState) {
	if fs.activeIdx >= 0 {
		i := fs.activeIdx
		last := len(s.active) - 1
		s.active[i] = s.active[last]
		s.active[i].activeIdx = i
		s.active = s.active[:last]
		fs.activeIdx = -1
	}
	fs.Demand.Rate = 0
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindStall,
			Job: int64(fs.Coflow.Job.Job.ID), Coflow: int64(fs.Coflow.Coflow.ID),
			Flow: int64(fs.Flow.ID),
		})
	}
	s.reg.Add("flow_stalls", 1)
	var st *stalledFlow
	if n := len(s.stalledPool); n > 0 {
		st = s.stalledPool[n-1]
		s.stalledPool = s.stalledPool[:n-1]
		*st = stalledFlow{}
	} else {
		st = &stalledFlow{}
	}
	st.fs, st.idx = fs, len(s.stalled)
	s.stalled = append(s.stalled, st)
	s.scheduleRetry(st)
}

// sweepStalled readmits every stalled flow the current fabric can route, in
// stall order (deterministic).
func (s *Simulator) sweepStalled() {
	for i := 0; i < len(s.stalled); i++ {
		st := s.stalled[i]
		path, ok := s.survivingPathFor(st.fs)
		if !ok {
			continue
		}
		s.readmit(st, path)
		i--
	}
}

// readmit returns a stalled flow to the active set. It rides the normal
// admission path — appended to added, so the scheduler assigns its queue at
// the next AssignQueues exactly like a new connection (a reconnect after a
// partition is a fresh connection from the fabric's point of view).
func (s *Simulator) readmit(st *stalledFlow, path []topo.LinkID) {
	if !st.retry.Zero() {
		s.queue.Cancel(st.retry)
		st.retry = eventq.Handle{}
	}
	last := len(s.stalled) - 1
	moved := s.stalled[last]
	s.stalled[st.idx] = moved
	moved.idx = st.idx
	s.stalled[last] = nil
	s.stalled = s.stalled[:last]

	fs := st.fs
	st.fs = nil
	s.stalledPool = append(s.stalledPool, st)
	fs.Demand.Path = path
	fs.activeIdx = len(s.active)
	s.active = append(s.active, fs)
	s.added = append(s.added, fs)
	if s.cfg.Obs != nil {
		s.cfg.Obs.Event(obs.Event{
			T: s.now, Kind: obs.KindReadmit,
			Job: int64(fs.Coflow.Job.Job.ID), Coflow: int64(fs.Coflow.Coflow.ID),
			Flow: int64(fs.Flow.ID),
		})
	}
	s.reg.Add("flow_readmits", 1)
	if len(s.active) > s.result.MaxActiveFlows {
		s.result.MaxActiveFlows = len(s.active)
	}
}

// scheduleRetry arms the stalled flow's next routing attempt.
func (s *Simulator) scheduleRetry(st *stalledFlow) {
	// retryBackoff0·2^attempts, scaled exactly on every platform.
	backoff := math.Ldexp(retryBackoff0, st.attempts)
	if backoff > retryBackoffMax {
		backoff = retryBackoffMax
	}
	st.retry = s.queue.Schedule(s.now+backoff, func() { s.retryStalled(st) })
}

// retryStalled is the backoff timer: try to route; on failure either back
// off again (repairs still pending) or abort the run (the schedule holds no
// more repair events, so the partition is permanent and the job would never
// complete — surfacing that beats spinning to MaxEvents).
func (s *Simulator) retryStalled(st *stalledFlow) {
	st.retry = eventq.Handle{}
	if st.fs.activeIdx >= 0 || st.fs.Done {
		return
	}
	if path, ok := s.survivingPathFor(st.fs); ok {
		s.readmit(st, path)
		return
	}
	st.attempts++
	if s.pendingFaults == 0 {
		fl := st.fs.Flow
		s.faultErr = fmt.Errorf(
			"sim: flow %d (%d->%d) permanently partitioned at t=%v after %d retries: no repair events remain in the fault schedule",
			fl.ID, fl.Src, fl.Dst, s.now, st.attempts)
		return
	}
	s.scheduleRetry(st)
}

// checkInvariants asserts the engine's conservation invariants; the Run
// loop calls it after every fault instant when Config.CheckInvariants is
// set. It is allocation-free after the first call.
func (s *Simulator) checkInvariants() error {
	inflight := s.startedFlows - s.finishedFlows
	if inflight != int64(len(s.active)+len(s.stalled)) {
		return fmt.Errorf(
			"sim: invariant violated at t=%v: %d flows in flight but %d active + %d stalled (flows lost)",
			s.now, inflight, len(s.active), len(s.stalled))
	}
	if s.linkLoad == nil {
		s.linkLoad = make([]float64, s.cfg.Topology.NumLinks())
	}
	var err error
	touched := s.invTouched[:0]
	for _, f := range s.active {
		for _, l := range f.Demand.Path {
			if err == nil && s.downRef != nil && s.downRef[l] > 0 {
				err = fmt.Errorf("sim: invariant violated at t=%v: active flow %d crosses failed link %d",
					s.now, f.Flow.ID, l)
			}
			if s.linkLoad[l] == 0 {
				touched = append(touched, l)
			}
			s.linkLoad[l] += f.Demand.Rate
		}
	}
	for _, l := range touched {
		c := s.effCapacity(l)
		// The conversion rounds the product, so no platform fuses it.
		if err == nil && s.linkLoad[l] > c+1e-3+float64(1e-9*c) {
			err = fmt.Errorf("sim: invariant violated at t=%v: link %d carries %v B/s over capacity %v B/s",
				s.now, l, s.linkLoad[l], c)
		}
		s.linkLoad[l] = 0
	}
	s.invTouched = touched[:0]
	return err
}
