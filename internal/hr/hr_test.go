package hr

import (
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/faults"
	"gurita/internal/sim"
	"gurita/internal/topo"
)

// mkJob builds a job of n independent single-stage coflows. Every coflow
// has two flows, the first into hrHost, so all the job's coflows share that
// head-receiver host. Coflow and flow IDs derive from the job ID so jobs
// built separately never collide.
func mkJob(t *testing.T, jobID coflow.JobID, n int, hrHost topo.ServerID) *coflow.Job {
	t.Helper()
	cid, fid := coflow.CoflowID(jobID*100), coflow.FlowID(jobID*100)
	b := coflow.NewBuilder(jobID, 0, &cid, &fid)
	for i := 0; i < n; i++ {
		b.AddCoflow(
			coflow.FlowSpec{Src: 0, Dst: hrHost, Size: 1000},
			coflow.FlowSpec{Src: 2, Dst: 3, Size: 1000},
		)
	}
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// activate builds the jobs' states through sim.BuildStates (one dense index
// per state), sizes a for them, and returns every coflow state, marked
// active, in workload order.
func activate(a *Aggregator, jobs ...*coflow.Job) []*sim.CoflowState {
	states := sim.BuildStates(jobs)
	var out []*sim.CoflowState
	for _, js := range states {
		for _, cs := range js.Coflows {
			cs.Phase = sim.PhaseActive
			out = append(out, cs)
		}
	}
	a.Init(sim.Env{Jobs: len(states), Coflows: len(out)})
	return out
}

// mkCoflowStateAt builds a one-coflow job whose head receiver lives on
// hrHost, sizes a for it, and sets the coflow's and the job's bytes sent.
func mkCoflowStateAt(t *testing.T, a *Aggregator, jobID coflow.JobID, sent float64, hrHost topo.ServerID) *sim.CoflowState {
	t.Helper()
	cs := activate(a, mkJob(t, jobID, 1, hrHost))[0]
	cs.BytesSent = sent
	cs.Job.BytesSent = sent
	return cs
}

// mkCoflowState is mkCoflowStateAt with the head receiver on host 1.
func mkCoflowState(t *testing.T, a *Aggregator, jobID coflow.JobID, sent float64) *sim.CoflowState {
	t.Helper()
	return mkCoflowStateAt(t, a, jobID, sent, 1)
}

func TestFirstRefreshAlwaysRuns(t *testing.T) {
	a := New(1.0)
	cs := mkCoflowState(t, a, 1, 500)
	if !a.Refresh(0, []*sim.CoflowState{cs}) {
		t.Fatal("first refresh should run")
	}
	obs, ok := a.Coflow(cs)
	if !ok {
		t.Fatal("coflow not observed")
	}
	if obs.Bytes != 500 {
		t.Fatalf("Bytes = %v, want 500", obs.Bytes)
	}
}

func TestStalenessWindow(t *testing.T) {
	a := New(1.0)
	cs := mkCoflowState(t, a, 1, 100)
	a.Refresh(0, []*sim.CoflowState{cs})

	// Progress happens, but the next round is not due yet.
	cs.BytesSent = 900
	cs.Job.BytesSent = 900
	if a.Refresh(0.5, []*sim.CoflowState{cs}) {
		t.Fatal("refresh before delta should not run")
	}
	obs, _ := a.Coflow(cs)
	if obs.Bytes != 100 {
		t.Fatalf("stale Bytes = %v, want 100 (snapshot of last round)", obs.Bytes)
	}

	// After delta the round runs and the view catches up.
	if !a.Refresh(1.0, []*sim.CoflowState{cs}) {
		t.Fatal("refresh at delta should run")
	}
	obs, _ = a.Coflow(cs)
	if obs.Bytes != 900 {
		t.Fatalf("refreshed Bytes = %v, want 900", obs.Bytes)
	}
}

func TestCompletedCoflowsRetired(t *testing.T) {
	a := New(1.0)
	cs := mkCoflowState(t, a, 1, 100)
	a.Refresh(0, []*sim.CoflowState{cs})
	// Next round without the coflow: it drops out of the snapshot.
	a.Refresh(2.0, nil)
	if _, ok := a.Coflow(cs); ok {
		t.Fatal("completed coflow should be retired from the snapshot")
	}
	if _, ok := a.Job(cs.Job); ok {
		t.Fatal("job with no active coflows should be retired")
	}
}

func TestJobAggregation(t *testing.T) {
	a := New(0) // continuous reporting
	c1 := mkCoflowState(t, a, 7, 300)
	obs, ok := a.Job(c1.Job)
	if ok {
		t.Fatal("job should be unknown before any round")
	}
	a.Refresh(0, []*sim.CoflowState{c1})
	obs, ok = a.Job(c1.Job)
	if !ok || obs.Bytes != 300 {
		t.Fatalf("job obs = %+v ok=%v, want Bytes 300", obs, ok)
	}
}

func TestZeroDeltaAlwaysRefreshes(t *testing.T) {
	a := New(0)
	cs := mkCoflowState(t, a, 1, 1)
	for i := 0; i < 5; i++ {
		cs.BytesSent = float64(i)
		if !a.Refresh(0, []*sim.CoflowState{cs}) {
			t.Fatal("zero-delta aggregator should refresh every call")
		}
		obs, _ := a.Coflow(cs)
		if obs.Bytes != float64(i) {
			t.Fatalf("Bytes = %v, want %v", obs.Bytes, float64(i))
		}
	}
	if a.Delta() != 0 {
		t.Fatal("Delta() should echo configuration")
	}
}

func TestUnknownCoflow(t *testing.T) {
	a := New(1)
	cs := mkCoflowState(t, a, 1, 100)
	if _, ok := a.Coflow(cs); ok {
		t.Fatal("unknown coflow should report ok=false")
	}
}

// Multi-coflow tests: three coflows across two jobs, built together so each
// state has its own dense index in the aggregator's tables.

// threeCoflows builds job 1 with coflows A and B (head receiver on host 1)
// and job 2 with coflow C (head receiver on host 5), all active.
func threeCoflows(t *testing.T, a *Aggregator) (ca, cb, cc *sim.CoflowState) {
	t.Helper()
	all := activate(a, mkJob(t, 1, 2, 1), mkJob(t, 2, 1, 5))
	ca, cb, cc = all[0], all[1], all[2]
	ca.BytesSent, cb.BytesSent, cc.BytesSent = 10, 20, 30
	ca.Job.BytesSent, cc.Job.BytesSent = 30, 30
	return ca, cb, cc
}

func TestRetireOneCoflowAtNextRound(t *testing.T) {
	a := New(1)
	ca, cb, cc := threeCoflows(t, a)
	a.Refresh(0, []*sim.CoflowState{ca, cb, cc})
	for _, cs := range []*sim.CoflowState{ca, cb, cc} {
		if obs, ok := a.Coflow(cs); !ok || obs.Bytes != cs.BytesSent {
			t.Fatalf("coflow %d: obs %+v ok=%v, want Bytes %v", cs.Coflow.ID, obs, ok, cs.BytesSent)
		}
	}

	// B completes: it stays visible until the next round, then retires
	// while its sibling A and job 2's C keep reporting.
	cb.Phase = sim.PhaseDone
	if a.Refresh(0.5, []*sim.CoflowState{ca, cc}) {
		t.Fatal("round before delta should not run")
	}
	if _, ok := a.Coflow(cb); !ok {
		t.Fatal("completed coflow retired before the next round")
	}
	ca.BytesSent, ca.Job.BytesSent = 15, 35
	a.Refresh(1, []*sim.CoflowState{ca, cc})
	if _, ok := a.Coflow(cb); ok {
		t.Fatal("completed coflow still observed after the next round")
	}
	if obs, ok := a.Coflow(ca); !ok || obs.Bytes != 15 {
		t.Fatalf("sibling obs %+v ok=%v, want Bytes 15", obs, ok)
	}
	if obs, ok := a.Job(ca.Job); !ok || obs.Bytes != 35 {
		t.Fatalf("job 1 obs %+v ok=%v, want Bytes 35", obs, ok)
	}
	if obs, ok := a.Coflow(cc); !ok || obs.Bytes != 30 {
		t.Fatalf("job 2 coflow obs %+v ok=%v, want Bytes 30", obs, ok)
	}

	// Job 1 finishes entirely: both its entries retire, job 2's stay.
	a.Refresh(2, []*sim.CoflowState{cc})
	if _, ok := a.Coflow(ca); ok {
		t.Fatal("coflow A still observed")
	}
	if _, ok := a.Job(ca.Job); ok {
		t.Fatal("job 1 still observed with no active coflow")
	}
	if _, ok := a.Job(cc.Job); !ok {
		t.Fatal("job 2 lost its observation")
	}
}

func TestStaleHostServesPreviousRoundPerCoflow(t *testing.T) {
	a := New(1)
	ca, cb, cc := threeCoflows(t, a)
	all := []*sim.CoflowState{ca, cb, cc}
	a.Refresh(0, all)
	a.Refresh(1, all)

	// Host 1 (job 1's head receiver) goes stale: A and B serve the round
	// before the fault, C refreshes.
	a.OnControlFault(1.5, faults.Event{Kind: faults.CtrlStaleHost, Host: 1, Duration: 3})
	ca.BytesSent, cb.BytesSent, cc.BytesSent = 11, 21, 31
	a.Refresh(2, all)
	ca.BytesSent, cb.BytesSent, cc.BytesSent = 12, 22, 32
	a.Refresh(3, all) // still stale: the copied entries carry forward
	for _, c := range []struct {
		cs   *sim.CoflowState
		want float64
	}{{ca, 10}, {cb, 20}, {cc, 32}} {
		if obs, ok := a.Coflow(c.cs); !ok || obs.Bytes != c.want {
			t.Fatalf("coflow %d: obs %+v ok=%v, want Bytes %v", c.cs.Coflow.ID, obs, ok, c.want)
		}
	}
	if obs, ok := a.Job(ca.Job); !ok || obs.Bytes != 30 {
		t.Fatalf("stale job obs %+v ok=%v, want previous-round Bytes 30", obs, ok)
	}

	// A coflow that retires drops out even though its host is stale; its
	// stale sibling keeps the old observation until the window ends.
	a.Refresh(4, []*sim.CoflowState{ca, cc})
	if _, ok := a.Coflow(cb); ok {
		t.Fatal("retired coflow on a stale host still observed")
	}
	if obs, ok := a.Coflow(ca); !ok || obs.Bytes != 10 {
		t.Fatalf("stale coflow A obs %+v ok=%v, want Bytes 10", obs, ok)
	}
	a.Refresh(5, []*sim.CoflowState{ca, cc})
	if obs, ok := a.Coflow(ca); !ok || obs.Bytes != 12 {
		t.Fatalf("after the stale window coflow A obs %+v ok=%v, want Bytes 12", obs, ok)
	}
}

func TestJobObsFromFirstFreshCoflow(t *testing.T) {
	// Job 1's coflow A reports through stale host 1 while its coflow B
	// reports through healthy host 5. Whichever order the active list has,
	// the job observation comes from the fresh coflow, never the stale copy.
	for _, staleFirst := range []bool{true, false} {
		a := New(1)
		cid, fid := coflow.CoflowID(100), coflow.FlowID(100)
		b := coflow.NewBuilder(1, 0, &cid, &fid)
		b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 1000})
		b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 5, Size: 1000})
		j1, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		all := activate(a, j1, mkJob(t, 2, 1, 6))
		ca, cb, cc := all[0], all[1], all[2]
		ca.Job.BytesSent, cc.Job.BytesSent = 100, 7
		order := []*sim.CoflowState{ca, cb, cc}
		if !staleFirst {
			order = []*sim.CoflowState{cb, ca, cc}
		}
		a.Refresh(0, order)
		a.OnControlFault(0.5, faults.Event{Kind: faults.CtrlStaleHost, Host: 1, Duration: 10})
		ca.Job.BytesSent = 250
		a.Refresh(1, order)
		if obs, ok := a.Job(ca.Job); !ok || obs.Bytes != 250 {
			t.Fatalf("staleFirst=%v: job obs %+v ok=%v, want fresh Bytes 250", staleFirst, obs, ok)
		}

		// With the fresh coflow gone, the stale one carries the previous
		// round's job observation forward.
		ca.Job.BytesSent = 400
		a.Refresh(2, []*sim.CoflowState{ca, cc})
		if obs, ok := a.Job(ca.Job); !ok || obs.Bytes != 250 {
			t.Fatalf("staleFirst=%v: job obs %+v ok=%v, want carried Bytes 250", staleFirst, obs, ok)
		}
	}
}
