package sched

import (
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/sim"
)

// TestBaraatHeavyThresholdQuantile: before MinSamples completed jobs the
// initial threshold applies; after, the configured quantile of completed
// sizes does.
func TestBaraatHeavyThresholdQuantile(t *testing.T) {
	b := NewBaraat(BaraatConfig{
		HeavyQuantile:         0.5,
		InitialHeavyThreshold: 42,
		MinSamples:            3,
	})
	if got := b.heavyThreshold(); got != 42 {
		t.Fatalf("empty threshold = %v, want initial 42", got)
	}

	// Feed completed jobs of sizes 10, 20, 30, 40 via OnJobComplete.
	states := initBaraat(t, b, 0, 1, 2, 3)
	for i, size := range []float64{30, 10, 40, 20} {
		states[i].BytesSent = size
		b.OnJobArrival(states[i])
		b.OnJobComplete(states[i])
	}
	// completedSizes sorted: [10 20 30 40]; quantile 0.5 → index 2 → 30.
	if got := b.heavyThreshold(); got != 30 {
		t.Fatalf("median threshold = %v, want 30", got)
	}

	// Quantile index clamps at the top.
	b2 := NewBaraat(BaraatConfig{HeavyQuantile: 0.99, MinSamples: 1})
	states = initBaraat(t, b2, 10, 11)
	for i, size := range []float64{5, 15} {
		states[i].BytesSent = size
		b2.OnJobArrival(states[i])
		b2.OnJobComplete(states[i])
	}
	if got := b2.heavyThreshold(); got != 15 {
		t.Fatalf("p99 threshold = %v, want 15 (clamped to max)", got)
	}
}

// TestBaraatFIFOShrinks: completed jobs leave the FIFO line; later jobs
// move up in rank (and therefore priority).
func TestBaraatFIFOShrinks(t *testing.T) {
	b := NewBaraat(BaraatConfig{})
	states := initBaraat(t, b, 1, 2)
	j1, j2 := states[0], states[1]
	b.OnJobArrival(j1)
	b.OnJobArrival(j2)

	fs := mkFlow(t, j2)
	fl := []*sim.FlowState{fs}
	b.AssignQueues(0, fl, fl, nil)
	if fs.Queue() != 1 {
		t.Fatalf("second job queue = %d, want 1 (behind the head)", fs.Queue())
	}
	b.OnJobComplete(j1)
	b.AssignQueues(1, fl, nil, nil)
	if fs.Queue() != 0 {
		t.Fatalf("after head completes queue = %d, want 0", fs.Queue())
	}
}

func mustJob(t *testing.T, id coflow.JobID) *coflow.Job {
	t.Helper()
	cid := coflow.CoflowID(id * 100)
	fid := coflow.FlowID(id * 100)
	b := coflow.NewBuilder(id, 0, &cid, &fid)
	b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 100})
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// initBaraat builds one single-flow job per ID through sim.BuildStates (one
// dense index per state) and sizes b's tables for them with four queues.
func initBaraat(t *testing.T, b *Baraat, ids ...coflow.JobID) []*sim.JobState {
	t.Helper()
	var jobs []*coflow.Job
	for _, id := range ids {
		jobs = append(jobs, mustJob(t, id))
	}
	states := sim.BuildStates(jobs)
	b.Init(sim.Env{Queues: 4, Jobs: len(states), Coflows: len(states)})
	return states
}

// mkFlow starts the job's only flow and marks its coflow active.
func mkFlow(t *testing.T, js *sim.JobState) *sim.FlowState {
	t.Helper()
	cs := js.Coflows[0]
	cs.Phase = sim.PhaseActive
	fs := cs.Flows[0]
	fs.MarkStarted(0)
	return fs
}
