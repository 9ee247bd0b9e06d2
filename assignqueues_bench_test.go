package gurita_test

// BenchmarkAssignQueues pins the policy layer's cost and its 0 allocs/op
// contract: every built-in scheduler's AssignQueues over a mid-run state of
// a 50-coflow FB-Tao trace on the 8-pod fabric (every job arrived, every
// leaf coflow transmitting with part of its bytes sent).
//
//   - steady: repeated calls at one instant. HR-coordinated policies have
//     no round due and nothing to do; policies keyed on live state (Aalo,
//     Baraat, Varys) sweep every flow as they do on every event.
//   - refresh: the clock advances a full second per call, so every call
//     crosses a reporting round — the snapshot rebuild, Gurita's Ψ rebuild
//     and the per-flow sweep all run.
//
// Each sub-benchmark asserts 0 allocs/op with testing.AllocsPerRun before
// timing, and the CI perf gate holds them against BENCH_baseline.json.

import (
	"testing"

	gurita "gurita"
	"gurita/internal/sim"
)

func BenchmarkAssignQueues(b *testing.B) {
	for _, kind := range gurita.AllKinds() {
		for _, mode := range []string{"steady", "refresh"} {
			b.Run(string(kind)+"/"+mode, func(b *testing.B) {
				benchAssignQueues(b, kind, mode == "refresh")
			})
		}
	}
}

func benchAssignQueues(b *testing.B, kind gurita.SchedulerKind, refresh bool) {
	scale := gurita.Scale{TraceCoflows: 50, FatTreeK: 8, Seed: 1, MaxSenders: 6, MaxReducers: 3, TraceTimeScale: 0.1}
	sc, err := gurita.TraceScenario(gurita.StructureFBTao, scale)
	if err != nil {
		b.Fatal(err)
	}
	s, err := gurita.NewScheduler(kind, 4)
	if err != nil {
		b.Fatal(err)
	}
	states := sim.BuildStates(sc.Jobs)
	coflows := 0
	for _, js := range states {
		coflows += len(js.Coflows)
	}
	now := 0.0
	s.Init(sim.Env{Topo: sc.Topology, Queues: 4, Now: func() float64 { return now },
		Jobs: len(states), Coflows: coflows})

	// Start every leaf coflow with 1/8 to 4/8 of each flow's bytes sent, so
	// observations spread over the queues.
	var flows []*sim.FlowState
	for _, js := range states {
		s.OnJobArrival(js)
		for _, cs := range js.Coflows {
			if cs.PendingChildren > 0 {
				continue
			}
			cs.Phase = sim.PhaseActive
			for i, fs := range cs.Flows {
				fs.MarkStarted(0)
				sent := float64(fs.Flow.Size) * float64(i%4+1) / 8
				fs.Sent, fs.Remaining = sent, float64(fs.Flow.Size)-sent
				cs.BytesSent += sent
				js.BytesSent += sent
				flows = append(flows, fs)
			}
			s.OnCoflowStart(cs)
		}
	}
	dirty := make([]*sim.FlowState, 0, len(flows))
	dirty = s.AssignQueues(now, flows, flows, dirty[:0])
	step := func() {
		if refresh {
			now++
		}
		dirty = s.AssignQueues(now, flows, nil, dirty[:0])
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if a := testing.AllocsPerRun(50, step); a != 0 {
		b.Fatalf("%s AssignQueues allocates %v/op, want 0", kind, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
