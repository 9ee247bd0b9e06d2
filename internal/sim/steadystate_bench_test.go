package sim

// TestSteadyStateEventAllocatesNothing and BenchmarkSteadyStateEvent pin the
// engine's 0 allocs/op contract on the steady-state event path. Both drive
// the Run loop's own body, Simulator.step: find the next instant (here a
// tick), advance the clock across the active set (advanceTo), fire the
// instant's events, and reallocate. Nothing completes and nothing arrives,
// so every structure involved — the scheduler's dirty slice, the
// allocator's scratch, the histograms — must be recycled rather than
// reallocated. The test holds the contract under plain `go test`; the
// benchmark asserts the same before timing.

import (
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/topo"
)

// steadyStateSim builds a simulator mid-run: flows admitted, rates
// allocated, the event queue empty, and only the periodic tick and a far
// completion wake-up pending. Flow sizes are enormous so no completion
// fires during measurement.
func steadyStateSim(b testing.TB) (*Simulator, func()) {
	b.Helper()
	tp, err := topo.NewBigSwitch(8, 100)
	if err != nil {
		b.Fatal(err)
	}
	var jobs []*coflow.Job
	for i := 0; i < 4; i++ {
		id := coflow.JobID(i + 1)
		cid := coflow.CoflowID(id * 1000)
		fid := coflow.FlowID(id * 1000)
		bu := coflow.NewBuilder(id, 0, &cid, &fid)
		bu.AddCoflow(coflow.FlowSpec{
			Src: topo.ServerID(i), Dst: topo.ServerID(i + 4), Size: 1 << 50,
		})
		j, err := bu.Build()
		if err != nil {
			b.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s, err := New(Config{Topology: tp}, &fairSched{}, jobs)
	if err != nil {
		b.Fatal(err)
	}
	s.sched.Init(Env{Topo: s.cfg.Topology, Queues: s.cfg.Queues,
		Now: func() float64 { return s.now }})

	step := func() {
		if ok, err := s.step(); !ok || err != nil {
			b.Fatalf("step: ok=%v err=%v; steady state requires a pending tick", ok, err)
		}
	}
	// Warm up: fire the arrivals, allocate rates, and let every pool reach
	// its high-water mark (allocator scratch, histograms).
	for i := 0; i < 64; i++ {
		step()
	}
	return s, step
}

// assertSteadyStateAllocFree runs step under testing.AllocsPerRun and checks
// that the run stayed in steady state.
func assertSteadyStateAllocFree(tb testing.TB, s *Simulator, step func()) {
	tb.Helper()
	if a := testing.AllocsPerRun(200, step); a != 0 {
		tb.Fatalf("steady-state event path allocates %v/op, want 0", a)
	}
	if len(s.active) != 4 {
		tb.Fatalf("active flows = %d, want 4 (completions would leave steady state)", len(s.active))
	}
}

func TestSteadyStateEventAllocatesNothing(t *testing.T) {
	s, step := steadyStateSim(t)
	assertSteadyStateAllocFree(t, s, step)
}

func BenchmarkSteadyStateEvent(b *testing.B) {
	s, step := steadyStateSim(b)
	assertSteadyStateAllocFree(b, s, step)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
