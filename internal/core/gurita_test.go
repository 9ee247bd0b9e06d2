package core

import (
	"math"
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/netmod"
	"gurita/internal/sched"
	"gurita/internal/sim"
	"gurita/internal/topo"
)

func bigSwitch(t *testing.T, n int, cap float64) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBigSwitch(n, cap)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func runSim(t *testing.T, tp *topo.Topology, s sim.Scheduler, mode netmod.Mode, jobs []*coflow.Job) *sim.Result {
	t.Helper()
	simulator, err := sim.New(sim.Config{Topology: tp, Tick: 0.005, Mode: mode}, s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func jctOf(t *testing.T, res *sim.Result, id coflow.JobID) float64 {
	t.Helper()
	for _, j := range res.Jobs {
		if j.JobID == id {
			return j.JCT
		}
	}
	t.Fatalf("job %d missing from results", id)
	return 0
}

func newGurita(t *testing.T, cfg Config, queues int) *Gurita {
	t.Helper()
	g, err := New(cfg, queues)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Delta: -1}, 4); err == nil {
		t.Error("negative delta should fail")
	}
	if _, err := New(Config{GammaC: 2}, 4); err == nil {
		t.Error("GammaC out of range should fail")
	}
	if _, err := New(Config{CritEpsilon: 3}, 4); err == nil {
		t.Error("CritEpsilon out of range should fail")
	}
	if _, err := New(Config{SMax: -1}, 4); err == nil {
		t.Error("negative SMax should fail")
	}
	if _, err := New(Config{BaseThreshold: -1}, 4); err == nil {
		t.Error("negative threshold should fail")
	}
	if _, err := New(Config{}, 4); err != nil {
		t.Errorf("defaults should be valid: %v", err)
	}
}

func TestNames(t *testing.T) {
	g := newGurita(t, Config{}, 4)
	if g.Name() != "gurita" {
		t.Errorf("Name = %q", g.Name())
	}
	gp, err := NewPlus(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if gp.Name() != "gurita+" {
		t.Errorf("Plus Name = %q", gp.Name())
	}
}

// TestSmallJobBeatsElephant: the headline LBEF behaviour — a small coflow
// jumps ahead of a long-running elephant sharing its links.
func TestSmallJobBeatsElephant(t *testing.T) {
	tp := bigSwitch(t, 4, 1e6)
	var cid coflow.CoflowID
	var fid coflow.FlowID
	mk := func(id coflow.JobID, arrival float64, size int64, dst topo.ServerID) *coflow.Job {
		b := coflow.NewBuilder(id, arrival, &cid, &fid)
		b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: dst, Size: size})
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	elephant := mk(1, 0, 200e6, 1) // 200 MB, demoted past 100 MB threshold
	mouse := mk(2, 150, 1e6, 2)    // arrives while elephant still runs
	g := newGurita(t, Config{}, 4)
	res := runSim(t, tp, g, netmod.ModeSPQ, []*coflow.Job{elephant, mouse})
	// Mouse at line rate: ~1 s, not waiting ~50+ s behind the elephant.
	if got := jctOf(t, res, 2); got > 5 {
		t.Fatalf("mouse JCT = %v, want ~1 (elephant demoted by Ψ)", got)
	}
}

// TestMultiStagePriorityRecovers is the paper's core claim (Figure 2): a
// job that shipped many bytes in stage 1 gets *high* priority again for a
// tiny stage 2 because Ψ is per stage, not TBS.
func TestMultiStagePriorityRecovers(t *testing.T) {
	tp := bigSwitch(t, 8, 1e6)
	var cid coflow.CoflowID
	var fid coflow.FlowID

	// Job 1: stage 1 = 100 MB (alone on its links), stage 2 = 50 KB
	// contending with a 200 MB elephant on the stage-2 uplink.
	b := coflow.NewBuilder(1, 0, &cid, &fid)
	s1 := b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 100e6})
	s2 := b.AddCoflow(coflow.FlowSpec{Src: 2, Dst: 3, Size: 50e3})
	b.Depends(s2, s1)
	j1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	b2 := coflow.NewBuilder(2, 0, &cid, &fid)
	b2.AddCoflow(coflow.FlowSpec{Src: 2, Dst: 4, Size: 200e6})
	j2, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}

	g := newGurita(t, Config{}, 4)
	res := runSim(t, tp, g, netmod.ModeSPQ, []*coflow.Job{j1, j2})
	// Stage 1 takes ~100 s at line rate; stage 2 must take ~0.05 s, not be
	// blocked behind the elephant's remaining ~100 s.
	if got := jctOf(t, res, 1); got > 105 {
		t.Fatalf("multi-stage JCT = %v, want ~100.1 (stage-2 coflow regains priority)", got)
	}
}

// TestNoInflightPromotion: the TCP out-of-order rule — once a flow is
// demoted it is never promoted back while in flight.
func TestNoInflightPromotion(t *testing.T) {
	g := newGurita(t, Config{Delta: 0.001}, 4)
	b := coflow.NewBuilder(1, 0, nil, nil)
	b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 1000})
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	js := runtimeStates(g, nil, j)[0]
	cs := js.Coflows[0]
	fs := cs.Flows[0]

	g.OnJobArrival(js)
	g.OnCoflowStart(cs)

	// Manually demote, then let Gurita compute a better (lower) queue: the
	// flow must stay demoted.
	fs.SetQueue(3)
	g.AssignQueues(1.0, []*sim.FlowState{fs}, nil, nil)
	if fs.Queue() != 3 {
		t.Fatalf("in-flight flow promoted from 3 to %d", fs.Queue())
	}

	// The oracle variant IS allowed to promote.
	gp, err := NewPlus(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	gp.Init(sim.Env{Topo: mustTopo(t), Queues: 4, Jobs: 1, Coflows: 1})
	gp.OnJobArrival(js)
	gp.OnCoflowStart(cs)
	fs.SetQueue(3)
	gp.AssignQueues(1.0, []*sim.FlowState{fs}, nil, nil)
	if fs.Queue() == 3 {
		t.Fatal("oracle should promote instantly")
	}
}

func mustTopo(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.NewBigSwitch(4, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestFreshCoflowHighestPriority: before any HR round has seen a coflow its
// Ψ is 0 → queue 0.
func TestFreshCoflowHighestPriority(t *testing.T) {
	g := newGurita(t, Config{Delta: 100}, 4) // long delta: no round besides the first
	b := coflow.NewBuilder(1, 0, nil, nil)
	b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 1e9})
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	js := runtimeStates(g, nil, j)[0]
	cs := js.Coflows[0]
	fs := cs.Flows[0]
	g.OnJobArrival(js)
	// The first round runs before the coflow starts, so the next one is
	// 100 s away and the aggregator never sees the coflow's bytes.
	g.AssignQueues(0, nil, nil, nil)
	g.OnCoflowStart(cs)
	fs.MarkStarted(0)
	fs.Sent, cs.BytesSent = 5e8, 5e8
	g.AssignQueues(1, []*sim.FlowState{fs}, []*sim.FlowState{fs}, nil)
	if fs.Queue() != 0 {
		t.Fatalf("unobserved coflow queue = %d, want 0", fs.Queue())
	}
}

// runtimeStates builds the jobs' runtime states through sim.BuildStates (one
// dense index per state, as the engine assigns them), marks every coflow
// active, and sizes g's tables for them with four queues on topology tp.
func runtimeStates(g *Gurita, tp *topo.Topology, jobs ...*coflow.Job) []*sim.JobState {
	states := sim.BuildStates(jobs)
	coflows := 0
	for _, js := range states {
		for _, cs := range js.Coflows {
			cs.Phase = sim.PhaseActive
			coflows++
		}
	}
	g.Init(sim.Env{Topo: tp, Queues: 4, Now: func() float64 { return 0 }, Jobs: len(states), Coflows: coflows})
	return states
}

// TestGuritaCloseToPlus: on a mixed workload the practical scheduler's
// average JCT stays within a few percent of the oracle's (Figure 8's
// "within 0.15%" at paper scale; we allow a loose envelope on a tiny
// workload).
func TestGuritaCloseToPlus(t *testing.T) {
	tp := bigSwitch(t, 16, 1e6)
	mk := func() []*coflow.Job {
		var cid coflow.CoflowID
		var fid coflow.FlowID
		var jobs []*coflow.Job
		sizes := []int64{1e6, 80e6, 3e6, 150e6, 10e6, 40e6, 2e6, 300e6}
		for i, size := range sizes {
			b := coflow.NewBuilder(coflow.JobID(i), float64(i)*2, &cid, &fid)
			prev := -1
			for st := 0; st < 2; st++ {
				h := b.AddCoflow(coflow.FlowSpec{
					Src:  topo.ServerID((2*i + st) % 16),
					Dst:  topo.ServerID((2*i + st + 7) % 16),
					Size: size / 2,
				})
				if prev >= 0 {
					b.Depends(h, prev)
				}
				prev = h
			}
			j, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		return jobs
	}
	g := newGurita(t, Config{}, 4)
	gp, err := NewPlus(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rg := runSim(t, tp, g, netmod.ModeSPQ, mk())
	rp := runSim(t, tp, gp, netmod.ModeSPQ, mk())
	if len(rg.Jobs) != len(rp.Jobs) {
		t.Fatal("job counts differ")
	}
	a, b := rg.AvgJCT(), rp.AvgJCT()
	if math.Abs(a-b) > 0.25*b {
		t.Fatalf("gurita avg JCT %v vs gurita+ %v: more than 25%% apart", a, b)
	}
}

// TestCriticalPathAblationFlag: the switch changes nothing catastrophic and
// both variants drain the workload.
func TestCriticalPathAblationFlag(t *testing.T) {
	tp := bigSwitch(t, 8, 1e6)
	mk := func() []*coflow.Job {
		var cid coflow.CoflowID
		var fid coflow.FlowID
		b := coflow.NewBuilder(1, 0, &cid, &fid)
		l1 := b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: 1, Size: 40e6})
		l2 := b.AddCoflow(coflow.FlowSpec{Src: 2, Dst: 3, Size: 1e6})
		r := b.AddCoflow(coflow.FlowSpec{Src: 1, Dst: 4, Size: 5e6})
		b.Depends(r, l1)
		b.Depends(r, l2)
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return []*coflow.Job{j}
	}
	on := newGurita(t, Config{}, 4)
	off := newGurita(t, Config{DisableCriticalPath: true}, 4)
	r1 := runSim(t, tp, on, netmod.ModeSPQ, mk())
	r2 := runSim(t, tp, off, netmod.ModeSPQ, mk())
	if len(r1.Jobs) != 1 || len(r2.Jobs) != 1 {
		t.Fatal("workload not drained")
	}
}

// TestGuritaVsTBSMotivation reproduces the shape of the paper's Figure 2
// motivation: one 4-stage job (front-loaded bytes) against three
// single-stage jobs; per-stage scheduling must beat a TBS (Stream-style)
// scheduler on average JCT.
func TestGuritaVsTBSMotivation(t *testing.T) {
	tp := bigSwitch(t, 12, 1e6)
	mk := func() []*coflow.Job {
		var cid coflow.CoflowID
		var fid coflow.FlowID
		var jobs []*coflow.Job
		// Job A: 4 stages, 100 MB then 1 MB ×3. All stages contend with the
		// single-stage jobs on server 0's uplink... stages use src 0.
		b := coflow.NewBuilder(1, 0, &cid, &fid)
		prev := -1
		for st, size := range []int64{100e6, 1e6, 1e6, 1e6} {
			h := b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: topo.ServerID(1 + st), Size: size})
			if prev >= 0 {
				b.Depends(h, prev)
			}
			prev = h
		}
		jA, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, jA)
		// Jobs B, C, D: single-stage 20 MB from server 0 (same uplink),
		// arriving while A's later stages run.
		for i := 0; i < 3; i++ {
			b := coflow.NewBuilder(coflow.JobID(2+i), 100+float64(i), &cid, &fid)
			b.AddCoflow(coflow.FlowSpec{Src: 0, Dst: topo.ServerID(6 + i), Size: 20e6})
			j, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
		return jobs
	}
	g := newGurita(t, Config{}, 4)
	st, err := sched.NewStream(sched.StreamConfig{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rg := runSim(t, tp, g, netmod.ModeSPQ, mk())
	rs := runSim(t, tp, st, netmod.ModeSPQ, mk())
	// Job A's later (tiny) stages should not languish under Gurita.
	if jctOf(t, rg, 1) > jctOf(t, rs, 1)+1e-9 {
		t.Fatalf("Gurita JCT for multi-stage job = %v, Stream = %v; per-stage scheduling should not lose",
			jctOf(t, rg, 1), jctOf(t, rs, 1))
	}
}
