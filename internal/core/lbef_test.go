package core

// White-box tests of the LBEF machinery: threshold demotion, the job-level
// Ψ sum, the AVA critical-path window, and the HR staleness interplay —
// exercised directly on hand-built runtime states, without the event loop.

import (
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/sim"
	"gurita/internal/topo"
)

// harness builds a Gurita scheduler plus a synthetic runtime job with the
// given per-coflow structure, all coflows active.
type harness struct {
	g  *Gurita
	js *sim.JobState
}

func newHarness(t *testing.T, cfg Config, stages ...[]coflow.FlowSpec) *harness {
	t.Helper()
	g, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.NewBigSwitch(32, 1.25e9)
	if err != nil {
		t.Fatal(err)
	}

	var cid coflow.CoflowID
	var fid coflow.FlowID
	b := coflow.NewBuilder(1, 0, &cid, &fid)
	var handles []int
	for _, specs := range stages {
		h := b.AddCoflow(specs...)
		if len(handles) > 0 {
			b.Depends(h, handles[len(handles)-1])
		}
		handles = append(handles, h)
	}
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	js := runtimeStates(g, tp, j)[0]
	hn := &harness{g: g, js: js}
	g.OnJobArrival(js)
	return hn
}

// activate marks a coflow as observed with the given per-flow sent bytes.
func (h *harness) activate(t *testing.T, idx int, sentPerFlow float64) *sim.CoflowState {
	t.Helper()
	cs := h.js.Coflows[idx]
	h.g.OnCoflowStart(cs)
	for _, fs := range cs.Flows {
		fs.MarkStarted(0)
		fs.Sent = sentPerFlow
		fs.Remaining = float64(fs.Flow.Size) - sentPerFlow
		cs.BytesSent += sentPerFlow
		h.js.BytesSent += sentPerFlow
	}
	return cs
}

func flowsOf(cs *sim.CoflowState) []*sim.FlowState { return cs.Flows }

func specN(n int, size int64) []coflow.FlowSpec {
	specs := make([]coflow.FlowSpec, n)
	for i := range specs {
		specs[i] = coflow.FlowSpec{Src: topo.ServerID(i), Dst: topo.ServerID(i + 16), Size: size}
	}
	return specs
}

// TestDemotionByOwnBlockingEffect: a single fat coflow demotes itself past
// the thresholds as its observed bytes grow.
func TestDemotionByOwnBlockingEffect(t *testing.T) {
	h := newHarness(t, Config{Delta: 0}, specN(10, 1e9))
	cs := h.activate(t, 0, 0)

	// Nothing observed: queue 0.
	h.g.AssignQueues(0, flowsOf(cs), nil, nil)
	if q := cs.Flows[0].Queue(); q != 0 {
		t.Fatalf("fresh queue = %d, want 0", q)
	}

	// 50 MB per flow: Ψ ≈ ω(1)·L(50e6)·W(10)·γ(0.5) = 250 MB → past the
	// 100 MB threshold, not past 1 GB → queue 2.
	h.activate(t, 0, 50e6)
	h.g.AssignQueues(1, flowsOf(cs), nil, nil)
	if q := cs.Flows[0].Queue(); q != 2 {
		t.Fatalf("mid-size queue = %d, want 2", q)
	}

	// 500 MB per flow: Ψ ≈ 2.5 GB → past 1 GB → queue 3.
	h.activate(t, 0, 450e6)
	h.g.AssignQueues(2, flowsOf(cs), nil, nil)
	if q := cs.Flows[0].Queue(); q != 3 {
		t.Fatalf("fat queue = %d, want 3", q)
	}
}

// TestJobLevelSumDemotesSiblings: a job with several concurrently active
// coflows is demoted by the SUM of their blocking effects, so even a thin
// sibling coflow inherits the job's demotion (the paper's job-level rule).
func TestJobLevelSumDemotesSiblings(t *testing.T) {
	// Two stage-1 coflows (parallel leaves): one fat, one thin.
	var cid coflow.CoflowID
	var fid coflow.FlowID
	b := coflow.NewBuilder(1, 0, &cid, &fid)
	b.AddCoflow(specN(10, 1e9)...)
	b.AddCoflow(coflow.FlowSpec{Src: 30, Dst: 31, Size: 1e6})
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(Config{Delta: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := topo.NewBigSwitch(32, 1.25e9)
	js := runtimeStates(g, tp, j)[0]
	g.OnJobArrival(js)
	fat, thin := js.Coflows[0], js.Coflows[1]
	g.OnCoflowStart(fat)
	g.OnCoflowStart(thin)
	for _, fs := range fat.Flows {
		fs.MarkStarted(0)
		fs.Sent = 100e6
		fat.BytesSent += 100e6
	}
	thin.Flows[0].MarkStarted(0)
	thin.Flows[0].Sent = 1e3
	thin.BytesSent = 1e3

	var all []*sim.FlowState
	all = append(all, fat.Flows...)
	all = append(all, thin.Flows...)
	g.AssignQueues(1, all, nil, nil)
	// Fat coflow: Ψ ≈ 1·100e6·10·0.5 = 500 MB → queue 2. The thin sibling's
	// own Ψ is negligible, but the job-level sum carries it to queue 2 too.
	if q := fat.Flows[0].Queue(); q != 2 {
		t.Fatalf("fat queue = %d, want 2", q)
	}
	if q := thin.Flows[0].Queue(); q != 2 {
		t.Fatalf("thin sibling queue = %d, want 2 (job-level demotion)", q)
	}
}

// TestAVAWindowBounded: the per-job AVA window holds at most SMax samples.
func TestAVAWindowBounded(t *testing.T) {
	h := newHarness(t, Config{SMax: 3},
		specN(1, 100), specN(1, 100), specN(1, 100),
		specN(1, 100), specN(1, 100), specN(1, 100))
	for i := 0; i < 6; i++ {
		cs := h.activate(t, i, float64(10*(i+1)))
		h.g.OnCoflowComplete(cs)
	}
	ji := h.g.jobs[h.js.Index()]
	if len(ji.recentLargest) != 3 {
		t.Fatalf("AVA window = %d samples, want 3 (SMax)", len(ji.recentLargest))
	}
	// The window holds the most recent samples: 40, 50, 60.
	want := []float64{40, 50, 60}
	for i, v := range ji.recentLargest {
		if v != want[i] {
			t.Fatalf("window[%d] = %v, want %v", i, v, want[i])
		}
	}
	if avg := ji.avgLargest(); avg != 50 {
		t.Fatalf("avgLargest = %v, want 50", avg)
	}
}

// TestAVAEmptyWindow: with no completed coflows the average is zero and no
// critical discount applies.
func TestAVAEmptyWindow(t *testing.T) {
	h := newHarness(t, Config{}, specN(1, 100))
	ji := h.g.jobs[h.js.Index()]
	if ji.avgLargest() != 0 {
		t.Fatal("empty window should average 0")
	}
}

// TestCriticalDiscountAppliedViaAVA: a coflow whose observed largest flow
// reaches the AVA average gets the ε discount, visible as a lower Ψ.
func TestCriticalDiscountAppliedViaAVA(t *testing.T) {
	h := newHarness(t, Config{Delta: 0, CritEpsilon: 0.5},
		specN(1, 1e9), specN(1, 1e9), specN(1, 1e9))
	// Complete the first coflow with 200 MB observed: AVA average = 200 MB.
	first := h.activate(t, 0, 200e6)
	h.g.OnCoflowComplete(first)

	// Activate the second with 300 MB observed (≥ average → critical).
	// AssignQueues triggers the HR reporting round psi reads from.
	second := h.activate(t, 1, 300e6)
	h.g.AssignQueues(1, second.Flows, nil, nil)
	withDiscount := h.g.psi(second)

	// The same scheduler with the critical path rule disabled.
	h2 := newHarness(t, Config{Delta: 0, CritEpsilon: 0.5, DisableCriticalPath: true},
		specN(1, 1e9), specN(1, 1e9), specN(1, 1e9))
	f2 := h2.activate(t, 0, 200e6)
	h2.g.OnCoflowComplete(f2)
	s2 := h2.activate(t, 1, 300e6)
	h2.g.AssignQueues(1, s2.Flows, nil, nil)
	without := h2.g.psi(s2)

	if withDiscount >= without {
		t.Fatalf("critical Ψ = %v, want < undiscounted %v", withDiscount, without)
	}
	if withDiscount < 0.49*without || withDiscount > 0.51*without {
		t.Fatalf("discount = %v/%v, want ≈ ε=0.5 ratio", withDiscount, without)
	}
}

// TestOracleUsesStaticStructure: GuritaPlus computes Ψ from the true
// structure even before any bytes move.
func TestOracleUsesStaticStructure(t *testing.T) {
	g, err := NewPlus(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := topo.NewBigSwitch(32, 1.25e9)
	var cid coflow.CoflowID
	var fid coflow.FlowID
	b := coflow.NewBuilder(1, 0, &cid, &fid)
	b.AddCoflow(specN(10, 1e9)...)
	j, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	js := runtimeStates(g, tp, j)[0]
	cs := js.Coflows[0]
	for _, fs := range cs.Flows {
		fs.MarkStarted(0)
	}
	g.OnJobArrival(js)
	g.OnCoflowStart(cs)
	g.AssignQueues(0, cs.Flows, nil, nil)
	// True L=1 GB, W=10 → Ψ in the GBs → lowest queue immediately, no
	// observation required.
	if q := cs.Flows[0].Queue(); q != 3 {
		t.Fatalf("oracle queue = %d, want 3 (knows the elephant a priori)", q)
	}
}
