package core

import (
	"testing"

	"gurita/internal/coflow"
	"gurita/internal/sim"
	"gurita/internal/topo"
)

// runtimeJob describes one single-coflow job: its width, true flow size,
// and per-flow observed bytes.
type runtimeJob struct {
	id       coflow.JobID
	width    int
	flowSize int64
	sent     float64
}

// mkRuntimeJobs builds the jobs' runtime states together (one dense index
// each), sizes g for them on a 64-port big switch, and registers every job
// and its active coflow with g. It returns the coflow states in order.
func mkRuntimeJobs(t *testing.T, g *Gurita, specs ...runtimeJob) []*sim.CoflowState {
	t.Helper()
	var jobs []*coflow.Job
	for _, sp := range specs {
		cid := coflow.CoflowID(sp.id * 1000)
		fid := coflow.FlowID(sp.id * 1000)
		b := coflow.NewBuilder(sp.id, 0, &cid, &fid)
		flows := make([]coflow.FlowSpec, sp.width)
		for i := range flows {
			flows[i] = coflow.FlowSpec{
				Src:  topo.ServerID(i),
				Dst:  topo.ServerID(i + 16),
				Size: sp.flowSize,
			}
		}
		b.AddCoflow(flows...)
		j, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	tp, _ := topo.NewBigSwitch(64, 1.25e9)
	var out []*sim.CoflowState
	for i, js := range runtimeStates(g, tp, jobs...) {
		cs := js.Coflows[0]
		for _, fs := range cs.Flows {
			fs.MarkStarted(0)
			fs.Sent = specs[i].sent
			cs.BytesSent += specs[i].sent
			js.BytesSent += specs[i].sent
		}
		g.OnJobArrival(js)
		g.OnCoflowStart(cs)
		out = append(out, cs)
	}
	return out
}

// TestRankLBEFOrdersByBlockingEffect: Algorithm 1 puts the least-blocking
// job's coflows first.
func TestRankLBEFOrdersByBlockingEffect(t *testing.T) {
	g, err := New(Config{Delta: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cs := mkRuntimeJobs(t, g,
		runtimeJob{1, 10, 1e9, 100e6}, // wide, lots observed
		runtimeJob{2, 1, 1e6, 1e5},    // narrow, little observed
	)
	fat, thin := cs[0], cs[1]

	order := g.RankLBEF(1, []*sim.CoflowState{fat, thin})
	if len(order) != 2 || order[0] != thin || order[1] != fat {
		t.Fatal("RankLBEF must rank the thin job's coflow before the fat one")
	}
}

// TestRankLBEFDeterministicTies: equal blocking effects fall back to coflow
// ID order, so the ranking is stable across runs.
func TestRankLBEFDeterministicTies(t *testing.T) {
	g, err := New(Config{Delta: 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cs := mkRuntimeJobs(t, g, runtimeJob{1, 2, 1e6, 5e5}, runtimeJob{2, 2, 1e6, 5e5})
	a, b := cs[0], cs[1]
	order1 := g.RankLBEF(1, []*sim.CoflowState{b, a})
	order2 := g.RankLBEF(2, []*sim.CoflowState{a, b})
	if order1[0] != order2[0] || order1[1] != order2[1] {
		t.Fatal("tie-break not deterministic")
	}
	if order1[0] != a {
		t.Fatal("ties must resolve by coflow ID")
	}
}

// TestRankLBEFOracle: the oracle variant ranks from static structure with
// no observations at all.
func TestRankLBEFOracle(t *testing.T) {
	g, err := NewPlus(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cs := mkRuntimeJobs(t, g,
		runtimeJob{1, 10, 1e9, 0}, // nothing observed yet
		runtimeJob{2, 1, 1e6, 0},
	)
	fat, thin := cs[0], cs[1]
	order := g.RankLBEF(0, []*sim.CoflowState{fat, thin})
	if order[0] != thin {
		t.Fatal("oracle ranking must use true sizes")
	}
}
