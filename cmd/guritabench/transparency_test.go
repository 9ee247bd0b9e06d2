package main

import (
	"testing"

	"gurita"
	"gurita/internal/metrics"
)

// toySizes runs every workload's code path in well under a second.
var toySizes = sizes{traceCoflows: 20, burstyJobs: 3, burstyK: 48, gridSeeds: 1, gridCoflows: 3, warmPasses: 2}

func resultDigest(t *testing.T, res *gurita.Result) string {
	t.Helper()
	doc := metrics.NewResultDoc(res, true)
	d, err := digestOf(&doc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The scheduler decorator and the benchmark's direct sim.New path must
// reproduce gurita.Scenario.Run byte for byte.
func TestTimedSchedulerTransparent(t *testing.T) {
	scale := gurita.Scale{TraceCoflows: toySizes.traceCoflows, FatTreeK: 8, Seed: mixSeed, MaxSenders: 6, MaxReducers: 3, TraceTimeScale: 0.1}
	sc, err := gurita.TraceScenario(gurita.StructureFBTao, scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []gurita.SchedulerKind{gurita.KindGurita, gurita.KindPFS} {
		res, err := sc.Run(kind)
		if err != nil {
			t.Fatal(err)
		}
		inner, err := gurita.NewScheduler(kind, queues)
		if err != nil {
			t.Fatal(err)
		}
		ts := &timedScheduler{Scheduler: inner}
		timed, err := sc.RunWith(ts, kind == gurita.KindGurita)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := resultDigest(t, res), resultDigest(t, timed); a != b {
			t.Errorf("%s: timed digest %.12s, plain %.12s", kind, b, a)
		}
		if ts.calls == 0 || ts.hist.n == 0 {
			t.Errorf("%s: decorator saw %d calls and timed %d", kind, ts.calls, ts.hist.n)
		}
		if kind != gurita.KindGurita {
			continue
		}
		for _, traced := range []bool{false, true} {
			e := &env{seed: mixSeed, traced: traced, sizes: toySizes, layers: newLayerStats()}
			st, _, err := setupTrace(e)
			if err != nil {
				t.Fatal(err)
			}
			r := st.rep(e)
			if r.err != nil || r.digest != resultDigest(t, res) {
				t.Errorf("trace-k8 rep (traced %v): digest %.12s, err %v; Scenario.Run gives %.12s", traced, r.digest, r.err, resultDigest(t, res))
			}
		}
	}
}

// The traced campaign path (runner.Run over a timed fsstore) must give the
// same results as gurita.RunCampaign in lease mode, cold and warm.
func TestTimedStoreTransparent(t *testing.T) {
	scale := gurita.QuickScale()
	scale.TraceCoflows = toySizes.gridCoflows
	var specs []gurita.TrialSpec
	for _, k := range gurita.AllKinds() {
		specs = append(specs, gurita.TrialSpec{Scheduler: k, Structure: gurita.StructureFBTao, Scale: scale}.Normalized())
	}
	e := &env{seed: 1, traced: true, sizes: toySizes, workdir: t.TempDir(), layers: newLayerStats()}

	var cold [2]repResult
	for i, traced := range []bool{false, true} {
		st, err := openSweep(e.workdir, specs)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		cold[i] = st.campaign(e, traced, "")
		if cold[i].err != nil || cold[i].executed != len(specs) {
			t.Fatalf("cold campaign (traced %v): executed %d, err %v", traced, cold[i].executed, cold[i].err)
		}
		warm := st.campaign(e, traced, cold[i].digest)
		if warm.err != nil || warm.hits != len(specs) {
			t.Errorf("warm pass (traced %v): %d hits, err %v", traced, warm.hits, warm.err)
		}
	}
	if cold[0].digest != cold[1].digest {
		t.Errorf("traced campaign digest %.12s, RunCampaign %.12s", cold[1].digest, cold[0].digest)
	}
	for _, name := range []string{"get", "put", "claim", "release", "execute"} {
		if h, _ := e.layers.spanHist(name); h.n == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}
