package gurita_test

// Smoke tests for the paper-scale configuration: the 48-pod fabric (27648
// servers, 2880 switches, 165888 directed links) must be constructible and
// runnable. The full 10000-job Figure 7 run is gated behind
// GURITA_FULLSCALE=1; here we only prove the machinery carries the scale.

import (
	"testing"
	"time"

	gurita "gurita"
)

func TestPaperScaleFabricConstruction(t *testing.T) {
	tp, err := gurita.FatTree(48, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumServers() != 27648 || tp.NumSwitches() != 2880 || tp.NumLinks() != 165888 {
		t.Fatalf("48-pod fabric dims wrong: %v", tp)
	}
}

func TestPaperScaleFabricRunsJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("large-fabric allocation")
	}
	tp, err := gurita.FatTree(48, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gurita.GenerateWorkload(gurita.WorkloadConfig{
		NumJobs:   25,
		Seed:      5,
		Servers:   tp.NumServers(),
		Structure: gurita.StructureFBTao,
		Arrival:   &gurita.BurstyArrivals{BurstSize: 5, IntraGap: 2e-6, InterGap: 1},
		CategoryWeights: [gurita.NumCategories]float64{
			0.6, 0.3, 0.1, 0, 0, 0, 0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore nondetsource wall-clock measures this test's own throughput floor; trial results depend only on the spec
	start := time.Now()
	res, err := gurita.Scenario{Topology: tp, Jobs: jobs}.Run(gurita.KindGurita)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 25 {
		t.Fatalf("drained %d/25 jobs on the 48-pod fabric", len(res.Jobs))
	}
	// Throughput floor: this smoke runs 420 events in about 15 ms, ~28k
	// events/sec (six runs ranged 15k–30k) on a 2-vCPU Xeon container with
	// go1.24. The floor sits 14× below the typical rate and 7× below the
	// slowest run, so only a wholesale engine regression — not machine
	// variance on a milliseconds-long sample — can trip it.
	const floorEventsPerSec = 2_000
	evps := float64(res.Events) / elapsed.Seconds()
	t.Logf("48-pod smoke: %d events in %v (%.0f events/sec)", res.Events, elapsed, evps)
	if evps < floorEventsPerSec {
		t.Errorf("48-pod smoke ran at %.0f events/sec, floor is %d — the hot path has regressed wholesale",
			evps, floorEventsPerSec)
	}
}

func TestPaperScaleConfigConsistency(t *testing.T) {
	ps := gurita.PaperScale()
	if ps.BurstyFatTreeK != 48 || ps.BurstyJobs != 10000 {
		t.Fatalf("paper scale = %+v, want 48-pod / 10000 jobs", ps)
	}
	if ps.FatTreeK != 8 {
		t.Fatalf("paper-scale trace fabric k = %d, want 8", ps.FatTreeK)
	}
}
