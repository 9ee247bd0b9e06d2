package gurita_test

// Facade-level fault tests: cache-key stability for fault-free specs, the
// failure-sweep experiment, schedule loading, and end-to-end campaign
// degradation (failed and timed-out trials become manifest entries while
// healthy trials still produce results).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	gurita "gurita"
)

// TestTrialSpecFaultKeyStability: a spec without faults must canonically
// marshal without the fault fields, so every pre-fault cache entry keeps its
// key — and an empty profile must share the fault-free key.
func TestTrialSpecFaultKeyStability(t *testing.T) {
	spec := gurita.TrialSpec{Scheduler: gurita.KindGurita, Scale: tinyScale()}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"faults", "check_invariants"} {
		if strings.Contains(string(b), field) {
			t.Fatalf("fault-free spec JSON contains %q — pre-fault cache keys would be invalidated:\n%s", field, b)
		}
	}

	if testing.Short() {
		t.Skip("campaign execution")
	}
	// A campaign run with an all-zero profile must hit the cache entries
	// written by a nil-profile run: both normalize to the same spec.
	dir := t.TempDir()
	ctx := context.Background()
	specs := []gurita.TrialSpec{{Scheduler: gurita.KindPFS, Scale: tinyScale()}}
	if _, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir}); err != nil {
		t.Fatal(err)
	} else if stats.Executed != 1 {
		t.Fatalf("first campaign executed %d trials, want 1", stats.Executed)
	}
	specs[0].Faults = &gurita.FaultProfile{Seed: 99, Horizon: 60} // all rates zero: empty
	_, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("empty-profile spec missed the fault-free cache entry (hits=%d)", stats.CacheHits)
	}
}

func TestFaultedTrialKeyDiffers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign execution")
	}
	dir := t.TempDir()
	ctx := context.Background()
	base := gurita.TrialSpec{Scheduler: gurita.KindPFS, Scale: tinyScale()}
	faulted := base
	faulted.Faults = &gurita.FaultProfile{Seed: 1, Horizon: 60, LinkFailRate: 1}
	faulted.CheckInvariants = true
	_, stats, err := gurita.RunCampaign(ctx, []gurita.TrialSpec{base, faulted}, gurita.CampaignOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 2 || stats.CacheHits != 0 {
		t.Fatalf("faulted and fault-free specs must not share a cache key: %+v", stats)
	}
}

func TestFailureSweepTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheduler simulation")
	}
	ft, raw, err := gurita.ExperimentFailureSweep(tinyScale(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Rows) != 2 {
		t.Fatalf("failure sweep rows = %d, want one per rate", len(ft.Rows))
	}
	for _, rate := range []float64{0, 2} {
		per, ok := raw[rate]
		if !ok {
			t.Fatalf("rate %v missing from results", rate)
		}
		for kind, jct := range per {
			if jct <= 0 {
				t.Fatalf("rate %v, %s: JCT %v, want > 0", rate, kind, jct)
			}
		}
	}
	if !strings.Contains(ft.String(), "link-failure rate") {
		t.Fatalf("table missing axis label:\n%s", ft)
	}
	// The digest pins the table and every mean at full precision, so a trial
	// or fault seed that stops following the scale's seed moves it.
	h := sha256.New()
	fmt.Fprintf(h, "%s%v\n%v\n", ft, raw[0], raw[2])
	if got, want := hex.EncodeToString(h.Sum(nil)), failureSweepTinyDigest; got != want {
		t.Fatalf("failure sweep digest %s, want %s:\n%s%v\n%v", got, want, ft, raw[0], raw[2])
	}
}

// failureSweepTinyDigest is the SHA-256 of ExperimentFailureSweep(tinyScale(),
// 0, 2)'s rendered table followed by its per-rate means (fmt prints a map in
// key order).
const failureSweepTinyDigest = "5760f65f6ccaecdc9d9bb0e79dcdb779f8fd9d29c73f34995215cb7f103e2f07"

func TestFailureSweepReplayable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheduler simulation")
	}
	// Same scale, same rates: byte-identical tables, serial vs parallel.
	scale := tinyScale()
	a, _, err := gurita.ExperimentFailureSweepWith(context.Background(), scale,
		gurita.CampaignOptions{Workers: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := gurita.ExperimentFailureSweepWith(context.Background(), scale,
		gurita.CampaignOptions{Workers: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("fault sweep not replayable across worker counts:\n%s\nvs\n%s", a, b)
	}
}

func TestLoadFaultSchedule(t *testing.T) {
	in := `{"events":[{"t":0.5,"kind":"link-down","link":3},{"t":1.5,"kind":"link-up","link":3}]}`
	s, err := gurita.LoadFaultSchedule(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != gurita.FaultLinkDown {
		t.Fatalf("loaded schedule = %+v", s)
	}
	if _, err := gurita.LoadFaultSchedule(strings.NewReader(`{"bogus":1}`)); err == nil {
		t.Fatal("invalid schedule JSON should error")
	}
}

// TestCampaignGracefulDegradation: a campaign containing a trial that cannot
// even build completes under ContinueOnError, reports the failure in the
// manifest, and still emits every healthy trial's results.
func TestCampaignGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign execution")
	}
	specs := []gurita.TrialSpec{
		{Scheduler: gurita.KindPFS, Scale: tinyScale()},
		{Scheduler: gurita.KindPFS, Scale: tinyScale(), Topo: "no-such-fabric"},
		{Scheduler: gurita.KindVarys, Scale: tinyScale()},
	}
	res, stats, err := gurita.RunCampaign(context.Background(), specs, gurita.CampaignOptions{
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatalf("campaign should degrade gracefully, got %v", err)
	}
	if len(stats.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(stats.Failures))
	}
	f := stats.Failures[0]
	if f.Index != 1 || !strings.Contains(f.Err, "no-such-fabric") {
		t.Fatalf("manifest entry = %+v, want index 1 naming the bad topology", f)
	}
	if res[1] != nil {
		t.Fatal("failed trial should have a nil results slot")
	}
	for _, i := range []int{0, 2} {
		if res[i] == nil || len(res[i].Jobs) == 0 {
			t.Fatalf("healthy trial %d produced no results", i)
		}
	}
	// Without ContinueOnError the same grid aborts.
	if _, _, err := gurita.RunCampaign(context.Background(), specs, gurita.CampaignOptions{}); err == nil {
		t.Fatal("campaign without ContinueOnError should abort on the bad spec")
	}
}

// TestCampaignTrialTimeout: an absurdly small per-trial budget times every
// trial out; under ContinueOnError the campaign still completes and the
// manifest marks the entries TimedOut.
func TestCampaignTrialTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign execution")
	}
	specs := []gurita.TrialSpec{{Scheduler: gurita.KindPFS, Scale: tinyScale()}}
	res, stats, err := gurita.RunCampaign(context.Background(), specs, gurita.CampaignOptions{
		TrialTimeout:    time.Nanosecond,
		ContinueOnError: true,
	})
	if err != nil {
		t.Fatalf("campaign should degrade gracefully, got %v", err)
	}
	if len(stats.Failures) != 1 || !stats.Failures[0].TimedOut {
		t.Fatalf("stats = %+v, want one TimedOut failure", stats)
	}
	if res[0] != nil {
		t.Fatal("timed-out trial should have a nil results slot")
	}
}

// TestScenarioFaultsEndToEnd drives a faulted scenario through the public
// facade: generate a profile schedule, run with invariants on, all jobs
// complete.
func TestScenarioFaultsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	spec := gurita.TrialSpec{
		Scheduler:       gurita.KindGurita,
		Scale:           tinyScale(),
		Faults:          &gurita.FaultProfile{Seed: 4, Horizon: 60, LinkFailRate: 2, MTTR: 0.5},
		CheckInvariants: true,
	}
	sc, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Faults == nil || len(sc.Faults.Events) == 0 {
		t.Fatal("Build did not generate a fault schedule")
	}
	res, err := sc.Run(gurita.KindGurita)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) == 0 {
		t.Fatal("faulted scenario completed no jobs")
	}
}
