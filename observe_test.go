package gurita_test

// Black-box tests of the observability facade: recording a run must never
// change its trajectory, exported traces must validate, and campaign obs
// artifacts must land where the options say.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gurita "gurita"
)

// obsScenario builds a small deterministic scenario for observability tests.
func obsScenario(t *testing.T) gurita.Scenario {
	t.Helper()
	tp, err := gurita.BigSwitch(16, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gurita.GenerateWorkload(gurita.WorkloadConfig{
		NumJobs:         10,
		Seed:            11,
		Servers:         tp.NumServers(),
		CategoryWeights: [gurita.NumCategories]float64{1, 0, 0, 0, 0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return gurita.Scenario{Topology: tp, Jobs: jobs}
}

// TestObsRecordingIsPure: running with every sink attached yields a result
// document byte-identical to the unobserved run — the zero-interference
// contract the whole subsystem rests on.
func TestObsRecordingIsPure(t *testing.T) {
	sc := obsScenario(t)
	plain, err := sc.Run(gurita.KindGurita)
	if err != nil {
		t.Fatal(err)
	}

	col := gurita.NewObsCollector()
	ring := gurita.NewFlightRecorder(0)
	var stream bytes.Buffer
	jsonl := gurita.NewObsJSONL(&stream)
	sc.Obs = gurita.ObsTee(col, ring, jsonl)
	observed, err := sc.Run(gurita.KindGurita)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := gurita.WriteResultJSON(&a, plain, true); err != nil {
		t.Fatal(err)
	}
	if err := gurita.WriteResultJSON(&b, observed, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("recording changed the result document")
	}

	// Every sink saw the run: arrivals, coflow lifecycles, decisions.
	if len(col.Events()) == 0 || len(col.Decisions()) == 0 {
		t.Fatalf("collector: %d events, %d decisions", len(col.Events()), len(col.Decisions()))
	}
	kinds := map[string]bool{}
	for _, e := range col.Events() {
		kinds[e.Kind.String()] = true
	}
	for _, want := range []string{"job-arrival", "coflow-start", "coflow-finish", "job-finish", "flow-start", "flow-finish"} {
		if !kinds[want] {
			t.Fatalf("no %s events recorded (saw %v)", want, kinds)
		}
	}
	if len(ring.Events()) == 0 {
		t.Fatal("flight recorder empty")
	}

	// The JSONL stream parses back into the same counts as the collector.
	evs, decs, err := gurita.ReadObsJSONL(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(col.Events()) || len(decs) != len(col.Decisions()) {
		t.Fatalf("jsonl %d/%d vs collector %d/%d",
			len(evs), len(decs), len(col.Events()), len(col.Decisions()))
	}

	// Gurita's decisions carry Ψ scores once priorities exist.
	scored := 0
	for _, d := range col.Decisions() {
		if d.HasScore {
			scored++
		}
	}
	if scored == 0 {
		t.Fatal("no decision carried a scheduler score")
	}

	// Engine counters are populated whether or not a sink is attached, and
	// identically so.
	if plain.Counters["netmod_reallocs"] == 0 {
		t.Fatalf("counters missing: %v", plain.Counters)
	}
	for k, v := range plain.Counters {
		if observed.Counters[k] != v {
			t.Fatalf("counter %s: %d observed vs %d plain", k, observed.Counters[k], v)
		}
	}
}

// TestObsChromeTraceExport: a recorded run exports as a trace_event document
// that passes the structural validator and is byte-deterministic.
func TestObsChromeTraceExport(t *testing.T) {
	sc := obsScenario(t)
	col := gurita.NewObsCollector()
	sc.Obs = col
	if _, err := sc.Run(gurita.KindGurita); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gurita.ExportChromeTrace(&buf, "gurita", col); err != nil {
		t.Fatal(err)
	}
	if err := gurita.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if !strings.Contains(buf.String(), `"displayTimeUnit"`) {
		t.Fatal("trace missing displayTimeUnit")
	}
	var again bytes.Buffer
	if err := gurita.ExportChromeTrace(&again, "gurita", col); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("trace export not deterministic")
	}
}

// TestCampaignObsTraceDir: an executed campaign writes one validating trace
// file per trial; a fully cache-served rerun writes none (trials never
// execute, so there is nothing to record).
func TestCampaignObsTraceDir(t *testing.T) {
	ctx := context.Background()
	specs := campaignGrid()[:2]
	cacheDir := t.TempDir()
	traceDir := filepath.Join(t.TempDir(), "traces")

	_, stats, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{
		Workers: 2, CacheDir: cacheDir, ObsTraceDir: traceDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != len(specs) {
		t.Fatalf("executed %d/%d", stats.Executed, len(specs))
	}
	files, err := filepath.Glob(filepath.Join(traceDir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(specs) {
		t.Fatalf("trace files: %v", files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := gurita.ValidateChromeTrace(data); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}

	// Warm rerun: all cache hits, fresh trace dir stays empty.
	freshDir := filepath.Join(t.TempDir(), "traces2")
	_, stats, err = gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{
		Workers: 2, CacheDir: cacheDir, ObsTraceDir: freshDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != len(specs) {
		t.Fatalf("cache hits %d/%d", stats.CacheHits, len(specs))
	}
	files, _ = filepath.Glob(filepath.Join(freshDir, "*.trace.json"))
	if len(files) != 0 {
		t.Fatalf("cache-served rerun wrote traces: %v", files)
	}

	// Cached results round-trip the engine counters.
	res, _, err := gurita.RunCampaign(ctx, specs, gurita.CampaignOptions{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Counters["netmod_reallocs"] == 0 {
		t.Fatalf("cached result lost counters: %v", res[0].Counters)
	}
}
