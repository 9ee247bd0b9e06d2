package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// Every workload, untraced and traced, emits exactly the metrics
// BENCHMARK.json names for its mode, at toy sizes.
func TestEveryBenchmarkMetricEmitted(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadOrder)
	}
	if !reflect.DeepEqual(spec.EndToEnd, stripExact(endToEnd)) || !reflect.DeepEqual(spec.PerLayer, stripExact(perLayer)) {
		t.Errorf("BENCHMARK.json metric lists differ from the benchmark's")
	}

	workdir := t.TempDir()
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 2, traced: traced, sizes: toySizes, workdir: workdir}
			if traced {
				cfg.spans = filepath.Join(workdir, w+".spans.jsonl")
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w, traced, err)
			}
			line, err := contractLine(rep)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w, traced, err)
			}
			var got struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if !got.Correct || got.Attempted < 1 || len(got.Metrics) != len(want) {
				t.Errorf("%s (traced %v): correct %v, attempted %d, %d metrics for %d named; errors %v",
					w, traced, got.Correct, got.Attempted, len(got.Metrics), len(want), rep.Errors)
			}
			for _, m := range want {
				if _, ok := got.Metrics[m.Name]; !ok {
					t.Errorf("%s (traced %v): %s missing", w, traced, m.Name)
				}
			}
			if traced && w == "sweep-cold" {
				spans, err := os.ReadFile(cfg.spans)
				if err != nil || !strings.Contains(string(spans), `"name":"put"`) {
					t.Errorf("sweep-cold spans: %v", err)
				}
			}
		}
	}
}

func stripExact(defs []metricDef) []metricDef {
	out := make([]metricDef, len(defs))
	for i, d := range defs {
		out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
	}
	return out
}
