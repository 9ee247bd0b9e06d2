package main

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

func TestVerdict(t *testing.T) {
	a := summary{Median: 10, Min: 9.8, Max: 10.2}
	for _, c := range []struct {
		lo, hi float64
		better string
		want   string
	}{
		{9, 10.9, "lower", "within"},
		{11.2, 12, "lower", "regressed"},
		{10.5, 11.5, "lower", "unresolved"},
		{9.1, 11, "higher", "within"},
		{8, 8.9, "higher", "regressed"},
		{8.5, 9.5, "higher", "unresolved"},
	} {
		b := summary{Median: (c.lo + c.hi) / 2, Min: c.lo, Max: c.hi}
		if got := verdict(a, b, c.better, 0.1); got != c.want {
			t.Errorf("B in [%v, %v], %s is better: %s, want %s", c.lo, c.hi, c.better, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(bench, map[string]any{"end_to_end": []map[string]any{{"name": "wall_s", "better": "lower", "bound": 0.1}}}); err != nil {
		t.Fatal(err)
	}
	n := 0
	set := func(wall, events float64) string {
		n++
		path := filepath.Join(dir, fmt.Sprintf("set%d.json", n))
		err := writeJSON(path, setResult{Workloads: map[string]*workloadSet{"trace-k8": {
			EndToEnd: map[string]summary{"wall_s": {Median: wall, Min: wall, Max: wall, N: 3}},
			PerLayer: map[string]layerValue{"sim.events": {Unit: "count", Value: events}},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(10, 100)
	if err := compareSets(io.Discard, bench, base, set(10.5, 100)); err != nil {
		t.Errorf("a 5%% slower set fails a 10%% bound: %v", err)
	}
	if err := compareSets(io.Discard, bench, base, set(12, 100)); err == nil {
		t.Error("a 20% slower set passes a 10% bound")
	}
	if err := compareSets(io.Discard, bench, base, set(10, 101)); err == nil {
		t.Error("a changed event count passes")
	}
}
