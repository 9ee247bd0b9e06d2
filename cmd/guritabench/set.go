package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// setReps is how many untraced child processes measure each workload in a
// full set; one traced child follows them.
const setReps = 3

// setEndToEnd is every end-to-end metric a full set reports.
var setEndToEnd = append(append([]metricDef(nil), endToEnd...), setExtras...)

// summary is one end-to-end metric over a set's untraced reps.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type layerValue struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadSet is one workload's part of a full set.
type workloadSet struct {
	Digest    string                `json:"digest"`
	Golden    string                `json:"golden"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Errors    []string              `json:"errors,omitempty"`
	EndToEnd  map[string]summary    `json:"end_to_end"`
	PerLayer  map[string]layerValue `json:"per_layer"`
	Tails     map[string]tail       `json:"tails,omitempty"`
}

// setResult is the file a full set writes and -compare reads.
type setResult struct {
	Seed      int64                   `json:"seed"`
	Go        string                  `json:"go"`
	Platform  string                  `json:"platform"`
	CPUs      int                     `json:"cpus"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

// runSet measures every workload in fresh child processes, prints each
// metric as it lands, and writes the set to out.
func runSet(seed int64, out, goldensOut string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	set := &setResult{
		Seed: seed, Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		CPUs: runtime.NumCPU(), Workloads: map[string]*workloadSet{},
	}
	failed := false
	for _, name := range workloadOrder {
		var reps []*report
		for i := 0; i <= setReps; i++ {
			traced, spans := i == setReps, ""
			if traced {
				spans = strings.TrimSuffix(out, ".json") + "." + name + ".spans.jsonl"
			}
			r, err := child(exe, name, seed, traced, spans)
			if err != nil {
				return err
			}
			reps = append(reps, r)
		}
		ws := summarize(reps)
		set.Workloads[name] = ws
		printWorkload(os.Stdout, name, ws)
		failed = failed || ws.Failed > 0
	}
	if err := writeJSON(out, set); err != nil {
		return err
	}
	if goldensOut != "" {
		if err := recordGoldens(goldensOut, set); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// child runs one rep of one workload in a fresh process and reads back its
// report.
func child(exe, workload string, seed int64, traced bool, spans string) (*report, error) {
	f, err := os.CreateTemp(workdir, "report-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", "0", "-trace", trace, "-report", f.Name()}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rep report
	data, err := os.ReadFile(f.Name())
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: child run: %v (report: %v)", workload, runErr, err)
	}
	return &rep, nil
}

// summarize folds a workload's untraced reps and its traced rep (last)
// into one entry. Every child must have produced the same digest.
func summarize(reps []*report) *workloadSet {
	ws := &workloadSet{Digest: reps[0].Digest, Golden: "match", EndToEnd: map[string]summary{}, PerLayer: map[string]layerValue{}}
	for i, r := range reps {
		ws.Attempted += r.Attempted
		ws.Failed += r.Failed
		ws.Errors = append(ws.Errors, r.Errors...)
		if r.Digest != ws.Digest {
			ws.Failed += r.Attempted - r.Failed
			ws.Errors = append(ws.Errors, fmt.Sprintf("child %d digest %.12s differs from child 1's %.12s", i+1, r.Digest, ws.Digest))
		}
		if r.Golden != "match" && ws.Golden != "mismatch" {
			ws.Golden = r.Golden
		}
	}
	untraced, traced := reps[:len(reps)-1], reps[len(reps)-1]
	for _, d := range setEndToEnd {
		var vals []float64
		for _, r := range untraced {
			if v, ok := r.EndToEnd[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		lo, hi := minMax(vals)
		ws.EndToEnd[d.Name] = summary{Unit: d.Unit, Median: median(vals), Min: lo, Max: hi, N: len(vals), Values: vals}
	}
	for _, d := range perLayer {
		ws.PerLayer[d.Name] = layerValue{d.Unit, traced.PerLayer[d.Name]}
	}
	ws.PerLayer["trace.overhead_frac"] = layerValue{"ratio", traced.EndToEnd["wall_s"]/ws.EndToEnd["wall_s"].Median - 1}
	ws.Tails = traced.Tails
	return ws
}

func printWorkload(w io.Writer, name string, ws *workloadSet) {
	for _, d := range setEndToEnd {
		if s, ok := ws.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "%-10s %-30s %14.6g %-5s (min %.6g, max %.6g, n=%d)\n", name, d.Name, s.Median, d.Unit, s.Min, s.Max, s.N)
		}
	}
	for _, d := range append(append([]metricDef(nil), perLayer...), metricDef{Name: "trace.overhead_frac", Unit: "ratio"}) {
		fmt.Fprintf(w, "%-10s %-30s %14.6g %s\n", name, d.Name, ws.PerLayer[d.Name].Value, d.Unit)
	}
	for _, d := range []string{"sched.assign_queues", "runner.execute", "cachestore.get", "cachestore.put", "cachestore.claim", "cachestore.release"} {
		if t, ok := ws.Tails[d]; ok {
			fmt.Fprintf(w, "%-10s %-30s %14.6g us   (p%g, n=%d)\n", name, d+".tail", t.Seconds*1e6, t.P, t.N)
		}
	}
	fmt.Fprintf(w, "%-10s %-30s %s (golden: %s)\n", name, "digest", ws.Digest, ws.Golden)
	for _, e := range ws.Errors {
		fmt.Fprintf(w, "%-10s error: %s\n", name, e)
	}
}

// recordGoldens stores the set's digests as the goldens for its seed.
func recordGoldens(path string, set *setResult) error {
	g := map[string]map[string]string{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	for name, ws := range set.Workloads {
		if g[name] == nil {
			g[name] = map[string]string{}
		}
		g[name][strconv.FormatInt(set.Seed, 10)] = ws.Digest
	}
	return writeJSON(path, g)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges B's reps against A's median widened by the bound: within
// when every rep of B is inside it, regressed when every rep is outside,
// unresolved when B's range straddles it.
func verdict(a, b summary, better string, bound float64) string {
	if better == "higher" {
		limit := a.Median * (1 - bound)
		switch {
		case b.Min >= limit:
			return "within"
		case b.Max < limit:
			return "regressed"
		}
		return "unresolved"
	}
	limit := a.Median * (1 + bound)
	switch {
	case b.Max <= limit:
		return "within"
	case b.Min > limit:
		return "regressed"
	}
	return "unresolved"
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and ranges with a verdict, and checks that every exact count
// repeats. It fails on any regression or count mismatch.
func compareSets(w io.Writer, benchPath, aPath, bPath string) error {
	var bench benchmarkFile
	var a, b setResult
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &bench}, {aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.v); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	bad := 0
	for _, name := range workloadOrder {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range bench.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			v := verdict(sa, sb, m.Better, m.Bound)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(w, "%-10s %-12s A %.6g [%.6g–%.6g]  B %.6g [%.6g–%.6g]  %+6.1f%%  %s (bound %.0f%%)\n",
				name, m.Name, sa.Median, sa.Min, sa.Max, sb.Median, sb.Min, sb.Max, 100*(sb.Median/sa.Median-1), v, 100*m.Bound)
		}
		if fa, fb := wa.EndToEnd["fail_frac"].Median, wb.EndToEnd["fail_frac"].Median; fb > fa {
			bad++
			fmt.Fprintf(w, "%-10s fail_frac    A %g  B %g  regressed\n", name, fa, fb)
		}
		for _, d := range perLayer {
			if va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value; d.exact && va != vb {
				bad++
				fmt.Fprintf(w, "%-10s %-30s A %.17g  B %.17g  count differs\n", name, d.Name, va, vb)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions or count mismatches", bad)
	}
	return nil
}
