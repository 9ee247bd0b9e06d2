// Command benchgate is the CI performance gate: it compares `go test
// -bench -benchmem` output against a committed baseline (BENCH_*.json)
// and exits nonzero when a benchmark regresses past budget.
//
// Usage:
//
//	go test -run xxx -bench X -benchmem ./... | benchgate -baseline BENCH_baseline.json
//
// Gating rules:
//
//   - ns/op may not regress more than -max-regress (default 25%) over the
//     baseline. Speedups are reported but never fail; rerun with -update
//     to ratchet the baseline after an intentional improvement.
//   - allocs/op on a 0-alloc path (baseline allocs_per_op == 0) may not
//     increase at all: those baselines are contracts, not measurements.
//     Increases on nonzero-alloc paths are reported as warnings only —
//     they are load- and version-sensitive, and the ns/op budget already
//     bounds their cost.
//   - A baseline ns_per_op of 0 records no measurement (a row whose ns/op
//     has not been captured on the baseline machine): its ns/op is
//     reported but not gated, while its allocs/op pin still holds.
//   - Benchmarks in the input but absent from the baseline are listed so
//     new benchmarks get committed; they never fail the gate.
//
// -update rewrites the measured fields of every baseline entry present in
// the input (preserving scenario/contract annotations) so refreshing a
// baseline is one command instead of hand-editing JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// entry is one baseline benchmark record. Annotation fields are preserved
// verbatim by -update; only the three measured fields are rewritten.
type entry struct {
	Scenario    string  `json:"scenario,omitempty"`
	Command     string  `json:"command,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Contract    string  `json:"contract,omitempty"`
}

// baseline mirrors the BENCH_*.json layout. Extra top-level fields (the
// end_to_end notes) round-trip through Raw so -update does not drop them.
type baseline struct {
	Description string           `json:"description"`
	CapturedAt  string           `json:"captured_at"`
	Machine     string           `json:"machine"`
	Command     string           `json:"command,omitempty"`
	Benchmarks  map[string]entry `json:"benchmarks"`

	raw map[string]json.RawMessage // full file, for lossless -update
}

// measurement is one parsed benchmark result line.
type measurement struct {
	name   string
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
}

func main() {
	var (
		basePath   = flag.String("baseline", "BENCH_baseline.json", "baseline JSON to gate against")
		maxRegress = flag.Float64("max-regress", 0.25, "allowed fractional ns/op regression (0.25 = +25%)")
		minNs      = flag.Float64("min-ns", 50, "skip ns/op gating below this baseline (timer granularity dominates)")
		update     = flag.Bool("update", false, "rewrite baseline measurements from the input instead of gating")
	)
	flag.Parse()

	bl, err := loadBaseline(*basePath)
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	ms, err := parseBench(os.Stdin)
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	if len(ms) == 0 {
		fatalf("benchgate: no benchmark results on stdin (pipe `go test -bench -benchmem` output)")
	}

	if *update {
		if err := updateBaseline(*basePath, bl, ms); err != nil {
			fatalf("benchgate: %v", err)
		}
		fmt.Printf("benchgate: updated %d measurement(s) in %s\n", len(ms), *basePath)
		return
	}

	failures := gate(bl, ms, *maxRegress, *minNs)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL\t"+f)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) vs %s (rerun with -update after an intentional change)\n",
			len(failures), *basePath)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within budget of %s\n", len(ms), *basePath)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func loadBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bl := &baseline{}
	if err := json.Unmarshal(data, bl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(data, &bl.raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bl.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no \"benchmarks\" entries", path)
	}
	return bl, nil
}

// parseBench extracts result lines from `go test -bench` output. A result
// line is "BenchmarkName-P  N  V ns/op  [V B/op  V allocs/op  custom...]";
// the -P GOMAXPROCS suffix is stripped so names match baseline keys.
func parseBench(r io.Reader) ([]measurement, error) {
	var out []measurement
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		m := measurement{name: stripProcs(f[0])}
		seen := false
		// Fields after the iteration count come in (value, unit) pairs.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), f[i])
			}
			switch f[i+1] {
			case "ns/op":
				m.ns, seen = v, true
			case "B/op":
				m.bytes, m.hasMem = v, true
			case "allocs/op":
				m.allocs, m.hasMem = v, true
			}
		}
		if seen {
			out = append(out, m)
		}
	}
	return out, sc.Err()
}

// stripProcs removes the trailing -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkFoo/sub-8" → "BenchmarkFoo/sub").
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func gate(bl *baseline, ms []measurement, maxRegress, minNs float64) []string {
	var failures, unknown []string
	for _, m := range ms {
		base, ok := bl.Benchmarks[m.name]
		if !ok {
			unknown = append(unknown, m.name)
			continue
		}
		switch {
		case base.NsPerOp == 0:
			fmt.Printf("ok\t%s: %.4g ns/op (no baseline ns/op captured; not gated)\n", m.name, m.ns)
		case base.NsPerOp < minNs:
			fmt.Printf("ok\t%s: %.4g ns/op (baseline %.4g below %.4g ns gating floor)\n",
				m.name, m.ns, base.NsPerOp, minNs)
		case m.ns > base.NsPerOp*(1+maxRegress):
			failures = append(failures, fmt.Sprintf(
				"%s: %.4g ns/op exceeds baseline %.4g by %+.1f%% (budget %+.0f%%)",
				m.name, m.ns, base.NsPerOp, 100*(m.ns/base.NsPerOp-1), 100*maxRegress))
		default:
			fmt.Printf("ok\t%s: %.4g ns/op vs baseline %.4g (%+.1f%%)\n",
				m.name, m.ns, base.NsPerOp, 100*(m.ns/base.NsPerOp-1))
		}
		if !m.hasMem {
			continue // no -benchmem columns: nothing to check allocs against
		}
		if base.AllocsPerOp == 0 && m.allocs > 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: %g allocs/op on a 0-alloc path (baseline pins 0)", m.name, m.allocs))
		} else if m.allocs > base.AllocsPerOp {
			fmt.Printf("warn\t%s: allocs/op %g > baseline %g (not gated; ns/op budget bounds it)\n",
				m.name, m.allocs, base.AllocsPerOp)
		}
	}
	sort.Strings(unknown)
	for _, n := range unknown {
		fmt.Printf("new\t%s: not in baseline (add it with -update against a baseline that lists it)\n", n)
	}
	return failures
}

// updateBaseline rewrites the measured fields of entries present in the
// input, leaving annotations and unrelated top-level fields untouched.
func updateBaseline(path string, bl *baseline, ms []measurement) error {
	for _, m := range ms {
		e, ok := bl.Benchmarks[m.name]
		if !ok {
			e = entry{}
		}
		e.NsPerOp = m.ns
		if m.hasMem {
			e.BytesPerOp = m.bytes
			e.AllocsPerOp = m.allocs
		}
		bl.Benchmarks[m.name] = e
	}
	enc, err := json.MarshalIndent(bl.Benchmarks, "  ", "  ")
	if err != nil {
		return err
	}
	bl.raw["benchmarks"] = enc
	// Rebuild the file in a stable key order: metadata first, then the
	// benchmark table, then anything else (e.g. end_to_end notes).
	keys := make([]string, 0, len(bl.raw))
	for k := range bl.raw {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keyRank(keys[a]) < keyRank(keys[b]) })
	var buf strings.Builder
	buf.WriteString("{\n")
	for i, k := range keys {
		kj, _ := json.Marshal(k)
		buf.WriteString("  " + string(kj) + ": " + strings.TrimSpace(string(bl.raw[k])))
		if i < len(keys)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

func keyRank(k string) string {
	order := map[string]string{
		"description": "0", "captured_at": "1", "machine": "2",
		"command": "3", "benchmarks": "4",
	}
	if r, ok := order[k]; ok {
		return r
	}
	return "9" + k
}
