// Command guritabench is the repository's end-to-end benchmark: four
// workloads that stress the simulator's allocator and policy layers and the
// campaign runner's store, each measured untraced for the end-to-end
// metrics and traced for a per-layer split, with every result checked
// against committed digests.
//
// Usage:
//
//	guritabench -seed 1 -out bench.json          # the full set: 3 untraced reps + 1 traced rep per workload
//	guritabench -workload trace-k8 -seed 1 -seconds 20 -trace 0
//	                                             # one run; prints a JSON result as its last line
//	guritabench -compare set1.json set2.json     # verdicts against BENCHMARK.json's bounds
//
// See README.md in this directory for the workloads, metrics and bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// workdir holds the runs' caches, profiles and spans, relative to the
// directory the benchmark runs in.
const workdir = ".bench_build/guritabench"

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload and print its result as JSON (trace-k8, bursty-k48, sweep-cold, sweep-warm)")
		seed       = flag.Int64("seed", 1, "workload seed")
		seconds    = flag.Float64("seconds", 20, "measured time one run aims for; 0 measures a single rep")
		trace      = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		reportPath = flag.String("report", "", "with -workload: also write the full run report as JSON here")
		spans      = flag.String("spans", "", "with -workload -trace 1: write the spans as JSONL here")
		out        = flag.String("out", "bench.json", "full set: write the results here")
		goldensOut = flag.String("goldens-out", "", "full set: record the observed digests for -seed in this goldens file")
		compare    = flag.Bool("compare", false, "compare two full-set result files: -compare A.json B.json")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "guritabench: -trace must be 0 or 1")
		os.Exit(2)
	}
	// The bounds were measured with two worker goroutines on two CPUs.
	runtime.GOMAXPROCS(workers)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "guritabench: -compare takes two result files")
			os.Exit(2)
		}
		err = compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, *reportPath, *spans)
	default:
		err = runSet(*seed, *out, *goldensOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "guritabench:", err)
		os.Exit(1)
	}
}

// runOne measures one workload and prints the result line last on stdout.
func runOne(workload string, seed int64, seconds float64, traced bool, reportPath, spans string) error {
	if traced && spans == "" {
		spans = defaultSpans(workdir, workload)
	}
	rep, err := run(runConfig{
		workload: workload, seed: seed, seconds: seconds, traced: traced,
		sizes: fullSizes, workdir: workdir, spans: spans,
	})
	if err != nil {
		return err
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "guritabench: %s: %s\n", workload, e)
	}
	if reportPath != "" {
		if err := writeJSON(reportPath, rep); err != nil {
			return err
		}
	}
	line, err := contractLine(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return errFailed
	}
	return nil
}
