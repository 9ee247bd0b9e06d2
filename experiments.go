package gurita

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// This file is the figure-regeneration harness: one entry point per table
// and figure of the paper's evaluation (§V), shared by cmd/figures and the
// root benchmarks. Absolute JCTs differ from the paper (synthetic trace,
// fluid simulator); the harness reproduces the figures' *shape* — who wins,
// by roughly what factor, where the crossovers sit. EXPERIMENTS.md records
// paper-vs-measured for every row.

// FigureTable is a rendered experiment output.
type FigureTable struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as fixed-width text.
func (f FigureTable) String() string {
	return f.Title + "\n" + RenderTable(f.Header, f.Rows)
}

// CSV renders the table as RFC-4180 CSV (header row first), ready for
// plotting tools. The title is not included.
func (f FigureTable) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	// Errors are impossible on a strings.Builder; Flush surfaces any.
	_ = w.Write(f.Header)
	_ = w.WriteAll(f.Rows)
	w.Flush()
	return b.String()
}

// Scale sizes an experiment. The quick scale keeps `go test -bench` fast;
// the paper scale matches §V (8-pod trace runs; 48-pod, 10000-job bursty
// runs) and is selected with GURITA_FULLSCALE=1.
type Scale struct {
	// TraceCoflows is the number of trace coflows (= jobs) in trace-driven
	// runs on the FatTreeK fabric.
	TraceCoflows int
	FatTreeK     int
	// BurstyJobs and BurstyFatTreeK size the bursty large-scale run.
	BurstyJobs     int
	BurstyFatTreeK int
	// BurstSize jobs arrive 2 µs apart, then a quiet gap follows.
	BurstSize int
	Seed      int64
	// MaxSenders/MaxReducers cap grafted flow grids (simulation
	// tractability; see workload.GraftConfig).
	MaxSenders  int
	MaxReducers int
	// TraceTimeScale compresses trace arrivals to load the fabric (the
	// synthesized trace arrives at ~1 coflow/s; 0.1 → ~10 coflows/s).
	TraceTimeScale float64
	// BurstyCategoryWeights optionally overrides the job-size mix for the
	// bursty runs. The quick scale trims the multi-TB tail (categories VI
	// and VII) whose hours-long drains dominate wall-clock time without
	// informing the comparison; the paper scale keeps the full mix.
	BurstyCategoryWeights [NumCategories]float64
	// Trials averages every figure over this many independent workloads
	// (seeds Seed, Seed+1, …). 0 or 1 = a single trial. Wall-clock scales
	// linearly with trials.
	Trials int
}

// trials normalizes the trial count.
func (s Scale) trials() int {
	if s.Trials < 1 {
		return 1
	}
	return s.Trials
}

// withSeed returns a copy of the scale re-seeded for one trial.
func (s Scale) withSeed(seed int64) Scale {
	s.Seed = seed
	return s
}

// meanAccum accumulates per-key means (and spread) across trials.
type meanAccum[K comparable] struct {
	sum   map[K]float64
	sumSq map[K]float64
	count map[K]int
}

func newMeanAccum[K comparable]() *meanAccum[K] {
	return &meanAccum[K]{
		sum:   make(map[K]float64),
		sumSq: make(map[K]float64),
		count: make(map[K]int),
	}
}

func (m *meanAccum[K]) add(k K, v float64) {
	m.sum[k] += v
	m.sumSq[k] += float64(v * v)
	m.count[k]++
}

func (m *meanAccum[K]) means() map[K]float64 {
	out := make(map[K]float64, len(m.sum))
	for k, s := range m.sum {
		out[k] = s / float64(m.count[k])
	}
	return out
}

// stddev returns the per-key sample standard deviation (0 for < 2 samples).
func (m *meanAccum[K]) stddev(k K) float64 {
	n := float64(m.count[k])
	if n < 2 {
		return 0
	}
	mean := m.sum[k] / n
	variance := (m.sumSq[k] - float64(n*mean*mean)) / (n - 1)
	if variance < 0 {
		variance = 0 // float noise on identical samples
	}
	return math.Sqrt(variance)
}

// fmtCell renders a table cell: "mean" for single trials, "mean±sd" when
// averaged.
func fmtCell(mean, sd float64, trials int) string {
	if trials > 1 {
		return fmt.Sprintf("%.2f±%.2f", mean, sd)
	}
	return fmt.Sprintf("%.2f", mean)
}

// QuickScale is sized for CI and `go test -bench`: same fabrics and
// distributions, fewer jobs and coarser flow grids.
func QuickScale() Scale {
	return Scale{
		TraceCoflows:   100,
		FatTreeK:       8,
		BurstyJobs:     120,
		BurstyFatTreeK: 8,
		BurstSize:      20,
		Seed:           1,
		MaxSenders:     6,
		MaxReducers:    3,
		TraceTimeScale: 0.1,
		BurstyCategoryWeights: [NumCategories]float64{
			0.50, 0.25, 0.13, 0.05, 0.07, 0, 0,
		},
	}
}

// PaperScale matches the paper's configuration: the 150-rack-trace-sized
// workload on the 8-pod fabric and 10000 bursty jobs on the 48-pod fabric.
// Expect long runtimes.
func PaperScale() Scale {
	return Scale{
		TraceCoflows:   526, // one-hour FB trace replay length used by [4]
		FatTreeK:       8,
		BurstyJobs:     10000,
		BurstyFatTreeK: 48,
		BurstSize:      100,
		Seed:           1,
		MaxSenders:     16,
		MaxReducers:    8,
		TraceTimeScale: 0.1,
	}
}

// ScaleFromEnv returns PaperScale when GURITA_FULLSCALE=1, else QuickScale.
func ScaleFromEnv() Scale {
	//lint:ignore nondetsource documented opt-in toggle mirrored by figures -full; selects a preset, never perturbs a given spec's results
	if os.Getenv("GURITA_FULLSCALE") == "1" {
		return PaperScale()
	}
	return QuickScale()
}

// comparisonKinds is the paper's x-axis: Gurita's improvement over each.
var comparisonKinds = []SchedulerKind{KindBaraat, KindPFS, KindStream, KindAalo}

// TraceScenario builds the trace-driven scenario of Figures 5 and 6: a
// synthesized 150-rack Facebook-like trace grafted with the given DAG
// structure on the k-pod fabric.
func TraceScenario(structure Structure, scale Scale) (Scenario, error) {
	tp, err := FatTree(scale.FatTreeK, 0)
	if err != nil {
		return Scenario{}, err
	}
	jobs, err := traceJobs(structure, scale, tp.NumServers())
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{Topology: tp, Jobs: jobs}, nil
}

// traceJobs generates the trace-driven workload for a fabric of the given
// size (shared by TraceScenario and campaign trial specs).
func traceJobs(structure Structure, scale Scale, servers int) ([]*Job, error) {
	specs := SynthesizeTrace(scale.TraceCoflows, 150, scale.Seed)
	return GraftTrace(specs, 150, GraftConfig{
		Structure:   structure,
		Servers:     servers,
		Seed:        scale.Seed,
		MaxSenders:  scale.MaxSenders,
		MaxReducers: scale.MaxReducers,
		TimeScale:   scale.TraceTimeScale,
	})
}

// BurstyScenario builds the bursty large-scale scenario of Figure 7 (and
// the *-b columns of Figure 5): jobs arriving 2 µs apart in bursts on the
// large fabric.
func BurstyScenario(structure Structure, scale Scale) (Scenario, error) {
	tp, err := FatTree(scale.BurstyFatTreeK, 0)
	if err != nil {
		return Scenario{}, err
	}
	jobs, err := burstyJobs(structure, scale, tp.NumServers())
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{Topology: tp, Jobs: jobs}, nil
}

// burstyJobs generates the bursty workload for a fabric of the given size
// (shared by BurstyScenario and campaign trial specs).
func burstyJobs(structure Structure, scale Scale, servers int) ([]*Job, error) {
	return GenerateWorkload(WorkloadConfig{
		NumJobs:         scale.BurstyJobs,
		Seed:            scale.Seed,
		Servers:         servers,
		Structure:       structure,
		CategoryWeights: scale.BurstyCategoryWeights,
		Arrival: &BurstyArrivals{
			BurstSize: scale.BurstSize,
			IntraGap:  2e-6, // the paper's 2 µs inter-arrival bursts
			InterGap:  5,
		},
	})
}

// Table1 regenerates Table 1: the seven job-size categories.
func Table1() FigureTable {
	t := FigureTable{
		Title:  "Table 1: seven categories of multi-stage job size",
		Header: []string{"category", "range"},
	}
	human := func(b int64) string {
		switch {
		case b >= 1e12:
			return fmt.Sprintf("%gTB", float64(b)/1e12)
		case b >= 1e9:
			return fmt.Sprintf("%gGB", float64(b)/1e9)
		default:
			return fmt.Sprintf("%gMB", float64(b)/1e6)
		}
	}
	for c := CategoryI; c <= CategoryVII; c++ {
		lo, hi := c.Bounds()
		r := fmt.Sprintf("%s-%s", human(lo), human(hi))
		if c == CategoryVII {
			r = "> " + human(lo-1e6)
		}
		t.Rows = append(t.Rows, []string{c.String(), r})
	}
	return t
}

// Fig2Motivation regenerates the Figure 2 illustration: the same four jobs
// (A: stages of 10,1,1,1 units; B, C, D: 2 units each, arriving as the
// previous small job completes) scheduled by total bytes sent versus by
// per-stage bytes, at 1 unit/time. The schedules below replay the paper's
// narration; the harness recomputes the averages from the per-job JCTs.
// Scenario 1 (TBS): small jobs preempt A entirely → A drains last.
// Scenario 2 (per-stage): A's tiny later stages interleave, delaying each
// small job by one unit while cutting A's wait.
func Fig2Motivation() (ft FigureTable, tbsAvg, perStageAvg float64) {
	scenario1 := map[string]float64{"A": 19, "B": 2, "C": 2, "D": 2}
	scenario2 := map[string]float64{"A": 13, "B": 3, "C": 3, "D": 3}
	avg := func(m map[string]float64) float64 {
		// Sum in sorted-key order: float addition is not associative, so
		// summing in map order would let the last bits drift between runs.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := 0.0
		for _, k := range keys {
			s += m[k]
		}
		return s / float64(len(m))
	}
	tbsAvg, perStageAvg = avg(scenario1), avg(scenario2)
	ft = FigureTable{
		Title:  "Figure 2: stage-agnostic (TBS) vs per-stage scheduling",
		Header: []string{"job", "JCT under TBS", "JCT per-stage"},
	}
	for _, j := range []string{"A", "B", "C", "D"} {
		ft.Rows = append(ft.Rows, []string{j,
			fmt.Sprintf("%g", scenario1[j]), fmt.Sprintf("%g", scenario2[j])})
	}
	ft.Rows = append(ft.Rows, []string{"average",
		fmt.Sprintf("%.2f", tbsAvg), fmt.Sprintf("%.2f", perStageAvg)})
	return ft, tbsAvg, perStageAvg
}

// Fig4Blocking regenerates the Figure 4 illustration of Johnson's blocking
// rule: job A (three 2-unit coflows) versus jobs B, C, D (two 3-unit
// coflows each), all of equal total size. Prioritizing wide job A blocks
// the other three (scenario 1); prioritizing the narrow jobs lowers the
// average JCT (scenario 2).
func Fig4Blocking() (ft FigureTable, wideFirstAvg, narrowFirstAvg float64) {
	scenario1 := map[string]float64{"A": 2, "B": 5, "C": 5, "D": 5}
	scenario2 := map[string]float64{"A": 5, "B": 3, "C": 3, "D": 3}
	avg := func(m map[string]float64) float64 {
		// Sum in sorted-key order: float addition is not associative, so
		// summing in map order would let the last bits drift between runs.
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := 0.0
		for _, k := range keys {
			s += m[k]
		}
		return s / float64(len(m))
	}
	wideFirstAvg, narrowFirstAvg = avg(scenario1), avg(scenario2)
	ft = FigureTable{
		Title:  "Figure 4: impact of blocking (Johnson's third rule)",
		Header: []string{"job", "JCT wide-first", "JCT narrow-first"},
	}
	for _, j := range []string{"A", "B", "C", "D"} {
		ft.Rows = append(ft.Rows, []string{j,
			fmt.Sprintf("%g", scenario1[j]), fmt.Sprintf("%g", scenario2[j])})
	}
	ft.Rows = append(ft.Rows, []string{"average",
		fmt.Sprintf("%.2f", wideFirstAvg), fmt.Sprintf("%.2f", narrowFirstAvg)})
	return ft, wideFirstAvg, narrowFirstAvg
}

// figureKinds is every scheduler a comparison figure runs: the four
// baselines plus Gurita itself.
var figureKinds = []SchedulerKind{KindGurita, KindBaraat, KindPFS, KindStream, KindAalo}

// figureGrid expands a figure's scheduler set into one campaign TrialSpec
// per (trial seed, scheduler), in deterministic grid order: the trial-major,
// kind-minor layout figureResults indexes back into.
func figureGrid(scenario CampaignScenario, structure Structure, scale Scale, kinds []SchedulerKind) []TrialSpec {
	specs := make([]TrialSpec, 0, scale.trials()*len(kinds))
	for trial := 0; trial < scale.trials(); trial++ {
		for _, k := range kinds {
			specs = append(specs, TrialSpec{
				Scheduler: k,
				Scenario:  scenario,
				Structure: structure,
				Scale:     scale.withSeed(scale.Seed + int64(trial)),
			})
		}
	}
	return specs
}

// figureResults regroups a figureGrid campaign's flat result slice (starting
// at offset) back into per-trial result maps keyed by scheduler, mirroring
// what Scenario.RunAll used to return per trial.
func figureResults(results []*Result, offset int, trials int, kinds []SchedulerKind) []map[SchedulerKind]*Result {
	out := make([]map[SchedulerKind]*Result, trials)
	i := offset
	for trial := 0; trial < trials; trial++ {
		byKind := make(map[SchedulerKind]*Result, len(kinds))
		for _, k := range kinds {
			byKind[k] = results[i]
			i++
		}
		out[trial] = byKind
	}
	return out
}

// Fig5Improvements regenerates Figure 5: Gurita's average-JCT improvement
// over Baraat, PFS, Stream and Aalo in four scenarios — trace-driven and
// bursty, each under the FB-Tao ("FB") and TPC-DS ("CD", the Cloudera
// benchmark) structures. Returns the table and the raw factors keyed
// scenario → scheduler.
func Fig5Improvements(scale Scale) (FigureTable, map[string]map[SchedulerKind]float64, error) {
	return Fig5ImprovementsWith(context.Background(), scale, CampaignOptions{})
}

// Fig5ImprovementsWith is Fig5Improvements with campaign control: the whole
// scenario × scheduler × seed grid runs through RunCampaign, so it
// parallelizes across opts.Workers and resumes from opts.CacheDir.
func Fig5ImprovementsWith(ctx context.Context, scale Scale, opts CampaignOptions) (FigureTable, map[string]map[SchedulerKind]float64, error) {
	type sc struct {
		name      string
		scenario  CampaignScenario
		structure Structure
	}
	scenarios := []sc{
		{"FB-t", CampaignTrace, StructureFBTao},
		{"CD-t", CampaignTrace, StructureTPCDS},
		{"FB-b", CampaignBursty, StructureFBTao},
		{"CD-b", CampaignBursty, StructureTPCDS},
	}
	var specs []TrialSpec
	for _, s := range scenarios {
		specs = append(specs, figureGrid(s.scenario, s.structure, scale, figureKinds)...)
	}
	results, _, err := RunCampaign(ctx, specs, opts)
	if err != nil {
		return FigureTable{}, nil, fmt.Errorf("fig5 campaign: %w", err)
	}
	raw := make(map[string]map[SchedulerKind]float64, len(scenarios))
	ft := FigureTable{
		Title:  "Figure 5: Gurita's average improvement (baseline avg JCT / Gurita avg JCT)",
		Header: []string{"scenario", "vs baraat", "vs pfs", "vs stream", "vs aalo"},
	}
	perScenario := scale.trials() * len(figureKinds)
	for si, s := range scenarios {
		acc := newMeanAccum[SchedulerKind]()
		for _, byKind := range figureResults(results, si*perScenario, scale.trials(), figureKinds) {
			for _, k := range comparisonKinds {
				// The aggregate is the paired per-job mean ratio: every job
				// weighted equally, as in a small-job-dominated trace; a
				// ratio of mean JCTs would be swamped by the multi-TB tail.
				acc.add(k, PairedImprovement(byKind[k], byKind[KindGurita]))
			}
		}
		raw[s.name] = acc.means()
		row := []string{s.name}
		for _, k := range comparisonKinds {
			row = append(row, fmtCell(raw[s.name][k], acc.stddev(k), scale.trials()))
		}
		ft.Rows = append(ft.Rows, row)
	}
	return ft, raw, nil
}

// categoryRows renders per-category improvements into table rows.
func categoryRows(perSched map[SchedulerKind]map[Category]float64) [][]string {
	var rows [][]string
	for c := CategoryI; c <= CategoryVII; c++ {
		row := []string{c.String()}
		any := false
		for _, k := range comparisonKinds {
			if v, ok := perSched[k][c]; ok {
				row = append(row, fmt.Sprintf("%.2f", v))
				any = true
			} else {
				row = append(row, "-")
			}
		}
		if any {
			rows = append(rows, row)
		}
	}
	return rows
}

// figCategories runs the scenario under all comparison schedulers plus
// Gurita through one campaign, averaged across the scale's trials, and
// returns per-category improvements per scheduler.
func figCategories(ctx context.Context, scenario CampaignScenario, structure Structure, scale Scale, opts CampaignOptions) (map[SchedulerKind]map[Category]float64, error) {
	results, _, err := RunCampaign(ctx, figureGrid(scenario, structure, scale, figureKinds), opts)
	if err != nil {
		return nil, err
	}
	accs := make(map[SchedulerKind]*meanAccum[Category], len(comparisonKinds))
	for _, k := range comparisonKinds {
		accs[k] = newMeanAccum[Category]()
	}
	for _, byKind := range figureResults(results, 0, scale.trials(), figureKinds) {
		for _, k := range comparisonKinds {
			//lint:sorted per-category accumulation: each key is visited exactly once and lands in its own meanAccum bucket, so iteration order cannot reach the output
			for c, v := range ImprovementByCategory(byKind[k], byKind[KindGurita]) {
				accs[k].add(c, v)
			}
		}
	}
	out := make(map[SchedulerKind]map[Category]float64, len(comparisonKinds))
	for _, k := range comparisonKinds {
		out[k] = accs[k].means()
	}
	return out, nil
}

// Fig6TraceCategories regenerates Figure 6: per-category improvement in the
// trace-driven scenario, for the FB-Tao (6.a) and TPC-DS (6.b) structures.
func Fig6TraceCategories(structure Structure, scale Scale) (FigureTable, map[SchedulerKind]map[Category]float64, error) {
	return Fig6TraceCategoriesWith(context.Background(), structure, scale, CampaignOptions{})
}

// Fig6TraceCategoriesWith is Fig6TraceCategories with campaign control.
func Fig6TraceCategoriesWith(ctx context.Context, structure Structure, scale Scale, opts CampaignOptions) (FigureTable, map[SchedulerKind]map[Category]float64, error) {
	per, err := figCategories(ctx, CampaignTrace, structure, scale, opts)
	if err != nil {
		return FigureTable{}, nil, err
	}
	ft := FigureTable{
		Title:  fmt.Sprintf("Figure 6 (%v): per-category improvement, trace-driven", structure),
		Header: []string{"category", "vs baraat", "vs pfs", "vs stream", "vs aalo"},
		Rows:   categoryRows(per),
	}
	return ft, per, nil
}

// Fig7BurstyCategories regenerates Figure 7: per-category improvement in
// the bursty large-scale scenario.
func Fig7BurstyCategories(structure Structure, scale Scale) (FigureTable, map[SchedulerKind]map[Category]float64, error) {
	return Fig7BurstyCategoriesWith(context.Background(), structure, scale, CampaignOptions{})
}

// Fig7BurstyCategoriesWith is Fig7BurstyCategories with campaign control.
func Fig7BurstyCategoriesWith(ctx context.Context, structure Structure, scale Scale, opts CampaignOptions) (FigureTable, map[SchedulerKind]map[Category]float64, error) {
	per, err := figCategories(ctx, CampaignBursty, structure, scale, opts)
	if err != nil {
		return FigureTable{}, nil, err
	}
	ft := FigureTable{
		Title:  fmt.Sprintf("Figure 7 (%v): per-category improvement, bursty large-scale", structure),
		Header: []string{"category", "vs baraat", "vs pfs", "vs stream", "vs aalo"},
		Rows:   categoryRows(per),
	}
	return ft, per, nil
}

// failureSweepKinds is the robustness comparison set: the fair-sharing
// baseline, the centralized and clairvoyant references, and Gurita.
var failureSweepKinds = []SchedulerKind{KindPFS, KindAalo, KindVarys, KindGurita}

// DefaultFailureRates is the link-failure-rate x-axis (failures/second over
// the whole fabric) of the failure sweep.
var DefaultFailureRates = []float64{0, 0.5, 1, 2, 4}

// ExperimentFailureSweep measures scheduling robustness under fabric faults:
// average JCT as the link-failure rate rises, for PFS, Aalo, Varys and
// Gurita on the trace-driven FB-Tao scenario. Each trial injects a
// deterministic fault schedule (Poisson link failures, exponential repair
// with MTTR 1 s) seeded from the trial seed, with engine invariants checked
// at every fault instant. rates defaults to DefaultFailureRates.
func ExperimentFailureSweep(scale Scale, rates ...float64) (FigureTable, map[float64]map[SchedulerKind]float64, error) {
	return ExperimentFailureSweepWith(context.Background(), scale, CampaignOptions{}, rates...)
}

// ExperimentFailureSweepWith is ExperimentFailureSweep with campaign
// control: the rate × seed × scheduler grid runs through RunCampaign, so it
// parallelizes, caches, and — with opts.ContinueOnError — degrades
// gracefully, skipping failed trials in the aggregates.
func ExperimentFailureSweepWith(ctx context.Context, scale Scale, opts CampaignOptions, rates ...float64) (FigureTable, map[float64]map[SchedulerKind]float64, error) {
	if len(rates) == 0 {
		rates = DefaultFailureRates
	}
	var specs []TrialSpec
	for _, rate := range rates {
		for trial := 0; trial < scale.trials(); trial++ {
			for _, k := range failureSweepKinds {
				spec := TrialSpec{
					Scheduler:       k,
					Scenario:        CampaignTrace,
					Structure:       StructureFBTao,
					Scale:           scale.withSeed(scale.Seed + int64(trial)),
					CheckInvariants: true,
				}
				if rate > 0 {
					spec.Faults = &FaultProfile{
						Seed:         scale.Seed + int64(trial),
						Horizon:      60,
						MTTR:         1,
						LinkFailRate: rate,
					}
				}
				specs = append(specs, spec)
			}
		}
	}
	results, _, err := RunCampaign(ctx, specs, opts)
	if err != nil {
		return FigureTable{}, nil, fmt.Errorf("failure sweep campaign: %w", err)
	}
	ft := FigureTable{
		Title:  "Failure sweep: average JCT (s) vs link-failure rate (fabric failures/s, MTTR 1 s)",
		Header: []string{"rate"},
	}
	for _, k := range failureSweepKinds {
		ft.Header = append(ft.Header, string(k))
	}
	raw := make(map[float64]map[SchedulerKind]float64, len(rates))
	i := 0
	for _, rate := range rates {
		acc := newMeanAccum[SchedulerKind]()
		for trial := 0; trial < scale.trials(); trial++ {
			for _, k := range failureSweepKinds {
				if res := results[i]; res != nil { // nil = failed trial under ContinueOnError
					acc.add(k, res.AvgJCT())
				}
				i++
			}
		}
		raw[rate] = acc.means()
		row := []string{fmt.Sprintf("%g", rate)}
		for _, k := range failureSweepKinds {
			if n := acc.count[k]; n > 0 {
				row = append(row, fmtCell(raw[rate][k], acc.stddev(k), n))
			} else {
				row = append(row, "-")
			}
		}
		ft.Rows = append(ft.Rows, row)
	}
	return ft, raw, nil
}

// Fig8GuritaPlus regenerates Figure 8: how close practical Gurita gets to
// the GuritaPlus oracle, per category, trace-driven. Values are
// avgJCT(Gurita+)/avgJCT(Gurita) ≤ ~1; the paper reports Gurita within
// 0.15% of GuritaPlus at worst.
func Fig8GuritaPlus(structure Structure, scale Scale) (FigureTable, map[Category]float64, error) {
	return Fig8GuritaPlusWith(context.Background(), structure, scale, CampaignOptions{})
}

// Fig8GuritaPlusWith is Fig8GuritaPlus with campaign control.
func Fig8GuritaPlusWith(ctx context.Context, structure Structure, scale Scale, opts CampaignOptions) (FigureTable, map[Category]float64, error) {
	kinds := []SchedulerKind{KindGurita, KindGuritaPlus}
	results, _, err := RunCampaign(ctx, figureGrid(CampaignTrace, structure, scale, kinds), opts)
	if err != nil {
		return FigureTable{}, nil, err
	}
	acc := newMeanAccum[Category]()
	for _, byKind := range figureResults(results, 0, scale.trials(), kinds) {
		//lint:sorted per-category accumulation: each key is visited exactly once and lands in its own meanAccum bucket, so iteration order cannot reach the output
		for c, v := range ImprovementByCategory(byKind[KindGuritaPlus], byKind[KindGurita]) {
			acc.add(c, v)
		}
	}
	per := acc.means()
	ft := FigureTable{
		Title:  fmt.Sprintf("Figure 8 (%v): Gurita vs GuritaPlus (ratio ≈ 1 ⇒ matching the oracle)", structure),
		Header: []string{"category", "gurita+/gurita"},
	}
	var cats []Category
	for c := range per {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		ft.Rows = append(ft.Rows, []string{c.String(), fmt.Sprintf("%.3f", per[c])})
	}
	return ft, per, nil
}
