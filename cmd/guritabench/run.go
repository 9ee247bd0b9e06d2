package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one reported metric. exact marks counts that must repeat
// bit for bit across runs of one commit.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	exact  bool
}

// endToEnd are the metrics an untraced run reports (BENCHMARK.json's
// end_to_end list).
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
}

// setExtras are the end-to-end metrics the full set adds where they apply:
// throughput in each workload's own unit of work, and the failure share.
var setExtras = []metricDef{
	{Name: "events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower"},
}

// perLayer are the metrics a traced run reports (BENCHMARK.json's
// per_layer list). Metrics of a layer a workload never enters read 0.
var perLayer = []metricDef{
	{Name: "netmod.reallocs", Unit: "count", Better: "lower", exact: true},
	{Name: "netmod.tier_solves", Unit: "count", Better: "lower", exact: true},
	{Name: "netmod.waterfill_rounds", Unit: "count", Better: "lower", exact: true},
	{Name: "netmod.reallocs_per_event", Unit: "ratio", Better: "lower"},
	{Name: "netmod.rounds_per_realloc", Unit: "ratio", Better: "lower"},
	{Name: "netmod.reallocate.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.assign_queues.calls", Unit: "count", Better: "lower", exact: true},
	{Name: "sched.assign_queues.total_s", Unit: "s", Better: "lower"},
	{Name: "sched.assign_queues.share", Unit: "ratio", Better: "lower"},
	{Name: "sched.assign_queues.us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.assign_queues.us_p99", Unit: "us", Better: "lower"},
	{Name: "sched.assign_queues.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.dirty_flows", Unit: "count", Better: "lower", exact: true},
	{Name: "sim.events", Unit: "count", Better: "lower", exact: true},
	{Name: "eventq.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.advance.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.finish_flow.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.other.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "sim.new_s", Unit: "s", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runner.executed", Unit: "count", Better: "lower", exact: true},
	{Name: "runner.cache_hits", Unit: "count", Better: "higher", exact: true},
	{Name: "runner.execute.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runner.execute.ms_p90", Unit: "ms", Better: "lower"},
	{Name: "runner.execute.total_s", Unit: "s", Better: "lower"},
	{Name: "runner.overhead.us_per_trial", Unit: "us", Better: "lower"},
	{Name: "cachestore.get.calls", Unit: "count", Better: "lower", exact: true},
	{Name: "cachestore.get.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cachestore.get.us_p50", Unit: "us", Better: "lower"},
	{Name: "cachestore.get.us_p99", Unit: "us", Better: "lower"},
	{Name: "cachestore.put.us_p50", Unit: "us", Better: "lower"},
	{Name: "cachestore.put.us_p90", Unit: "us", Better: "lower"},
	{Name: "cachestore.claim.us_p50", Unit: "us", Better: "lower"},
	{Name: "cachestore.claim.us_p90", Unit: "us", Better: "lower"},
	{Name: "cachestore.release.us_p50", Unit: "us", Better: "lower"},
}

// goldens holds the committed result digests by workload and seed.
//
//go:embed goldens.json
var goldensJSON []byte

func golden(workload string, seed int64) string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		panic(fmt.Sprintf("embedded goldens.json: %v", err))
	}
	return g[workload][strconv.FormatInt(seed, 10)]
}

// runConfig is one run: a workload at a seed, measured for a time budget.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sizes    sizes
	workdir  string
	spans    string // traced runs write their spans here, when set
}

// report is everything one run measured. A full set reads it from each of
// its child runs.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Reps      int                `json:"reps"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"`
	Golden    string             `json:"golden"` // match, mismatch, or none
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Tails     map[string]tail    `json:"tails,omitempty"`
}

// tail is a traced latency distribution at the highest percentile its
// sample count supports.
type tail struct {
	N       int64   `json:"n"`
	P       float64 `json:"p"`
	Seconds float64 `json:"seconds"`
}

// run measures one workload. Reps repeat until the next would carry the
// measured time past cfg.seconds, so a budget of 0 measures one rep.
func run(cfg runConfig) (*report, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, traced: cfg.traced, sizes: cfg.sizes, workdir: cfg.workdir, layers: newLayerStats()}
	rep := &report{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, Golden: "none"}

	var (
		setups   []setupTimes
		reps     []repResult
		st       state
		measured float64
		profile  *os.File
	)
	defer func() {
		if st != nil {
			st.close()
		}
		if profile != nil {
			pprof.StopCPUProfile()
			profile.Close()
			os.Remove(profile.Name())
		}
	}()
	for {
		if st == nil || !w.reusable {
			if st != nil {
				st.close()
			}
			var t setupTimes
			var err error
			if st, t, err = w.setup(e); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setups = append(setups, t)
		}
		// The profile starts after the first set-up, so a cache fill's
		// simulations never count as the timed phase's.
		if cfg.traced && profile == nil {
			var err error
			if profile, err = os.CreateTemp(cfg.workdir, "cpu-*.pprof"); err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(profile); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		r := st.rep(e)
		reps = append(reps, r)
		measured += r.wall
		if r.err != nil || measured+r.wall > cfg.seconds {
			break
		}
	}
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return nil, err
		}
	}
	st.close()
	st = nil
	for len(setups) < w.setups {
		s, t, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		s.close()
		setups = append(setups, t)
		// Collect each discarded set-up, so their garbage does not set the
		// run's peak RSS.
		runtime.GC()
	}

	// Every rep of a run must reproduce the first rep's bytes, and the
	// benchmark's sizes at a seed with a committed golden must reproduce it.
	want := ""
	if cfg.sizes == fullSizes {
		want = golden(w.name, cfg.seed)
	}
	for i, r := range reps {
		rep.Attempted += r.attempted
		switch {
		case r.err != nil:
		case r.digest != reps[0].digest:
			r.err = fmt.Errorf("rep %d digest %.12s differs from rep 1's %.12s", i+1, r.digest, reps[0].digest)
			r.failed = r.attempted
		case want != "" && r.digest != want:
			r.err = fmt.Errorf("digest %.12s differs from the committed golden %.12s", r.digest, want)
			r.failed = r.attempted
		}
		rep.Failed += r.failed
		if r.err != nil {
			rep.Errors = append(rep.Errors, r.err.Error())
		}
	}
	switch {
	case want == "":
	case reps[0].digest == want:
		rep.Golden = "match"
	default:
		rep.Golden = "mismatch"
	}
	rep.Reps = len(reps)
	rep.Digest = reps[0].digest

	rep.EndToEnd = endToEndMetrics(w, setups, reps, rep)
	if cfg.traced {
		rows, err := pprofTop(profile.Name())
		if err != nil {
			return nil, err
		}
		rep.PerLayer, rep.Tails = perLayerMetrics(w, e.layers, cpuShares(rows), setups, reps)
		if cfg.spans != "" {
			if err := e.layers.writeSpans(cfg.spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return rep, nil
}

func endToEndMetrics(w workload, setups []setupTimes, reps []repResult, rep *report) map[string]float64 {
	var walls, cpus, evRates, trialRates, setupS []float64
	for _, r := range reps {
		walls = append(walls, r.wall)
		cpus = append(cpus, r.cpu)
		if r.wall > 0 {
			evRates = append(evRates, float64(r.events)/r.wall)
			trialRates = append(trialRates, float64(r.trials)/r.wall)
		}
	}
	for _, t := range setups {
		setupS = append(setupS, t.total.Seconds())
	}
	m := map[string]float64{
		"wall_s":     median(walls),
		"cpu_s":      median(cpus),
		"setup_s":    median(setupS),
		"max_rss_mb": maxRSSMB(),
		"fail_frac":  float64(rep.Failed) / float64(max(rep.Attempted, 1)),
	}
	if len(evRates) > 0 && reps[0].events > 0 {
		m["events_per_s"] = median(evRates)
	}
	if w.campaign && len(trialRates) > 0 {
		m["trials_per_s"] = median(trialRates)
	}
	return m
}

func perLayerMetrics(w workload, l *layerStats, shares map[string]float64, setups []setupTimes, reps []repResult) (map[string]float64, map[string]tail) {
	n := float64(len(reps))
	per := func(v int64) float64 { return float64(v) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var wall, trials, executed, hits, gcCPU, totalCPU float64
	var allocs, cycles, generate, simNew []float64
	for _, r := range reps {
		wall += r.wall / n
		trials += float64(r.trials) / n
		executed += float64(r.executed) / n
		hits += float64(r.hits) / n
		gcCPU += r.rt.gcCPU
		totalCPU += r.rt.totalCPU
		allocs = append(allocs, r.rt.allocBytes/(1<<20))
		cycles = append(cycles, r.rt.gcCycles)
	}
	for _, t := range setups {
		generate = append(generate, t.generate.Seconds())
		simNew = append(simNew, t.simNew.Seconds())
	}
	pool := 1.0
	if w.campaign {
		pool = workers
	}
	events := per(l.events)
	reallocs, rounds := per(l.reallocs), per(l.rounds)
	calls := per(l.calls)
	// One call in schedSample is timed; scale their total to every call.
	schedTotal := ratio(l.sched.sum.Seconds()*float64(l.calls), float64(l.sched.n)) / n

	m := map[string]float64{
		"netmod.reallocs":               reallocs,
		"netmod.tier_solves":            per(l.tierSolves),
		"netmod.waterfill_rounds":       rounds,
		"netmod.reallocs_per_event":     ratio(reallocs, events),
		"netmod.rounds_per_realloc":     ratio(rounds, reallocs),
		"netmod.reallocate.cpu_share":   shares["netmod.reallocate"],
		"sched.assign_queues.calls":     calls,
		"sched.assign_queues.total_s":   schedTotal,
		"sched.assign_queues.share":     ratio(schedTotal, wall*pool),
		"sched.assign_queues.us_p50":    l.sched.quantile(0.50) * 1e6,
		"sched.assign_queues.us_p99":    l.sched.quantile(0.99) * 1e6,
		"sched.assign_queues.cpu_share": shares["sched.assign_queues"],
		"sched.dirty_flows":             per(l.dirty),
		"sim.events":                    events,
		"eventq.cpu_share":              shares["eventq"],
		"sim.advance.cpu_share":         shares["sim.advance"],
		"sim.finish_flow.cpu_share":     shares["sim.finish_flow"],
		"sim.other.cpu_share":           shares["sim.other"],
		"workload.generate_s":           median(generate),
		"sim.new_s":                     median(simNew),
		"runtime.alloc_mb":              median(allocs),
		"runtime.gc_cycles":             median(cycles),
		"runtime.gc.cpu_share":          ratio(gcCPU, totalCPU),
		"runner.executed":               executed,
		"runner.cache_hits":             hits,
	}

	exec, _ := l.spanHist("execute")
	var store time.Duration
	for _, name := range []string{"get", "put", "claim", "release", "sweep"} {
		h, _ := l.spanHist(name)
		store += h.sum
	}
	m["runner.execute.ms_p50"] = exec.quantile(0.50) * 1e3
	m["runner.execute.ms_p90"] = exec.quantile(0.90) * 1e3
	m["runner.execute.total_s"] = exec.sum.Seconds() / n
	if w.campaign {
		idle := wall*pool - (exec.sum+store).Seconds()/n
		m["runner.overhead.us_per_trial"] = ratio(idle, trials) * 1e6
	} else {
		m["runner.overhead.us_per_trial"] = 0
	}

	get, getHits := l.spanHist("get")
	put, _ := l.spanHist("put")
	claim, _ := l.spanHist("claim")
	release, _ := l.spanHist("release")
	m["cachestore.get.calls"] = per(get.n)
	m["cachestore.get.hit_ratio"] = ratio(float64(getHits), float64(get.n))
	m["cachestore.get.us_p50"] = get.quantile(0.50) * 1e6
	m["cachestore.get.us_p99"] = get.quantile(0.99) * 1e6
	m["cachestore.put.us_p50"] = put.quantile(0.50) * 1e6
	m["cachestore.put.us_p90"] = put.quantile(0.90) * 1e6
	m["cachestore.claim.us_p50"] = claim.quantile(0.50) * 1e6
	m["cachestore.claim.us_p90"] = claim.quantile(0.90) * 1e6
	m["cachestore.release.us_p50"] = release.quantile(0.50) * 1e6

	tails := map[string]tail{}
	for name, h := range map[string]*durHist{
		"sched.assign_queues": &l.sched, "runner.execute": &exec, "cachestore.get": &get,
		"cachestore.put": &put, "cachestore.claim": &claim, "cachestore.release": &release,
	} {
		if p, ok := tailPercentile(h.n); ok {
			tails[name] = tail{N: h.n, P: p, Seconds: h.quantile(p / 100)}
		}
	}
	return m, tails
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set, in MB of 2^20 bytes
// (Linux reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// contractLine is the one-line result a run prints last: the metrics of its
// mode, by name, with units.
func contractLine(rep *report) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, src := endToEnd, rep.EndToEnd
	if rep.Traced {
		defs, src = perLayer, rep.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := src[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, metrics})
}

// defaultSpans is where a traced run keeps its spans when not told; each
// traced run of a workload replaces the previous one's.
func defaultSpans(workdir, workload string) string {
	return filepath.Join(workdir, workload+".spans.jsonl")
}

var errFailed = errors.New("the run had failed operations")
