package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gurita"
	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
	"gurita/internal/sim"
)

// This file measures the program's layers from outside: decorators around
// the public sim.Scheduler and cachestore interfaces, counters the program
// already reports (Result.Counters, runner.Stats), runtime/metrics deltas,
// and a CPU profile attributed by `go tool pprof -top`.

// schedSample is the share of AssignQueues calls timed: one in schedSample.
// Campaign trials make millions of calls of about 100 ns, where reading the
// clock around each would double their cost.
const schedSample = 16

// timedScheduler counts every AssignQueues call of the scheduler it embeds
// and times every schedSample-th. Embedding hides the optional
// DecisionScorer and ControlFaultObserver interfaces from the engine; both
// are unused with observability and fault injection off, which is why
// traced digests must equal untraced ones.
type timedScheduler struct {
	sim.Scheduler
	calls int64
	hist  durHist
	dirty int64
}

func (t *timedScheduler) AssignQueues(now float64, flows, added, dirty []*sim.FlowState) []*sim.FlowState {
	t.calls++
	timed := t.calls%schedSample == 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	out := t.Scheduler.AssignQueues(now, flows, added, dirty)
	if timed {
		t.hist.observe(time.Since(start))
	}
	t.dirty += int64(len(out))
	return out
}

// span is one timed call at a layer boundary. The trial being resolved
// caused it: spans of one trial share its key.
type span struct {
	Name    string `json:"name"`
	Key     string `json:"key,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	OK      bool   `json:"ok"`
	dur     time.Duration
}

// layerStats accumulates one run's per-layer measurements. Campaign
// workers update it concurrently.
type layerStats struct {
	mu     sync.Mutex
	epoch  time.Time
	calls  int64
	sched  durHist
	dirty  int64
	events int64
	// The allocator's work counters from Result.Counters.
	reallocs, tierSolves, rounds int64
	spans                        []span
}

func newLayerStats() *layerStats {
	return &layerStats{epoch: time.Now()}
}

// addTrial folds one executed simulation into the totals.
func (l *layerStats) addTrial(ts *timedScheduler, res *gurita.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts != nil {
		l.calls += ts.calls
		l.sched.merge(&ts.hist)
		l.dirty += ts.dirty
	}
	l.events += res.Events
	l.reallocs += res.Counters["netmod_reallocs"]
	l.tierSolves += res.Counters["netmod_tier_solves"]
	l.rounds += res.Counters["netmod_waterfill_rounds"]
}

func (l *layerStats) record(name, key string, start time.Time, ok bool) {
	d := time.Since(start)
	if len(key) > 16 {
		key = key[:16]
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Name: name, Key: key, OK: ok, dur: d,
		StartUS: start.Sub(l.epoch).Microseconds(), DurUS: d.Microseconds(),
	})
	l.mu.Unlock()
}

// spanHist gathers the durations of every span with the given name, and
// how many of them succeeded.
func (l *layerStats) spanHist(name string) (h durHist, ok int64) {
	for _, s := range l.spans {
		if s.Name == name {
			h.observe(s.dur)
			if s.OK {
				ok++
			}
		}
	}
	return h, ok
}

func (l *layerStats) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore records a span for every blocking call the runner makes into
// the filesystem store. Renew is left untimed: heartbeats run beside the
// trial, not on its path.
type timedStore struct {
	*fsstore.Store
	stats *layerStats
}

func (s *timedStore) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	start := time.Now()
	raw, ok := s.Store.Get(ctx, key)
	s.stats.record("get", key, start, ok)
	return raw, ok
}

func (s *timedStore) Put(ctx context.Context, key string, spec, result json.RawMessage) error {
	start := time.Now()
	err := s.Store.Put(ctx, key, spec, result)
	s.stats.record("put", key, start, err == nil)
	return err
}

func (s *timedStore) Claim(ctx context.Context, key string) (cachestore.Lease, error) {
	start := time.Now()
	l, err := s.Store.Claim(ctx, key)
	s.stats.record("claim", key, start, err == nil && l.State == cachestore.LeaseAcquired)
	return l, err
}

func (s *timedStore) Release(ctx context.Context, key string) {
	start := time.Now()
	s.Store.Release(ctx, key)
	s.stats.record("release", key, start, true)
}

func (s *timedStore) Sweep(ctx context.Context, keys []string) int {
	start := time.Now()
	n := s.Store.Sweep(ctx, keys)
	s.stats.record("sweep", "", start, true)
	return n
}

// runtimeSample reads the Go runtime's allocation, GC and CPU accounting.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// Function names the CPU profile is attributed by, as pprof prints them.
const (
	fnRun        = "gurita/internal/sim.(*Simulator).Run"
	fnReallocate = "gurita/internal/netmod.(*Allocator).Reallocate"
	fnAssign     = "main.(*timedScheduler).AssignQueues"
	fnAdvance    = "gurita/internal/sim.(*Simulator).advanceTo"
	fnFinish     = "gurita/internal/sim.(*Simulator).finishFlow"
	eventqPrefix = "gurita/internal/eventq."
)

// profileRow is one function's flat and cumulative CPU seconds.
type profileRow struct{ flat, cum float64 }

// pprofTop runs `go tool pprof -top -cum` on a CPU profile and parses it.
func pprofTop(profile string) (map[string]profileRow, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodefraction=0", "-nodecount=1000000", profile)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(strings.NewReader(string(out)))
}

// parseTop reads the table `pprof -top` prints: five value columns (flat,
// flat%, sum%, cum, cum%) then the function name.
func parseTop(r io.Reader) (map[string]profileRow, error) {
	rows := map[string]profileRow{}
	sc := bufio.NewScanner(r)
	table := false
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if !table {
			table = len(f) == 5 && f[0] == "flat" && f[3] == "cum"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		cum, err := parseDuration(f[3])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		rows[name] = profileRow{flat: flat, cum: cum}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !table {
		return nil, fmt.Errorf("pprof output has no flat/cum table")
	}
	return rows, nil
}

// parseDuration reads a pprof sample value such as 0, 10ms, 1.25s or
// 2.50mins, in seconds.
func parseDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// cpuShares attributes a profile to the simulator's layers as fractions of
// the samples under sim.(*Simulator).Run. A function missing from the
// profile reads as 0 and its time falls into sim.other.
func cpuShares(rows map[string]profileRow) map[string]float64 {
	run := rows[fnRun].cum
	out := map[string]float64{}
	if run <= 0 {
		for _, m := range []string{"netmod.reallocate", "sched.assign_queues", "eventq", "sim.advance", "sim.finish_flow", "sim.other"} {
			out[m] = 0
		}
		return out
	}
	var eventq float64
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, eventqPrefix) {
			eventq += rows[name].flat
		}
	}
	out["netmod.reallocate"] = rows[fnReallocate].cum / run
	out["sched.assign_queues"] = rows[fnAssign].cum / run
	out["eventq"] = eventq / run
	out["sim.advance"] = rows[fnAdvance].cum / run
	out["sim.finish_flow"] = rows[fnFinish].cum / run
	named := out["netmod.reallocate"] + out["sched.assign_queues"] + out["eventq"] + out["sim.advance"] + out["sim.finish_flow"]
	out["sim.other"] = max(0, 1-named)
	return out
}
