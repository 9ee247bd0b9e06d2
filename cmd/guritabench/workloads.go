package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"gurita"
	"gurita/internal/cachestore/fsstore"
	"gurita/internal/metrics"
	"gurita/internal/netmod"
	"gurita/internal/runner"
	"gurita/internal/sim"
)

// Every workload holds its job mix fixed and lets the seed change how that
// mix meets the fabric or the runner. Reseeding the heavy-tailed size
// distributions moves a bursty-k48 run between 2.2 s and 18.7 s, which would
// drown any regression a bound could catch; reseeding placement moves it by
// about 3%.
const (
	// mixSeed generates the synthesized trace and the bursty job mix.
	mixSeed = 1
	// queues is the paper's priority-queue count.
	queues = 4
	// workers is the campaign pool size: one per CPU of the 2-core sandbox
	// the bounds were measured on.
	workers = 2
	// owner names this process in lease files and manifest shards.
	owner = "guritabench"
)

// sizes scales the workloads; fullSizes is the benchmark, and tests run
// toy sizes through the same code.
type sizes struct {
	traceCoflows int // trace-k8: coflows of the synthesized trace
	burstyJobs   int // bursty-k48: jobs in the bursty mix
	burstyK      int // bursty-k48: FatTree pods
	gridSeeds    int // sweeps: trial seeds per (scheduler, structure)
	gridCoflows  int // sweeps: trace coflows per trial
	warmPasses   int // sweep-warm: campaign passes per rep
}

var fullSizes = sizes{traceCoflows: 526, burstyJobs: 60, burstyK: 48, gridSeeds: 32, gridCoflows: 10, warmPasses: 100}

// env is what a workload's set-up and reps share within one run.
type env struct {
	seed    int64
	traced  bool
	sizes   sizes
	workdir string
	layers  *layerStats
}

// setupTimes is one set-up's duration, with the parts spent generating
// inputs and constructing the simulator (zero for campaigns, which build
// simulators per trial).
type setupTimes struct{ total, generate, simNew time.Duration }

// repResult is one rep's timed phase and what it produced.
type repResult struct {
	phase
	events            int64 // simulated events executed
	trials            int   // trials resolved
	executed, hits    int   // runner: trials simulated, trials served from cache
	attempted, failed int
	digest            string
	err               error
}

// state is one set-up's inputs, ready for a rep.
type state interface {
	rep(e *env) repResult
	close()
}

// workload is one named benchmark input.
type workload struct {
	name string
	// campaign workloads run trials on a pool of workers.
	campaign bool
	// reusable: one set-up serves every rep of a run.
	reusable bool
	// setups is the least number of set-ups a run measures: many where a
	// set-up takes milliseconds and jitters, three where it fills a cache.
	setups int
	setup  func(e *env) (state, setupTimes, error)
}

var workloadOrder = []string{"trace-k8", "bursty-k48", "sweep-cold", "sweep-warm"}

var workloads = map[string]workload{
	"trace-k8":   {name: "trace-k8", setups: 21, setup: setupTrace},
	"bursty-k48": {name: "bursty-k48", setups: 21, setup: setupBursty},
	"sweep-cold": {name: "sweep-cold", campaign: true, setups: 21, setup: setupCold},
	"sweep-warm": {name: "sweep-warm", campaign: true, reusable: true, setups: 3, setup: setupWarm},
}

// phase accumulates the timed sections of a rep.
type phase struct {
	wall, cpu float64
	rt        runtimeSample
}

func (p *phase) time(f func() error) error {
	r0, c0, t0 := readRuntime(), cpuSeconds(), time.Now()
	err := f()
	p.wall += time.Since(t0).Seconds()
	p.cpu += cpuSeconds() - c0
	p.rt = p.rt.add(readRuntime().sub(r0))
	return err
}

func digestOf(docs ...*metrics.ResultDoc) (string, error) {
	h := sha256.New()
	for _, d := range docs {
		b, err := json.Marshal(d)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// --- single simulations -------------------------------------------------

// setupTrace builds trace-k8: the paper's 526-coflow trace length, grafted
// with FB-Tao DAGs onto the 8-pod fabric. The trace is fixed, as the paper
// replays one trace; the seed drives the graft's rack-to-server placement
// and front-loading.
func setupTrace(e *env) (state, setupTimes, error) {
	return setupSim(e, func() (*gurita.Topology, []*gurita.Job, error) {
		tp, err := gurita.FatTree(8, 0)
		if err != nil {
			return nil, nil, err
		}
		jobs, err := gurita.GraftTrace(gurita.SynthesizeTrace(e.sizes.traceCoflows, 150, mixSeed), 150, gurita.GraftConfig{
			Structure:   gurita.StructureFBTao,
			Servers:     tp.NumServers(),
			Seed:        e.seed,
			MaxSenders:  6,
			MaxReducers: 3,
			TimeScale:   0.1,
		})
		return tp, jobs, err
	})
}

// setupBursty builds bursty-k48: the Fig 7 fabric under bursts of 20 jobs
// 2 µs apart. The job mix is fixed; the seed places it, through a seeded
// permutation of the fabric's hosts.
func setupBursty(e *env) (state, setupTimes, error) {
	return setupSim(e, func() (*gurita.Topology, []*gurita.Job, error) {
		tp, err := gurita.FatTree(e.sizes.burstyK, 0)
		if err != nil {
			return nil, nil, err
		}
		jobs, err := gurita.GenerateWorkload(gurita.WorkloadConfig{
			NumJobs:   e.sizes.burstyJobs,
			Seed:      mixSeed,
			Servers:   tp.NumServers(),
			Structure: gurita.StructureFBTao,
			Arrival:   &gurita.BurstyArrivals{BurstSize: 20, IntraGap: 2e-6, InterGap: 5},
		})
		if err != nil {
			return nil, nil, err
		}
		perm := rand.New(rand.NewSource(e.seed)).Perm(tp.NumServers())
		for _, j := range jobs {
			for _, c := range j.Coflows {
				for _, f := range c.Flows {
					f.Src, f.Dst = gurita.ServerID(perm[f.Src]), gurita.ServerID(perm[f.Dst])
				}
			}
		}
		return tp, jobs, nil
	})
}

type simState struct {
	jobs []*gurita.Job
	sim  *sim.Simulator
	ts   *timedScheduler // nil when untraced
}

// setupSim generates a workload and builds its Gurita simulator the way
// gurita.Scenario.Run does (WRR data plane, default tick), timing the two
// steps apart.
func setupSim(e *env, generate func() (*gurita.Topology, []*gurita.Job, error)) (state, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	tp, jobs, err := generate()
	if err != nil {
		return nil, t, err
	}
	t1 := time.Now()
	inner, err := gurita.NewScheduler(gurita.KindGurita, queues)
	if err != nil {
		return nil, t, err
	}
	st := &simState{jobs: jobs}
	sched := inner
	if e.traced {
		st.ts = &timedScheduler{Scheduler: inner}
		sched = st.ts
	}
	st.sim, err = sim.New(sim.Config{Topology: tp, Queues: queues, Mode: netmod.ModeWRR}, sched, jobs)
	if err != nil {
		return nil, t, err
	}
	t.generate, t.simNew, t.total = t1.Sub(t0), time.Since(t1), time.Since(t0)
	return st, t, nil
}

func (st *simState) rep(e *env) repResult {
	r := repResult{trials: 1, attempted: 1}
	var res *gurita.Result
	r.err = r.time(func() (err error) {
		res, err = st.sim.Run()
		return err
	})
	if r.err == nil {
		r.err = checkSim(st.jobs, res)
	}
	if r.err == nil {
		doc := metrics.NewResultDoc(res, true)
		r.digest, r.err = digestOf(&doc)
	}
	if r.err != nil {
		r.failed = 1
		return r
	}
	r.events = res.Events
	e.layers.addTrial(st.ts, res)
	return r
}

func (st *simState) close() {}

// checkSim holds a finished run to properties any correct simulation has:
// every job finishes, every input byte is sent, and no job beats its
// largest flow at host line rate.
func checkSim(jobs []*gurita.Job, res *gurita.Result) error {
	if len(res.Jobs) != len(jobs) {
		return fmt.Errorf("%d of %d jobs finished", len(res.Jobs), len(jobs))
	}
	var bytes int64
	largest := make(map[gurita.JobID]int64, len(jobs))
	for _, j := range jobs {
		bytes += j.TotalBytes()
		for _, c := range j.Coflows {
			largest[j.ID] = max(largest[j.ID], c.LargestFlow())
		}
	}
	if res.TotalBytes != bytes {
		return fmt.Errorf("sent %d bytes of %d", res.TotalBytes, bytes)
	}
	for _, j := range res.Jobs {
		if bound := float64(largest[j.JobID]) / 1.25e9; j.JCT < bound*(1-1e-9) || j.Finished < j.Arrival {
			return fmt.Errorf("job %d: JCT %v below its line-rate bound %v", j.JobID, j.JCT, bound)
		}
	}
	return nil
}

// --- campaigns -------------------------------------------------------------

// gridSpecs is the Fig 5-shaped grid: every built-in scheduler on FB-Tao
// and TPC-DS trace trials, over fixed trial seeds. The seed shuffles the
// order the grid is submitted in, which decides which trials share the
// two workers and the order entries reach the cache.
func gridSpecs(e *env) []gurita.TrialSpec {
	scale := gurita.QuickScale()
	scale.TraceCoflows = e.sizes.gridCoflows
	var specs []gurita.TrialSpec
	for _, st := range []gurita.Structure{gurita.StructureFBTao, gurita.StructureTPCDS} {
		for s := 1; s <= e.sizes.gridSeeds; s++ {
			for _, k := range gurita.AllKinds() {
				scale.Seed = int64(s)
				specs = append(specs, gurita.TrialSpec{Scheduler: k, Structure: st, Scale: scale}.Normalized())
			}
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

type sweepState struct {
	dir   string
	specs []gurita.TrialSpec
	keys  map[gurita.TrialSpec]string
	store *fsstore.Store
	fill  string // sweep-warm: digest of the campaign that filled the cache
}

// setupCold builds the grid and opens an empty store for it.
func setupCold(e *env) (state, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	specs := gridSpecs(e)
	t.generate = time.Since(t0)
	st, err := openSweep(e.workdir, specs)
	if err != nil {
		return nil, t, err
	}
	t.total = time.Since(t0)
	return st, t, nil
}

// openSweep keys a grid and opens an empty store for it in a fresh
// directory under workdir.
func openSweep(workdir string, specs []gurita.TrialSpec) (*sweepState, error) {
	keys := make(map[gurita.TrialSpec]string, len(specs))
	for _, s := range specs {
		k, err := runner.Key(metrics.CampaignSchema, s)
		if err != nil {
			return nil, err
		}
		keys[s] = k
	}
	dir, err := os.MkdirTemp(workdir, "sweep-")
	if err != nil {
		return nil, err
	}
	store, err := fsstore.OpenStore(fsstore.Config{Dir: dir, Schema: metrics.CampaignSchema, Owner: owner})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &sweepState{dir: dir, specs: specs, keys: keys, store: store}, nil
}

// setupWarm is setupCold plus one untraced cold campaign to fill the cache.
func setupWarm(e *env) (state, setupTimes, error) {
	t0 := time.Now()
	s, t, err := setupCold(e)
	if err != nil {
		return nil, t, err
	}
	st := s.(*sweepState)
	fill := st.campaign(e, false, "")
	if fill.err == nil && fill.executed != len(st.specs) {
		fill.err = fmt.Errorf("fill executed %d of %d trials", fill.executed, len(st.specs))
	}
	if fill.err != nil {
		st.close()
		return nil, t, fmt.Errorf("filling the cache: %w", fill.err)
	}
	st.fill = fill.digest
	t.total = time.Since(t0)
	return st, t, nil
}

func (st *sweepState) close() { os.RemoveAll(st.dir) }

func (st *sweepState) rep(e *env) repResult {
	if st.fill == "" {
		r := st.campaign(e, e.traced, "")
		if r.err == nil && r.executed != len(st.specs) {
			r.err = fmt.Errorf("cold campaign executed %d of %d trials", r.executed, len(st.specs))
			r.failed = r.attempted
		}
		return r
	}
	var r repResult
	for i := 0; i < e.sizes.warmPasses && r.err == nil; i++ {
		p := st.campaign(e, e.traced, st.fill)
		if p.err == nil && p.hits != len(st.specs) {
			p.err = fmt.Errorf("warm pass served %d of %d trials from cache", p.hits, len(st.specs))
			p.failed = p.attempted
		}
		r.wall, r.cpu, r.rt = r.wall+p.wall, r.cpu+p.cpu, r.rt.add(p.rt)
		r.trials += p.trials
		r.executed += p.executed
		r.hits += p.hits
		r.attempted += p.attempted
		r.failed += p.failed
		r.digest, r.err = p.digest, p.err
	}
	return r
}

// campaign runs the grid once against the state's cache: untraced through
// gurita.RunCampaign, traced through runner.Run with the facade's trial
// body and a timed store. want, when set, is the digest every result set
// must reproduce.
func (st *sweepState) campaign(e *env, traced bool, want string) repResult {
	r := repResult{trials: len(st.specs), attempted: len(st.specs)}
	var results []*gurita.Result
	ctx := context.Background()
	if traced {
		ts := &timedStore{Store: st.store, stats: e.layers}
		exec := func(ctx context.Context, s gurita.TrialSpec) (*metrics.ResultDoc, error) {
			start := time.Now()
			doc, err := execTrial(ctx, s, e.layers)
			e.layers.record("execute", st.keys[s], start, err == nil)
			return doc, err
		}
		var (
			docs  []*metrics.ResultDoc
			stats runner.Stats
		)
		r.err = r.time(func() (err error) {
			docs, stats, err = runner.Run(ctx, st.specs, exec, runner.Options{Workers: workers, Store: ts, StoreLeases: ts})
			return err
		})
		// RunCampaign hands its callers Results rebuilt from the documents;
		// digest what they would see.
		for _, d := range docs {
			if d != nil {
				results = append(results, d.Result())
			}
		}
		r.executed, r.hits = stats.Executed, stats.CacheHits
	} else {
		var stats gurita.CampaignStats
		r.err = r.time(func() (err error) {
			results, stats, err = gurita.RunCampaign(ctx, st.specs, gurita.CampaignOptions{
				Workers:      workers,
				CacheDir:     st.dir,
				MultiProcess: &gurita.MultiProcessOptions{Owner: owner},
			})
			return err
		})
		r.executed, r.hits = stats.Executed, stats.CacheHits
	}
	if r.err != nil {
		r.failed = r.attempted
		return r
	}
	docs := make([]*metrics.ResultDoc, len(results))
	for i, res := range results {
		doc := metrics.NewResultDoc(res, false)
		docs[i] = &doc
	}
	for _, d := range docs {
		if err := d.Validate(); err != nil || len(d.Jobs) != e.sizes.gridCoflows {
			r.failed++
			r.err = fmt.Errorf("trial result: %d jobs, %v", len(d.Jobs), err)
		}
		if r.hits == 0 {
			r.events += d.Events
		}
	}
	var err error
	if r.digest, err = digestOf(docs...); err != nil {
		r.failed, r.err = r.attempted, err
	} else if want != "" && r.digest != want {
		r.failed, r.err = r.attempted, fmt.Errorf("digest %.12s differs from the filling campaign's %.12s", r.digest, want)
	}
	return r
}

// execTrial is gurita.RunCampaign's trial body (Build, Run, NewResultDoc)
// with the scheduler wrapped for timing.
func execTrial(ctx context.Context, s gurita.TrialSpec, layers *layerStats) (*metrics.ResultDoc, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc, err := s.Build()
	if err != nil {
		return nil, err
	}
	sc.Interrupt = ctx.Err
	inner, err := gurita.NewScheduler(s.Scheduler, s.Queues)
	if err != nil {
		return nil, err
	}
	ts := &timedScheduler{Scheduler: inner}
	res, err := sc.RunWith(ts, s.Scheduler == gurita.KindGurita || s.Scheduler == gurita.KindGuritaPlus)
	if err != nil {
		return nil, err
	}
	layers.addTrial(ts, res)
	doc := metrics.NewResultDoc(res, false)
	return &doc, nil
}
