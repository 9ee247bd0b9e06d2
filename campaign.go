package gurita

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
	"gurita/internal/cachestore/httpstore"
	"gurita/internal/metrics"
	"gurita/internal/obs"
	"gurita/internal/runner"
)

// This file is the campaign layer: declarative scheduler × workload ×
// topology × seed grids executed in parallel by internal/runner, with
// per-trial result caching and resume. The figure harness (experiments.go)
// and the CLIs run their grids through RunCampaign; each trial is an
// independent deterministic simulation, so campaigns parallelize
// embarrassingly and cache hits are exact.

// campaignSchema versions the cached trial layout; the constant itself lives
// with the wire format it versions (metrics.CampaignSchema) and is shared by
// every site that stamps it — the trial cache, failure manifests, and the
// daemon's persisted campaign state. Bump it there whenever TrialSpec
// semantics, the simulator's deterministic behavior, or the result document
// change in a way that invalidates old entries.
const campaignSchema = metrics.CampaignSchema

// ErrCampaignDrained reports that a campaign was soft-stopped by
// CampaignOptions.Drain before finishing its grid: completed trials are
// valid (and cached), the rest were skipped. See CampaignStats.Skipped.
var ErrCampaignDrained = runner.ErrDrained

// CampaignScenario selects how a trial's workload is generated.
type CampaignScenario string

const (
	// CampaignTrace is the trace-driven setup of Figures 5/6/8: a
	// synthesized 150-rack Facebook-like trace grafted with a DAG structure
	// on the Scale.FatTreeK-pod fabric.
	CampaignTrace CampaignScenario = "trace"
	// CampaignBursty is the bursty large-scale setup of Figures 5/7: jobs
	// arriving 2 µs apart in bursts on the Scale.BurstyFatTreeK-pod fabric.
	CampaignBursty CampaignScenario = "bursty"
)

// TrialSpec declares one campaign trial: everything needed to rebuild and
// run its simulation from scratch, and nothing else. Specs are canonically
// JSON-encoded and hashed into the trial's cache key, so two specs with
// equal fields always share a cache entry. Workload generation is
// deterministic in Scale.Seed; Scale.Trials is ignored (a spec is exactly
// one trial — grids expand multi-trial figures into one spec per seed).
type TrialSpec struct {
	// Scheduler runs the trial (paired with its data plane as in
	// Scenario.Run: WRR for Gurita, SPQ for the rest).
	Scheduler SchedulerKind `json:"scheduler"`
	// Scenario picks the workload family (default CampaignTrace).
	Scenario CampaignScenario `json:"scenario"`
	// Structure selects the DAG family grafted onto the workload.
	Structure Structure `json:"structure"`
	// Scale sizes the workload and fabric; see Scale.
	Scale Scale `json:"scale"`
	// Queues is the priority-queue count (default 4).
	Queues int `json:"queues"`
	// TaskLevelDependencies enables pipelined stage release.
	TaskLevelDependencies bool `json:"task_level_dependencies,omitempty"`
	// Topo selects the fabric: "fattree" (default), "leafspine" (k leaves,
	// k/2 spines, 16 hosts per leaf), or "bigswitch" (k³/4 servers), with k
	// the scenario's pod count from Scale.
	Topo string `json:"topo"`
	// Oversub > 1 tapers the FatTree's switch tiers by that ratio.
	Oversub float64 `json:"oversub"`
	// Tick is the scheduler update interval δ in seconds (default 10 ms).
	Tick float64 `json:"tick,omitempty"`
	// StageDelay is the optional computation delay between stages.
	StageDelay float64 `json:"stage_delay,omitempty"`
	// TCPSlowStart enables the fluid slow-start model.
	TCPSlowStart bool `json:"tcp_slow_start,omitempty"`
	// Faults, when non-nil and non-empty, injects a fault schedule generated
	// deterministically from this profile on the trial's fabric. The profile
	// is part of the cache key; fault-free specs keep their pre-fault keys
	// (the field is omitted from canonical JSON when nil).
	Faults *FaultProfile `json:"faults,omitempty"`
	// CheckInvariants asserts engine invariants after every fault instant.
	CheckInvariants bool `json:"check_invariants,omitempty"`
}

// Normalized maps distinct encodings of the same trial onto one canonical
// spec, so semantically equal trials share one cache key. RunCampaign
// normalizes implicitly; external submitters (the guritad daemon) normalize
// at the API boundary so duplicate detection and key computation agree with
// what the campaign will actually run.
func (t TrialSpec) Normalized() TrialSpec { return t.normalized() }

// Validate rejects specs RunCampaign could only fail on at execution time:
// unknown scheduler, scenario, or topology, and non-positive fabric size.
// It builds no workload, so it is cheap enough for an admission path.
func (t TrialSpec) Validate() error {
	n := t.normalized()
	known := false
	for _, k := range AllKinds() {
		if n.Scheduler == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("gurita: unknown scheduler %q", n.Scheduler)
	}
	switch n.Scenario {
	case CampaignTrace, CampaignBursty:
	default:
		return fmt.Errorf("gurita: unknown campaign scenario %q", n.Scenario)
	}
	switch n.Topo {
	case "fattree", "leafspine", "bigswitch":
	default:
		return fmt.Errorf("gurita: unknown campaign topology %q", n.Topo)
	}
	if k := n.podCount(); k <= 0 {
		return fmt.Errorf("gurita: campaign scenario %q needs a positive fabric size, got %d", n.Scenario, k)
	}
	if n.Queues < 1 {
		return fmt.Errorf("gurita: need at least one queue, got %d", n.Queues)
	}
	if n.Tick < 0 || n.StageDelay < 0 || n.Oversub < 0 {
		return fmt.Errorf("gurita: tick, stage delay, and oversubscription must be >= 0")
	}
	return nil
}

// normalized maps distinct encodings of the same trial onto one canonical
// spec, so semantically equal trials share one cache key.
func (t TrialSpec) normalized() TrialSpec {
	t.Scale.Trials = 0
	if t.Scenario == "" {
		t.Scenario = CampaignTrace
	}
	if t.Queues == 0 {
		t.Queues = 4
	}
	if t.Topo == "" {
		t.Topo = "fattree"
	}
	if t.Oversub == 0 {
		t.Oversub = 1
	}
	if t.Faults != nil {
		if t.Faults.Empty() {
			t.Faults = nil
		} else {
			p := t.Faults.Normalized()
			if p.Horizon == 0 {
				p.Horizon = 60
			}
			t.Faults = &p
		}
	}
	return t
}

// podCount returns the scenario-appropriate fabric size parameter.
func (t TrialSpec) podCount() int {
	if t.Scenario == CampaignBursty {
		return t.Scale.BurstyFatTreeK
	}
	return t.Scale.FatTreeK
}

// topology builds the trial's fabric.
func (t TrialSpec) topology() (*Topology, error) {
	k := t.podCount()
	switch t.Topo {
	case "", "fattree":
		if t.Oversub > 1 {
			return FatTreeOversub(k, 0, t.Oversub)
		}
		return FatTree(k, 0)
	case "leafspine":
		return LeafSpine(k, k/2, 16, 0, 0)
	case "bigswitch":
		return BigSwitch(k*k*k/4, 0)
	default:
		return nil, fmt.Errorf("gurita: unknown campaign topology %q", t.Topo)
	}
}

// Build materializes the trial's Scenario: fabric plus generated workload.
// The result is deterministic in the spec.
func (t TrialSpec) Build() (Scenario, error) {
	tp, err := t.topology()
	if err != nil {
		return Scenario{}, err
	}
	var jobs []*Job
	switch t.Scenario {
	case "", CampaignTrace:
		jobs, err = traceJobs(t.Structure, t.Scale, tp.NumServers())
	case CampaignBursty:
		jobs, err = burstyJobs(t.Structure, t.Scale, tp.NumServers())
	default:
		return Scenario{}, fmt.Errorf("gurita: unknown campaign scenario %q", t.Scenario)
	}
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Topology:              tp,
		Jobs:                  jobs,
		Queues:                t.Queues,
		Tick:                  t.Tick,
		StageDelay:            t.StageDelay,
		TaskLevelDependencies: t.TaskLevelDependencies,
		TCPSlowStart:          t.TCPSlowStart,
		CheckInvariants:       t.CheckInvariants,
	}
	if t.Faults != nil && !t.Faults.Empty() {
		schedule, err := t.Faults.Generate(tp)
		if err != nil {
			return Scenario{}, err
		}
		sc.Faults = schedule
	}
	return sc, nil
}

// CampaignProgress is a live campaign snapshot: trials done/total, cache
// hits among them, elapsed wall-clock and an ETA extrapolated from the pace
// of executed trials.
type CampaignProgress = runner.Progress

// CampaignStats summarizes a finished campaign: grid size, how many trials
// actually simulated, how many were served from the cache, and the failure
// manifest when the campaign degraded gracefully.
type CampaignStats = runner.Stats

// TrialFailure is one failure-manifest entry of a gracefully degraded
// campaign (see CampaignOptions.ContinueOnError).
type TrialFailure = runner.TrialFailure

// CampaignOptions tunes RunCampaign.
type CampaignOptions struct {
	// Workers is the worker-pool size; <= 0 means runtime.NumCPU(). Results
	// are aggregated in grid order, so the worker count never changes the
	// output — only the wall-clock time.
	Workers int
	// CacheDir, when non-empty, persists each finished trial as a
	// content-addressed JSON file under this directory and serves repeat
	// trials from it, which is what makes interrupted campaigns resumable.
	CacheDir string
	// CacheURL, when non-empty, uses a remote guritad cache server at this
	// base URL (e.g. "http://cachehost:7070") instead of a local CacheDir:
	// trials are fetched from and published to the daemon's /v1/cache/ API,
	// so workers on machines that share no filesystem split one campaign.
	// Mutually exclusive with CacheDir. With MultiProcess, trial leases move
	// to the daemon too (its clock is authoritative; the MultiProcessOptions
	// lease-tuning knobs are server-side settings and must be zero here).
	CacheURL string
	// Force re-executes trials even on cache hits (entries are rewritten).
	Force bool
	// IncludeCoflows carries per-coflow rows through results and the cache
	// (larger entries; needed only when coflow-level output is consumed).
	IncludeCoflows bool
	// Progress, when non-nil, receives a snapshot after every finished
	// trial (calls are serialized).
	Progress func(CampaignProgress)
	// TrialTimeout bounds each trial's wall-clock execution; the simulator
	// polls the deadline between events, so even a pathological trial stops
	// within milliseconds of it. 0 means unbounded.
	TrialTimeout time.Duration
	// Retries re-runs a trial that failed with a transient error (not a
	// panic, timeout, or cancellation) up to this many extra times with
	// exponential backoff.
	Retries int
	// ContinueOnError keeps the campaign going past failed trials: each one
	// is recorded in CampaignStats.Failures and its results slot is nil,
	// while every healthy trial still produces its result. Without it the
	// first failure aborts the whole campaign.
	ContinueOnError bool
	// ObsTraceDir, when non-empty, exports each executed trial as a Chrome
	// trace_event JSON file <keyprefix>.trace.json under this directory
	// (load them in Perfetto). Cache-served trials are not re-executed and
	// therefore produce no trace — use Force to trace a fully cached grid.
	// Recording is observation-only: results are byte-identical with it on.
	ObsTraceDir string
	// ObsDumpDir, when non-empty, runs each trial with a flight recorder
	// and dumps its trailing event window as <keyprefix>.dump.jsonl under
	// this directory when the trial fails — error, invariant violation, or
	// recovered panic. Healthy trials write nothing.
	ObsDumpDir string
	// Flight, when non-nil, coalesces concurrent executions of identical
	// trials across every campaign sharing the instance (the daemon's
	// cross-tenant dedup layer): per cache key, one campaign executes and the
	// rest wait for its result. Requires a shared CacheDir with matching
	// IncludeCoflows, so all sharers agree on keys and result shape.
	Flight *runner.Flight
	// Gate, when non-nil, is the admission hook called before each trial
	// executes (cache and dedup hits bypass it). The daemon points it at its
	// tenant-fair queue; the returned release frees the slot when the trial
	// finishes. See runner.Gate.
	Gate runner.Gate
	// Drain, when non-nil and closed, soft-stops the campaign: in-flight
	// trials finish (and are cached), unstarted trials are skipped, and
	// RunCampaign returns ErrCampaignDrained with partial results and
	// CampaignStats.Skipped set. A drained campaign resumes from its cache.
	Drain <-chan struct{}
	// MultiProcess, when non-nil, runs the campaign in crash-tolerant
	// multi-process mode: trials are claimed through lease files under
	// CacheDir (which becomes required), so any number of worker processes
	// pointed at the same cache and grid split the work between them,
	// reclaim trials from SIGKILLed peers, and each write a per-worker
	// manifest shard accounting for what they did. See MultiProcessOptions.
	MultiProcess *MultiProcessOptions
}

// MultiProcessOptions configures the crash-tolerant multi-process campaign
// mode. Workers coordinate exclusively through the shared cache directory —
// lease files for mutual exclusion, cache entries for result handoff — so
// there is no coordinator process to crash: any worker (or all of them) can
// be SIGKILLed and the survivors, or a later rerun, finish the grid with
// byte-identical results.
type MultiProcessOptions struct {
	// Owner identifies this worker process in lease files and its manifest
	// shard. It must be unique among concurrently live workers and contain
	// no path separators; empty means DefaultWorkerID().
	Owner string
	// LeaseTTL is how long an unrenewed lease stays valid before peers may
	// reclaim it (0 = 5s). It bounds how long a SIGKILLed worker's trials
	// stay stuck.
	LeaseTTL time.Duration
	// Heartbeat is the lease renewal interval (0 = LeaseTTL/3).
	Heartbeat time.Duration
	// MaxAttempts bounds the claim attempts per trial across all workers
	// before the trial is quarantined as poisoned (0 = 5).
	MaxAttempts int
	// Registry receives the worker's operational counters (lease.*,
	// runner.cache.*, runner.trials.*) and is snapshotted into the manifest
	// shard; a private one is created when nil.
	Registry *obs.SyncRegistry
}

// DefaultWorkerID derives a lease owner id from the host name and pid —
// unique among live workers on a shared filesystem, stable for the life of
// the process, and meaningful in a manifest written by a fleet.
func DefaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	// Path separators would break lease and manifest file names; a hostname
	// cannot legally contain them, but an operator-set one might.
	host = strings.ReplaceAll(host, "/", "-")
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// schema returns the cache schema for these options; coflow-bearing entries
// are segregated from jobs-only entries so the two never satisfy each
// other's lookups.
func (o CampaignOptions) schema() string {
	if o.IncludeCoflows {
		return campaignSchema + "+coflows"
	}
	return campaignSchema
}

// RunCampaign executes a grid of trials on a worker pool and returns their
// results in grid order — results[i] always belongs to specs[i], no matter
// how execution interleaves — plus campaign statistics. Every returned
// Result is reconstructed from the trial's result document, so serial,
// parallel, and cache-served campaigns yield byte-identical data.
//
// With CampaignOptions.CacheDir set, finished trials are persisted as they
// complete and an interrupted campaign (error, SIGINT via ctx) resumes on
// the next invocation by recomputing only the missing trials. Corrupted or
// schema-stale cache entries are recomputed and overwritten, never fatal.
// Cancellation (and CampaignOptions.TrialTimeout) preempts in-flight
// simulations too: the simulator polls the context between events.
func RunCampaign(ctx context.Context, specs []TrialSpec, opts CampaignOptions) ([]*Result, CampaignStats, error) {
	norm := make([]TrialSpec, len(specs))
	for i, s := range specs {
		norm[i] = s.normalized()
	}
	if opts.CacheDir != "" && opts.CacheURL != "" {
		return nil, CampaignStats{}, errors.New("gurita: CacheDir and CacheURL are mutually exclusive; pick a local directory or a remote cache server")
	}
	// Multi-process mode: the store's lease side plus the campaign's grid
	// hash (Stats.Grid, from the runner's keys), which names this worker's
	// manifest shard and lets shards from the same grid find each other. With
	// CacheDir the leases are files in the cache; with CacheURL they live in
	// the daemon's lease table.
	var (
		owner string
		reg   *obs.SyncRegistry
	)
	if mp := opts.MultiProcess; mp != nil {
		if opts.CacheDir == "" && opts.CacheURL == "" {
			return nil, CampaignStats{}, errors.New("gurita: multi-process campaigns need CacheDir or CacheURL (workers coordinate through the cache)")
		}
		if opts.Force {
			return nil, CampaignStats{}, errors.New("gurita: Force re-executes unconditionally, which multi-process leases exist to prevent; drop one of them")
		}
		if opts.CacheURL != "" && (mp.LeaseTTL != 0 || mp.Heartbeat != 0 || mp.MaxAttempts != 0) {
			// The daemon's clock is authoritative over remote leases; a
			// client-side TTL would be a lie the protocol cannot honor.
			return nil, CampaignStats{}, errors.New("gurita: remote-cache lease tuning is server-side; set -cache-lease-ttl/-cache-lease-max-attempts on guritad instead")
		}
		owner = mp.Owner
		if owner == "" {
			owner = DefaultWorkerID()
		}
		reg = mp.Registry
		if reg == nil {
			reg = obs.NewSyncRegistry()
		}
	}
	store, err := openCampaignStore(opts, owner, reg)
	if err != nil {
		return nil, CampaignStats{}, err
	}
	for _, dir := range []string{opts.ObsTraceDir, opts.ObsDumpDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, CampaignStats{}, fmt.Errorf("gurita: obs directory: %w", err)
			}
		}
	}
	exec := func(ctx context.Context, s TrialSpec) (*metrics.ResultDoc, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc, err := s.Build()
		if err != nil {
			return nil, err
		}
		// The simulator polls the interrupt hook between events, which is
		// what lets per-trial timeouts and campaign cancellation preempt an
		// in-flight simulation.
		sc.Interrupt = ctx.Err
		var (
			col  *obs.Collector
			ring *obs.Ring
			key  string
		)
		if opts.ObsTraceDir != "" || opts.ObsDumpDir != "" {
			// Obs files are named by the trial's content-addressed key, so a
			// trace or dump is matched to its cache entry (and its failure-
			// manifest row) by prefix.
			if key, err = runner.Key(opts.schema(), s); err != nil {
				return nil, err
			}
			var sinks []obs.Sink
			if opts.ObsTraceDir != "" {
				col = &obs.Collector{}
				sinks = append(sinks, col)
			}
			if opts.ObsDumpDir != "" {
				ring = obs.NewRing(0)
				sinks = append(sinks, ring)
				// A panicking trial unwinds through this frame before the
				// runner's recovery converts it into a manifest entry; dump
				// the flight recorder on the way past and re-panic.
				defer func() {
					if r := recover(); r != nil {
						dumpFlightRecorder(opts.ObsDumpDir, key, ring)
						panic(r)
					}
				}()
			}
			sc.Obs = obs.Tee(sinks...)
		}
		res, err := sc.Run(s.Scheduler)
		if err != nil {
			// Errors include invariant violations: the recorder's trailing
			// window is exactly the context that explains them.
			if ring != nil {
				dumpFlightRecorder(opts.ObsDumpDir, key, ring)
			}
			return nil, err
		}
		if col != nil {
			if err := writeTrialTrace(opts.ObsTraceDir, key, string(s.Scheduler), col); err != nil {
				return nil, err
			}
		}
		doc := metrics.NewResultDoc(res, opts.IncludeCoflows)
		return &doc, nil
	}
	ropts := runner.Options{
		Workers:         opts.Workers,
		Force:           opts.Force,
		Progress:        opts.Progress,
		TrialTimeout:    opts.TrialTimeout,
		Retries:         opts.Retries,
		ContinueOnError: opts.ContinueOnError,
		Flight:          opts.Flight,
		Gate:            opts.Gate,
		Drain:           opts.Drain,
		Store:           store,
	}
	if opts.MultiProcess != nil {
		ropts.StoreLeases = store
	}
	docs, stats, err := runner.Run(ctx, norm, exec, ropts)
	if opts.MultiProcess != nil {
		// Fold the runner's trial tallies into the registry so the manifest
		// shard's counters and its stats columns are cross-checkable (the
		// chaos harness asserts they agree after merging), then publish the
		// shard through the store — a filesystem store writes it under its
		// manifests/ subtree, the daemon under its own. Detached from ctx and
		// written even on drain or failure: a crashed-then-resumed fleet's
		// accounting must include the partial incarnations.
		reg.Add("runner.trials.executed", int64(stats.Executed))
		reg.Add("runner.trials.retried", int64(stats.Retries))
		reg.Add("runner.trials.cache_hits", int64(stats.CacheHits))
		reg.Add("runner.trials.dedup_hits", int64(stats.DedupHits))
		m := runner.NewWorkerManifest(metrics.WorkerManifestSchema, owner, stats.Grid, stats, reg.Snapshot())
		data, werr := runner.EncodeWorkerManifest(m)
		if werr == nil {
			werr = store.PutManifest(context.WithoutCancel(ctx), runner.ManifestName(owner, stats.Grid), data)
		}
		if werr != nil && err == nil {
			err = werr
		}
	}
	// A drain is a soft stop, not a failure: the completed prefix of the grid
	// is valid (and cached), so it is returned alongside ErrCampaignDrained.
	if err != nil && !errorsIsDrained(err) {
		return nil, stats, err
	}
	results := make([]*Result, len(docs))
	for i, d := range docs {
		if d != nil {
			results[i] = d.Result()
		}
	}
	return results, stats, err
}

// campaignStore is what both storage backends provide a campaign: results,
// leases and manifest shards.
type campaignStore interface {
	cachestore.Store
	cachestore.LeaseStore
	cachestore.ManifestStore
}

// openCampaignStore opens the one store a campaign talks to: an fsstore over
// CacheDir or an httpstore client for CacheURL, nil for an uncached run.
// Under MultiProcess (owner set) the store's lease side is live and its
// counters feed reg; a single-process fsstore opens no lease side at all.
func openCampaignStore(opts CampaignOptions, owner string, reg *obs.SyncRegistry) (campaignStore, error) {
	switch {
	case opts.CacheDir != "":
		cfg := fsstore.Config{Dir: opts.CacheDir, Schema: opts.schema()}
		if mp := opts.MultiProcess; mp != nil {
			cfg.Owner = owner
			cfg.TTL = mp.LeaseTTL
			cfg.Heartbeat = mp.Heartbeat
			cfg.MaxAttempts = mp.MaxAttempts
			cfg.Counters = reg
		}
		return fsstore.OpenStore(cfg)
	case opts.CacheURL != "":
		if owner == "" {
			owner = DefaultWorkerID()
		}
		cfg := httpstore.Config{BaseURL: opts.CacheURL, Schema: opts.schema(), Owner: owner}
		if reg != nil {
			cfg.Counters = reg
		}
		return httpstore.Open(cfg)
	}
	return nil, nil
}

// errorsIsDrained reports whether a campaign error is the drain soft-stop.
func errorsIsDrained(err error) bool { return errors.Is(err, runner.ErrDrained) }

// obsFileName names a trial's obs artifact by the first 16 hex characters of
// its content-addressed key — long enough to be collision-free in practice,
// short enough to read — plus an extension.
func obsFileName(key, ext string) string {
	if len(key) > 16 {
		key = key[:16]
	}
	return key + ext
}

// writeTrialTrace exports one executed trial's recording as a Chrome
// trace_event JSON file under dir.
func writeTrialTrace(dir, key, name string, col *obs.Collector) error {
	path := filepath.Join(dir, obsFileName(key, ".trace.json"))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gurita: obs trace: %w", err)
	}
	if err := obs.WriteChromeTrace(f, obs.TraceProcess{Name: name, PID: 1, Events: col.Events()}); err != nil {
		f.Close()
		return fmt.Errorf("gurita: obs trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("gurita: obs trace: %w", err)
	}
	return nil
}

// dumpFlightRecorder writes the recorder's trailing window as JSONL under
// dir. Best-effort by design: it runs on the failure path, and a dump that
// cannot be written must not mask the trial error it documents.
func dumpFlightRecorder(dir, key string, ring *obs.Ring) {
	f, err := os.Create(filepath.Join(dir, obsFileName(key, ".dump.jsonl")))
	if err != nil {
		return
	}
	_ = ring.WriteJSONL(f)
	_ = f.Close()
}
