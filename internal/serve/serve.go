// Package serve is the guritad daemon library: a long-running HTTP/JSON
// service that accepts campaign submissions (grids of gurita.TrialSpec),
// executes them on the campaign engine, and streams per-campaign progress in
// the same wire schema the CLI introspector serves (runner.ProgressDoc).
//
// The server is multi-tenant by construction. Admission is bounded: a
// submission that would push the outstanding-trial count past the configured
// capacity is rejected with 429 and a Retry-After hint instead of queueing
// unboundedly. Queued trials from all campaigns are admitted to execution
// through one tenant-fair queue (internal/serve/fairq — the repo's own
// scheduling contract dogfooded onto the request path), so a tenant's share
// of the execution slots tracks its configured weight no matter how many
// trials it submits. All campaigns share one content-addressed result cache
// and one single-flight group (runner.Flight), which together form the
// cross-tenant dedup layer: identical trials execute at most once no matter
// how many tenants submit them, concurrently or not.
//
// Drain is graceful and resumable: Drain stops admissions (submissions get
// 503, health reports draining), closes the campaign drain channel so
// in-flight trials finish and are cached while queued trials are skipped,
// and Wait flushes every campaign's manifest before returning. A drained
// campaign's grid can be resubmitted verbatim; finished trials replay from
// the cache.
//
// Results are served exactly as cmd/guritasim writes them — the per-trial
// endpoint streams gurita.WriteResultJSON of the reconstructed result — so a
// fetched document is byte-identical to a serial CLI run of the same spec.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	gurita "gurita"
	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
	"gurita/internal/metrics"
	"gurita/internal/obs"
	"gurita/internal/runner"
	"gurita/internal/serve/cachehttp"
	"gurita/internal/serve/fairq"
	"gurita/internal/sim"
)

// Config parameterizes a Server. The zero value of every field is usable;
// only CacheDir is required (the shared cache is the dedup layer, so the
// daemon refuses to run without one).
type Config struct {
	// CacheDir is the shared content-addressed trial cache, required. All
	// campaigns read and write it; campaign manifests live under its
	// campaigns/ subdirectory.
	CacheDir string
	// Workers is each campaign's worker-pool size; <= 0 means
	// runtime.NumCPU(). Execution concurrency across campaigns is governed
	// by Slots, not Workers — a campaign's workers beyond its fair share
	// simply wait at the admission gate.
	Workers int
	// Slots is the global number of concurrently executing trials across
	// all tenants (the fair queue's grant slots); <= 0 means Workers.
	Slots int
	// Capacity bounds the outstanding (admitted but unfinished) trials
	// across all campaigns; a submission that would exceed it is rejected
	// with 429. <= 0 means 1024.
	Capacity int
	// Queues is the fair queue's priority-queue count (default 4).
	Queues int
	// Policy overrides the fair queue's scheduling policy (default: the
	// weighted-fair policy, fairq.NewWeightedFair).
	Policy sim.Scheduler
	// Tenants seeds tenant weights (relative shares). Unknown tenants are
	// admitted with weight 1; see fairq.Queue.SetTenant.
	Tenants map[string]float64
	// TrialTimeout bounds each trial's wall-clock execution (0 = unbounded).
	TrialTimeout time.Duration
	// Force re-executes trials even on cache hits (entries are rewritten).
	// It defeats the cross-campaign cache half of dedup — only single-flight
	// coalescing remains — so it is a debugging posture, not an operating one.
	Force bool
	// ObsTraceDir/ObsDumpDir plumb the shared observability surface through
	// to every campaign (see gurita.CampaignOptions).
	ObsTraceDir string
	ObsDumpDir  string
	// RetryAfter is the Retry-After hint attached to 429 responses, in
	// seconds; <= 0 means 5.
	RetryAfter int
	// Registry receives the server's operational counters; a fresh one is
	// created when nil. Counters here depend on request interleaving and are
	// observability-only — trial results never read them.
	Registry *obs.SyncRegistry
	// OnGrant, when non-nil, observes fair-queue grants (tenant ID, in
	// grant order). Test instrumentation; see fairq.Config.OnGrant.
	OnGrant func(tenant string)
	// MultiProcess, when non-nil, runs every campaign in crash-tolerant
	// multi-process mode: trials are claimed through lease files under
	// CacheDir, so external guritaworker processes pointed at the same cache
	// share the daemon's work and survive each other's crashes. The options'
	// Registry defaults to the server's own, so lease and reclaim counters
	// surface in /v1/stats. Incompatible with Force.
	MultiProcess *gurita.MultiProcessOptions
	// CacheLeaseTTL is the server-authoritative lease TTL for the /v1/cache/
	// API (remote httpstore workers); <= 0 means the cachehttp default (5s).
	CacheLeaseTTL time.Duration
	// CacheLeaseMaxAttempts bounds cross-worker claim attempts per trial on
	// the /v1/cache/ API before the trial is poisoned; 0 means the default (5).
	CacheLeaseMaxAttempts int
}

// Campaign states, in lifecycle order. A campaign is created running and
// ends in exactly one of the terminal states.
const (
	StateRunning = "running" // executing (or queued at the admission gate)
	StateDone    = "done"    // every trial produced a result
	StateDegrade = "degraded" // finished, but some trials failed (see failures)
	StateDrained = "drained" // soft-stopped by drain; resubmit to resume
	StateFailed  = "failed"  // aborted by an execution error
)

// Server is the daemon: create with New, mount Handler on an http.Server,
// and call Drain/Wait on shutdown. All methods are safe for concurrent use.
type Server struct {
	cfg    Config
	fair   *fairq.Queue
	flight *runner.Flight
	reg    *obs.SyncRegistry
	mux    *http.ServeMux

	// ctx is the hard-abort context for campaign execution: Abort cancels
	// it, preempting in-flight simulations. Drain does not touch it.
	ctx    context.Context
	cancel context.CancelFunc
	drain  chan struct{}

	mu          sync.Mutex
	draining    bool
	campaigns   map[string]*campaign
	order       []string // submission order, for stable listings
	outstanding int      // admitted-but-unfinished trials across campaigns
	nextID      int
	wg          sync.WaitGroup
}

// campaign is one submission's lifecycle record.
type campaign struct {
	id     string
	tenant string
	label  string
	specs  []gurita.TrialSpec

	mu       sync.Mutex
	state    string
	progress runner.ProgressDoc
	doneSeen int // trials settled against Server.outstanding so far
	results  []*gurita.Result
	failures []runner.TrialFailure
	err      error
	done     chan struct{}
}

// New builds a Server and its campaigns/ manifest directory. The returned
// server owns no listener; mount Handler wherever the caller listens.
func New(cfg Config) (*Server, error) {
	if cfg.CacheDir == "" {
		return nil, errors.New("serve: Config.CacheDir is required (the shared cache is the dedup layer)")
	}
	if cfg.MultiProcess != nil && cfg.Force {
		return nil, errors.New("serve: Config.Force re-executes unconditionally, which Config.MultiProcess leases exist to prevent")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.Slots <= 0 {
		cfg.Slots = cfg.Workers
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewSyncRegistry()
	}
	if err := os.MkdirAll(manifestDir(cfg.CacheDir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: manifest directory: %w", err)
	}
	s := &Server{
		cfg: cfg,
		fair: fairq.New(fairq.Config{
			Slots:    cfg.Slots,
			Capacity: cfg.Capacity,
			Queues:   cfg.Queues,
			Policy:   cfg.Policy,
			OnGrant:  cfg.OnGrant,
		}),
		flight:    &runner.Flight{},
		reg:       cfg.Registry,
		drain:     make(chan struct{}),
		campaigns: make(map[string]*campaign),
	}
	//lint:ignore ctxflow the server IS the process root; every campaign and request context derives from this one and Drain cancels it
	s.ctx, s.cancel = context.WithCancel(context.Background())
	// Registration order assigns the fair queue's coflow IDs, which break
	// exact-service ties — register sorted so a given tenant config always
	// produces the same grant order.
	ids := make([]string, 0, len(cfg.Tenants))
	for id := range cfg.Tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.fair.SetTenant(id, cfg.Tenants[id])
	}
	// The remote-cache API: any number of httpstore workers on other
	// machines share this daemon's cache dir over HTTP, with
	// server-authoritative leases. Mounted unconditionally — the daemon
	// always hosts a cache dir, and an unused endpoint costs nothing.
	cache, err := cachehttp.New(cachehttp.Config{
		Dir:         cfg.CacheDir,
		TTL:         cfg.CacheLeaseTTL,
		MaxAttempts: cfg.CacheLeaseMaxAttempts,
		Counters:    cfg.Registry,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: cache API: %w", err)
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("/v1/cache/", cache.Handler())
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/results/{index}", s.handleResult)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s, nil
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func manifestDir(cacheDir string) string { return filepath.Join(cacheDir, cachestore.CampaignSubdir) }

// Drain begins graceful shutdown: new submissions are refused with 503,
// health reports draining, queued trials are skipped, and in-flight trials
// finish and are cached. Idempotent. Call Wait afterwards to block until
// every campaign has settled and flushed its manifest.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.drain)
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Abort hard-cancels campaign execution: in-flight simulations are preempted
// at their next event. The escalation path behind a second SIGTERM.
func (s *Server) Abort() { s.cancel() }

// Wait blocks until every campaign has reached a terminal state and written
// its manifest, or ctx ends. Either way the fair queue is closed on return,
// so no Acquire can block forever afterwards.
func (s *Server) Wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	defer s.fair.Close()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain wait: %w", context.Cause(ctx))
	}
}

// SubmitRequest is the POST /v1/campaigns body: one tenant's grid of trials.
type SubmitRequest struct {
	// Tenant identifies the submitter for fair scheduling; required.
	Tenant string `json:"tenant"`
	// Label is an optional free-form tag echoed in status and manifests.
	Label string `json:"label,omitempty"`
	// Trials is the campaign grid, one spec per trial; required, non-empty.
	// Specs are normalized server-side, so any encoding of a trial dedups
	// against every other encoding of the same trial.
	Trials []gurita.TrialSpec `json:"trials"`
}

// SubmitResponse acknowledges an admitted campaign (202).
type SubmitResponse struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	Trials    int    `json:"trials"`
	StatusURL string `json:"status_url"`
}

// CampaignDoc is one campaign's status document.
type CampaignDoc struct {
	ID       string                `json:"id"`
	Tenant   string                `json:"tenant"`
	Label    string                `json:"label,omitempty"`
	State    string                `json:"state"`
	Trials   int                   `json:"trials"`
	Progress runner.ProgressDoc    `json:"progress"`
	Failures []runner.TrialFailure `json:"failures,omitempty"`
	Error    string                `json:"error,omitempty"`
}

// Manifest is the on-disk record flushed when a campaign reaches a terminal
// state (and at drain), written atomically under CacheDir/campaigns/<id>.json.
// Together with the trial cache it makes a drained campaign resumable: the
// recorded grid resubmitted verbatim replays finished trials from the cache
// and executes only what was skipped.
type Manifest struct {
	Schema   string                `json:"schema"`
	ID       string                `json:"id"`
	Tenant   string                `json:"tenant"`
	Label    string                `json:"label,omitempty"`
	State    string                `json:"state"`
	Trials   []gurita.TrialSpec    `json:"trials"`
	Progress runner.ProgressDoc    `json:"progress"`
	Failures []runner.TrialFailure `json:"failures,omitempty"`
	Error    string                `json:"error,omitempty"`
}

// errorDoc is the uniform error payload.
type errorDoc struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Best-effort: a response half-written to a dead client is the client's
	// problem, not the daemon's.
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit admits one campaign: validate, bound, register, run.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.http.submit", 1)
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&req); err != nil {
		s.reg.Add("serve.submit.rejected_malformed", 1)
		s.fail(w, http.StatusBadRequest, "decoding submission: %v", err)
		return
	}
	if req.Tenant == "" {
		s.reg.Add("serve.submit.rejected_malformed", 1)
		s.fail(w, http.StatusBadRequest, "submission needs a tenant")
		return
	}
	if len(req.Trials) == 0 {
		s.reg.Add("serve.submit.rejected_malformed", 1)
		s.fail(w, http.StatusBadRequest, "submission needs at least one trial")
		return
	}
	specs := make([]gurita.TrialSpec, len(req.Trials))
	for i, t := range req.Trials {
		if err := t.Validate(); err != nil {
			s.reg.Add("serve.submit.rejected_malformed", 1)
			s.fail(w, http.StatusBadRequest, "trials[%d]: %v", i, err)
			return
		}
		// Normalize at the boundary so duplicate detection and cache keys
		// agree with what the campaign will actually run.
		specs[i] = t.Normalized()
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Add("serve.submit.rejected_draining", 1)
		s.fail(w, http.StatusServiceUnavailable, "daemon is draining; resubmit elsewhere")
		return
	}
	if s.outstanding+len(specs) > s.cfg.Capacity {
		free := s.cfg.Capacity - s.outstanding
		s.mu.Unlock()
		s.reg.Add("serve.submit.rejected_full", 1)
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
		s.fail(w, http.StatusTooManyRequests,
			"admission queue full: %d trials outstanding, %d free, %d submitted; retry later",
			s.cfg.Capacity-free, free, len(specs))
		return
	}
	s.nextID++
	c := &campaign{
		id:     fmt.Sprintf("c%06d", s.nextID),
		tenant: req.Tenant,
		label:  req.Label,
		specs:  specs,
		state:  StateRunning,
		progress: runner.ProgressDoc{
			Total:   len(specs),
			Running: true,
		},
		done: make(chan struct{}),
	}
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.outstanding += len(specs)
	s.wg.Add(1)
	s.mu.Unlock()

	s.reg.Add("serve.campaigns.admitted", 1)
	s.reg.Add("serve.trials.admitted", int64(len(specs)))
	go s.run(c)

	s.writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:        c.id,
		Tenant:    c.tenant,
		Trials:    len(specs),
		StatusURL: "/v1/campaigns/" + c.id,
	})
}

// run executes one campaign to a terminal state and flushes its manifest.
func (s *Server) run(c *campaign) {
	defer s.wg.Done()
	// Multi-process mode rides the server's registry so lease and reclaim
	// counters surface in /v1/stats alongside the serve.* family.
	var mp *gurita.MultiProcessOptions
	if s.cfg.MultiProcess != nil {
		m := *s.cfg.MultiProcess
		if m.Registry == nil {
			m.Registry = s.reg
		}
		mp = &m
	}
	results, stats, err := gurita.RunCampaign(s.ctx, c.specs, gurita.CampaignOptions{
		Workers:  s.cfg.Workers,
		CacheDir: s.cfg.CacheDir,
		// Coflow rows ride through the cache so served documents carry
		// avg_cct exactly as the CLI writes it (byte-identity with
		// guritasim -json); the per-trial endpoint still omits the rows.
		IncludeCoflows: true,
		TrialTimeout:   s.cfg.TrialTimeout,
		Force:          s.cfg.Force,
		ObsTraceDir:    s.cfg.ObsTraceDir,
		ObsDumpDir:     s.cfg.ObsDumpDir,
		// One poisoned trial must not sink a tenant's whole grid, let alone
		// the daemon: failures degrade into the manifest.
		ContinueOnError: true,
		Flight:          s.flight,
		Gate: func(ctx context.Context, _ int, _ string) (func(), error) {
			return s.fair.Acquire(ctx, c.tenant)
		},
		Drain:        s.drain,
		MultiProcess: mp,
		Progress: func(p runner.Progress) {
			c.mu.Lock()
			c.progress = runner.NewProgressDoc(p, true)
			c.mu.Unlock()
			s.settle(c, p.Done)
		},
	})

	state := StateDone
	switch {
	case err != nil && errors.Is(err, gurita.ErrCampaignDrained):
		state = StateDrained
		s.reg.Add("serve.campaigns.drained", 1)
	case err != nil:
		state = StateFailed
		s.reg.Add("serve.campaigns.failed", 1)
	case len(stats.Failures) > 0:
		state = StateDegrade
		s.reg.Add("serve.campaigns.degraded", 1)
	default:
		s.reg.Add("serve.campaigns.done", 1)
	}
	s.reg.Add("serve.trials.executed", int64(stats.Executed))
	s.reg.Add("serve.trials.cache_hits", int64(stats.CacheHits))
	s.reg.Add("serve.trials.dedup_hits", int64(stats.DedupHits))
	s.reg.Add("serve.trials.skipped", int64(stats.Skipped))
	s.reg.Add("serve.trials.failed", int64(len(stats.Failures)))

	c.mu.Lock()
	c.state = state
	c.results = results
	c.failures = stats.Failures
	c.progress = runner.FinalProgressDoc(stats)
	if err != nil && state == StateFailed {
		c.err = err
	}
	c.mu.Unlock()
	// Settle whatever the progress callback never saw (skipped trials,
	// aborted remainders), so the admission budget is returned in full.
	s.settle(c, len(c.specs))

	if werr := s.flushManifest(c); werr != nil {
		// Manifest flush is part of the drain contract but must not mask
		// the campaign outcome; record and serve the campaign regardless.
		s.reg.Add("serve.manifest.errors", 1)
		fmt.Fprintf(os.Stderr, "serve: campaign %s manifest: %v\n", c.id, werr)
	}
	close(c.done)
}

// settle returns finished-trial budget to the admission bound, up to done
// trials total for this campaign. Monotonic and idempotent per count.
func (s *Server) settle(c *campaign, done int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.mu.Lock()
	delta := done - c.doneSeen
	if delta > 0 {
		c.doneSeen = done
	}
	c.mu.Unlock()
	if delta > 0 {
		s.outstanding -= delta
	}
}

// flushManifest writes the campaign's terminal record atomically and
// durably through the cache's own write protocol (fsstore.WriteFileAtomic),
// so a crash immediately after a drain cannot lose the manifest a resume
// would read.
func (s *Server) flushManifest(c *campaign) error {
	c.mu.Lock()
	m := Manifest{
		Schema:   metrics.CampaignSchema,
		ID:       c.id,
		Tenant:   c.tenant,
		Label:    c.label,
		State:    c.state,
		Trials:   c.specs,
		Progress: c.progress,
		Failures: c.failures,
	}
	if c.err != nil {
		m.Error = c.err.Error()
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return fsstore.WriteFileAtomic(filepath.Join(manifestDir(s.cfg.CacheDir), c.id+".json"), c.id+".tmp-", append(data, '\n'))
}

// doc renders the campaign's status document.
func (c *campaign) doc() CampaignDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := CampaignDoc{
		ID:       c.id,
		Tenant:   c.tenant,
		Label:    c.label,
		State:    c.state,
		Trials:   len(c.specs),
		Progress: c.progress,
		Failures: c.failures,
	}
	if c.err != nil {
		d.Error = c.err.Error()
	}
	return d
}

func (s *Server) lookup(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// handleList returns every campaign's status document in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.http.list", 1)
	s.mu.Lock()
	cs := make([]*campaign, len(s.order))
	for i, id := range s.order {
		cs[i] = s.campaigns[id]
	}
	s.mu.Unlock()
	docs := make([]CampaignDoc, len(cs))
	for i, c := range cs {
		docs[i] = c.doc()
	}
	s.writeJSON(w, http.StatusOK, struct {
		Campaigns []CampaignDoc `json:"campaigns"`
	}{docs})
}

// handleStatus returns one campaign's status document. With ?wait=1 it
// blocks until the campaign reaches a terminal state (bounded by the
// request's own context), so pollers can long-poll instead of spinning.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.http.status", 1)
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-c.done:
		case <-r.Context().Done():
		}
	}
	s.writeJSON(w, http.StatusOK, c.doc())
}

// handleResult streams one trial's result document, byte-identical to what
// cmd/guritasim -json writes for the same spec. 409 while the campaign is
// still running, 404 for a trial that never produced a result (failed or
// skipped — consult the campaign's failures).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.http.result", 1)
	c, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	idx, err := strconv.Atoi(r.PathValue("index"))
	if err != nil || idx < 0 || idx >= len(c.specs) {
		s.fail(w, http.StatusNotFound, "campaign %s has trials 0..%d", c.id, len(c.specs)-1)
		return
	}
	c.mu.Lock()
	state := c.state
	var res *gurita.Result
	if c.results != nil && idx < len(c.results) {
		res = c.results[idx]
	}
	c.mu.Unlock()
	if state == StateRunning {
		s.fail(w, http.StatusConflict, "campaign %s still running; poll /v1/campaigns/%s", c.id, c.id)
		return
	}
	if res == nil {
		s.fail(w, http.StatusNotFound, "trial %d of campaign %s has no result (state %s)", idx, c.id, state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The coflow rows that rode through the cache are omitted here, exactly
	// as the CLI omits them: same writer, same arguments, same bytes.
	if err := gurita.WriteResultJSON(w, res, false); err != nil {
		s.reg.Add("serve.result.write_errors", 1)
	}
}

// handleTenants returns the fair queue's accounting snapshot.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.http.tenants", 1)
	s.writeJSON(w, http.StatusOK, s.fair.Snapshot())
}

// StatsDoc is the /v1/stats payload: operational counters plus queue and
// campaign accounting.
type StatsDoc struct {
	Draining    bool             `json:"draining"`
	Outstanding int              `json:"outstanding_trials"`
	Capacity    int              `json:"capacity"`
	Campaigns   map[string]int   `json:"campaigns"`
	Queue       fairq.Stats      `json:"queue"`
	Counters    map[string]int64 `json:"counters"`
}

// handleStats returns the daemon's operational snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("serve.http.stats", 1)
	s.mu.Lock()
	doc := StatsDoc{
		Draining:    s.draining,
		Outstanding: s.outstanding,
		Capacity:    s.cfg.Capacity,
		Campaigns:   make(map[string]int),
	}
	cs := make([]*campaign, len(s.order))
	for i, id := range s.order {
		cs[i] = s.campaigns[id]
	}
	s.mu.Unlock()
	for _, c := range cs {
		c.mu.Lock()
		doc.Campaigns[c.state]++
		c.mu.Unlock()
	}
	doc.Queue = s.fair.Snapshot()
	doc.Counters = s.reg.Snapshot()
	s.writeJSON(w, http.StatusOK, doc)
}

// handleHealth is the load-balancer probe: 200 while serving, 503 once
// draining (so traffic shifts away while in-flight campaigns finish).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
