// Package runner is the campaign engine: it executes a declarative grid of
// independent, deterministic trials on a worker pool and aggregates the
// results in grid order, regardless of completion order.
//
// The package is deliberately generic — it knows nothing about simulations.
// A campaign is a slice of specs (any JSON-marshalable value) plus an exec
// function; the facade (gurita.RunCampaign) supplies the glue that turns a
// spec into a simulator run. Because every trial is pure (output a function
// of spec alone), each one gets a content-addressed key — the SHA-256 of its
// canonical spec JSON plus a schema version — and finished results can be
// persisted in a cachestore.Store keyed by it. Re-running the same grid, after a crash,
// a Ctrl-C, or on a later day, skips every cache hit and recomputes only
// what is missing; Options.Force is the escape hatch.
//
// Serving extensions: long-running drivers (the guritad daemon) share one
// Store and one Flight across many concurrent campaigns, gate each
// execution through an admission hook (Options.Gate — the daemon's
// per-tenant fair queue), and stop gracefully through Options.Drain, which
// finishes in-flight trials, skips the rest, and returns ErrDrained with
// partial results; the cache keeps everything already computed, so a
// drained campaign resumes by resubmission.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"gurita/internal/cachestore"
)

// Key returns the content-addressed cache key of a spec; it is
// cachestore.Key, kept here for callers that address trials through the
// runner.
func Key(schema string, spec any) (string, error) { return cachestore.Key(schema, spec) }

// ErrDrained is the error Run returns after a soft stop through
// Options.Drain: no trial failed, but the grid was not finished — in-flight
// trials completed (and were cached), queued ones were skipped. The results
// slice holds every completed trial in place; Stats.Skipped counts the rest.
var ErrDrained = errors.New("runner: campaign drained")

// Gate admits one trial execution. A driver that multiplexes many campaigns
// over shared capacity (the daemon's per-tenant fair queue) installs one via
// Options.Gate; the runner calls it after the cache and single-flight layers
// miss — so cache hits and deduplicated duplicates never consume a slot —
// and runs the trial only once the gate returns. The returned release
// function is called exactly once, after the attempt ladder and cache
// write-back finish. A gate error fails the trial, except that gate errors
// raised by a drain (ErrDrained, or the gate context's cancellation) mark
// the trial skipped rather than failed.
//
// The context passed to the gate is cancelled on campaign cancellation and
// on drain — a trial still waiting for admission at drain time is exactly
// the kind of work a drain abandons.
type Gate func(ctx context.Context, index int, key string) (release func(), err error)

// Progress is a snapshot of a running campaign, delivered to
// Options.Progress after every finished trial.
type Progress struct {
	// Done trials out of Total (cache and dedup hits included).
	Done, Total int
	// CacheHits among the Done trials.
	CacheHits int
	// DedupHits among the Done trials: duplicates coalesced onto another
	// campaign's in-flight execution of the same key (Options.Flight).
	DedupHits int
	// Failures recorded so far (ContinueOnError manifests).
	Failures int
	// Retries is the number of extra attempts taken so far across all
	// trials, successful or not.
	Retries int
	// Elapsed wall-clock time since Run started.
	Elapsed time.Duration
	// ETA estimates the remaining wall-clock time from the average pace of
	// executed (non-cached) trials; 0 until the first trial executes.
	ETA time.Duration
}

// Stats summarizes a finished (or interrupted) campaign.
type Stats struct {
	// Total trials in the grid.
	Total int
	// Executed is how many trials actually ran to a result (cache misses).
	Executed int
	// CacheHits is how many trials were served from the cache.
	CacheHits int
	// DedupHits is how many trials were served by coalescing onto another
	// campaign's concurrent execution of the same key (Options.Flight), or —
	// in multi-process mode — by a peer worker process publishing the key
	// into the shared cache while this worker waited on its lease.
	DedupHits int
	// Retries is the number of extra attempts taken across all trials,
	// successful and failed.
	Retries int
	// Reclaims is how many stale peer leases this campaign took over in
	// multi-process mode (Options.StoreLeases): each one is a trial some worker
	// process started and died (or wedged) inside.
	Reclaims int
	// LeaseLost is how many of this campaign's own leases were taken over by
	// peers that presumed this process dead (e.g. after a long SIGSTOP). The
	// affected trials still completed here — duplicates publish identical
	// bytes — so this is a health signal, not a correctness problem.
	LeaseLost int
	// Skipped is how many trials were abandoned by a drain (Options.Drain):
	// neither executed, served, nor failed. Only non-zero when Run returns
	// ErrDrained.
	Skipped int
	// Failures is the failure manifest: trials that exhausted their attempts
	// without a result, in grid order. Only populated under
	// Options.ContinueOnError — without it the first failure aborts the
	// campaign and is returned as Run's error instead.
	Failures []TrialFailure
	// Elapsed is the campaign wall-clock time.
	Elapsed time.Duration
}

// Options tunes a campaign run.
type Options struct {
	// Workers is the worker-pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Store, when non-nil, persists finished trials through a
	// content-addressed backend (fsstore or httpstore); nil disables caching.
	Store cachestore.Store
	// StoreLeases, when non-nil and combined with Store, turns the campaign
	// multi-process: before executing a cache miss the worker claims the
	// trial's key, heartbeats while executing, waits out live peers (their
	// publish lands in the store and counts as a DedupHit), reclaims stale
	// leases from dead peers, and inherits poison markers as quarantined
	// failures. The backend decides what "multi-process" spans: fsstore
	// coordinates processes sharing a directory, httpstore coordinates
	// workers on different machines through one daemon. Ignored under Force
	// (a forced run re-executes unconditionally, so coordination would only
	// serialize it — drivers that want both should partition the grid
	// instead).
	StoreLeases cachestore.LeaseStore
	// Force ignores existing cache entries (results are still written back,
	// overwriting them).
	Force bool
	// Progress, when non-nil, is called after every finished trial. It may
	// be called concurrently from worker goroutines in submission order of
	// completion; implementations must be safe for serialized-by-mutex use
	// (the runner already serializes calls).
	Progress func(Progress)

	// TrialTimeout bounds each trial attempt's wall-clock time; 0 means no
	// bound. The deadline is delivered through the context handed to exec,
	// so exec must observe it (the gurita facade polls it via
	// sim.Config.Interrupt) for the bound to bite.
	TrialTimeout time.Duration
	// Retries is how many extra attempts a trial whose error the Transient
	// classifier accepts gets before it counts as failed. 0 disables
	// retrying.
	Retries int
	// RetryBackoff is the delay before the first retry, doubled per attempt
	// and capped at 5s. Defaults to 100ms when <= 0.
	RetryBackoff time.Duration
	// Transient classifies a trial error as retryable; nil selects
	// DefaultTransient (panics, timeouts, and cancellations are permanent).
	Transient func(error) bool
	// ContinueOnError degrades gracefully: a trial that exhausts its
	// attempts is recorded in Stats.Failures (zero value left in its results
	// slot) and the campaign keeps going, so one poisoned trial cannot sink
	// hours of healthy ones. Without it the first failure aborts the run.
	ContinueOnError bool

	// Flight, when non-nil and combined with a Store, coalesces concurrent
	// executions of identical keys across every campaign sharing the
	// instance: one execution runs, duplicates wait and count as DedupHits.
	// All sharers must use the same result type R and store schema.
	Flight *Flight
	// Gate, when non-nil, admits each execution (cache misses only) through
	// an external queue — see Gate. Nil runs every miss immediately.
	Gate Gate
	// Drain, when non-nil, soft-stops the campaign when it becomes
	// receivable (normally: closed): no new trials start, trials waiting at
	// the Gate are skipped, in-flight trials finish normally and are
	// persisted, and Run returns partial results with ErrDrained. This is
	// the checkpoint half of "finish or checkpoint": everything completed
	// is in the cache, so resubmitting the same grid resumes it.
	Drain <-chan struct{}
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// hitKind classifies how a trial's result was obtained.
type hitKind int

const (
	hitNone  hitKind = iota // executed
	hitCache                // served from the on-disk cache
	hitDedup                // coalesced onto a concurrent execution
)

// Run executes every spec through exec on a pool of Options.Workers
// goroutines and returns the results in spec order — position i of the
// output is always the result of specs[i], so aggregation downstream is
// deterministic no matter how execution interleaves.
//
// With a Store, each spec's key is looked up first; hits are decoded into R
// and skip exec, misses execute and are persisted as they finish (one file
// per trial, written atomically), so an interrupted campaign loses at most
// the trials in flight. R must round-trip through encoding/json for caching
// to be transparent.
//
// The first exec error, cache-write error, or context cancellation stops the
// pool: no new trials start, in-flight trials finish (exec is not
// preemptible), and the error is returned. Already-completed trials remain
// in the cache, which is what makes campaigns resumable. A drain
// (Options.Drain) stops the pool the gentle way instead; see ErrDrained.
func Run[S, R any](ctx context.Context, specs []S, exec func(ctx context.Context, spec S) (R, error), opts Options) ([]R, Stats, error) {
	//lint:ignore nondetsource wall-clock is the campaign runner's own elapsed/ETA reporting; trial results depend only on specs, never on these timestamps
	start := time.Now()
	stats := Stats{Total: len(specs)}
	results := make([]R, len(specs))
	if len(specs) == 0 {
		return results, stats, ctx.Err()
	}

	store, leases := opts.Store, opts.StoreLeases
	if store == nil {
		// Leases coordinate duplicate publishes; without a store there is
		// nothing to publish, so a lease layer alone is meaningless.
		leases = nil
	}

	// Key every spec up front: a spec that cannot be hashed is a programming
	// error better reported before any work starts. Spec hashes (schema-free)
	// are computed regardless of caching: the failure manifest records them
	// so a degraded campaign's failed trials stay identifiable across schema
	// bumps.
	keys := make([]string, len(specs))
	specHashes := make([]string, len(specs))
	schema := ""
	if store != nil {
		schema = store.Schema()
	}
	for i, s := range specs {
		h, err := cachestore.SpecHash(s)
		if err != nil {
			return nil, stats, err
		}
		specHashes[i] = h
		if store != nil {
			k, err := Key(schema, s)
			if err != nil {
				return nil, stats, err
			}
			keys[i] = k
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The gate context dies on cancellation like everything else, but also
	// on drain — with ErrDrained as the cause, so a gate that surfaces
	// context.Cause lets the worker tell "skipped by drain" from "failed".
	gateCtx := ctx
	drained := func() bool { return false }
	if opts.Drain != nil {
		var cancelGate context.CancelCauseFunc
		gateCtx, cancelGate = context.WithCancelCause(ctx)
		defer cancelGate(nil)
		runDone := make(chan struct{})
		defer close(runDone)
		go func() {
			select {
			case <-opts.Drain:
				cancelGate(ErrDrained)
			case <-runDone:
			case <-ctx.Done():
			}
		}()
		drain := opts.Drain
		drained = func() bool {
			select {
			case <-drain:
				return true
			default:
				return false
			}
		}
	}

	// Multi-process lease bookkeeping: the lease store may be shared across
	// concurrent campaigns in one process, so per-campaign reclaim/lost
	// counts are deltas over its lifetime counters.
	var leaseBase cachestore.LeaseStats
	if leases != nil {
		leaseBase = leases.LeaseStats()
	}

	var (
		mu       sync.Mutex // guards stats counters, firstErr, progress calls
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	progressLocked := func() {
		if opts.Progress == nil {
			return
		}
		done := stats.CacheHits + stats.DedupHits + stats.Executed + len(stats.Failures)
		//lint:ignore nondetsource wall-clock progress/ETA display only; not part of any trial result
		elapsed := time.Since(start)
		var eta time.Duration
		if stats.Executed > 0 {
			perTrial := elapsed / time.Duration(stats.Executed)
			remaining := len(specs) - done
			eta = perTrial * time.Duration(remaining) / time.Duration(opts.workers())
		}
		opts.Progress(Progress{
			Done:      done,
			Total:     len(specs),
			CacheHits: stats.CacheHits,
			DedupHits: stats.DedupHits,
			Failures:  len(stats.Failures),
			Retries:   stats.Retries,
			Elapsed:   elapsed,
			ETA:       eta,
		})
	}
	finish := func(hit hitKind, attempts int) {
		mu.Lock()
		switch hit {
		case hitCache:
			stats.CacheHits++
		case hitDedup:
			stats.DedupHits++
		default:
			stats.Executed++
		}
		if attempts > 1 {
			stats.Retries += attempts - 1
		}
		progressLocked()
		mu.Unlock()
	}
	recordFailure := func(f TrialFailure) {
		mu.Lock()
		stats.Failures = append(stats.Failures, f)
		if f.Attempts > 1 {
			stats.Retries += f.Attempts - 1
		}
		progressLocked()
		mu.Unlock()
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				if ctx.Err() != nil {
					return
				}
				res, hit, attempts, err := runOne(ctx, gateCtx, i, specs[i], keys[i], specHashes[i], exec, opts, store, leases)
				if err != nil {
					// A drain abandons trials still waiting for admission:
					// they are skipped, not failed — the resubmission will
					// pick them up from where the cache left off.
					if drained() && ctx.Err() == nil && isDrainAbort(err) {
						continue
					}
					// A trial failure degrades gracefully under
					// ContinueOnError; infrastructure failures (cache
					// writes) and campaign cancellation still abort.
					var infra *infraError
					if opts.ContinueOnError && !errors.As(err, &infra) && ctx.Err() == nil {
						recordFailure(failureFor(i, keys[i], schema, specHashes[i], attempts, err))
						continue
					}
					fail(err)
					return
				}
				results[i] = res
				finish(hit, attempts)
			}
		}()
	}
feed:
	for i := range specs {
		if opts.Drain == nil {
			select {
			case indices <- i:
			case <-ctx.Done():
				break feed
			}
			continue
		}
		select {
		case indices <- i:
		case <-ctx.Done():
			break feed
		case <-opts.Drain:
			break feed
		}
	}
	close(indices)
	wg.Wait()

	if leases != nil {
		now := leases.LeaseStats()
		stats.Reclaims = int(now.Reclaimed - leaseBase.Reclaimed)
		stats.LeaseLost = int(now.Lost - leaseBase.Lost)
		// Sweep stale leases over this grid's keys: leftovers of workers
		// that died after publishing but before releasing, and of our own
		// claims lost to takeover races. Live peers' fresh leases survive.
		if !opts.Force {
			leases.Sweep(ctx, keys)
		}
	}

	//lint:ignore nondetsource wall-clock campaign duration for the stats report; not part of any trial result
	stats.Elapsed = time.Since(start)
	// Workers append failures in completion order; the manifest reads in
	// grid order.
	sort.Slice(stats.Failures, func(i, j int) bool {
		return stats.Failures[i].Index < stats.Failures[j].Index
	})
	if firstErr != nil {
		return nil, stats, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if drained() {
		stats.Skipped = stats.Total - stats.CacheHits - stats.DedupHits - stats.Executed - len(stats.Failures)
		if stats.Skipped > 0 {
			return results, stats, ErrDrained
		}
	}
	return results, stats, nil
}

// isDrainAbort reports whether a trial error is the signature of a drain
// interrupting admission rather than a genuine failure: the gate context's
// drain cause, or a bare cancellation raised while the drain was in effect.
func isDrainAbort(err error) bool {
	return errors.Is(err, ErrDrained) || errors.Is(err, context.Canceled)
}

// runOne resolves a single trial: cache lookup, then single-flight
// coalescing (in-process), then lease coordination (cross-process), then
// gated execution (through the panic-recovering retry ladder) plus
// write-back on a miss.
func runOne[S, R any](ctx, gateCtx context.Context, index int, spec S, key, specHash string, exec func(context.Context, S) (R, error), opts Options, store cachestore.Store, leases cachestore.LeaseStore) (res R, hit hitKind, attempts int, err error) {
	if store != nil && !opts.Force {
		if raw, ok := store.Get(ctx, key); ok {
			if err := json.Unmarshal(raw, &res); err == nil {
				return res, hitCache, 0, nil
			}
			// An entry that passed the envelope check but does not decode
			// into R is treated like any other corrupt entry: a miss.
		}
	}
	executeDirect := func() (R, int, error) {
		var zero R
		if opts.Gate != nil {
			release, gerr := opts.Gate(gateCtx, index, key)
			if gerr != nil {
				return zero, 0, fmt.Errorf("runner: trial %s: admission: %w", shortKey(key), gerr)
			}
			defer release()
		}
		r, att, aerr := attemptTrial(ctx, spec, specHash, exec, opts)
		if aerr != nil {
			return zero, att, fmt.Errorf("runner: trial %s: %w", shortKey(key), aerr)
		}
		if store != nil {
			specJSON, merr := json.Marshal(spec)
			if merr != nil {
				return zero, att, &infraError{fmt.Errorf("runner: marshaling spec: %w", merr)}
			}
			resultJSON, merr := json.Marshal(r)
			if merr != nil {
				return zero, att, &infraError{fmt.Errorf("runner: marshaling result: %w", merr)}
			}
			if perr := store.Put(ctx, key, specJSON, resultJSON); perr != nil {
				return zero, att, &infraError{perr}
			}
		}
		return r, att, nil
	}

	// In multi-process mode the lease layer wraps direct execution: it sits
	// inside the flight (one lease negotiation per process per key) and
	// outside the gate (a trial waiting on a peer holds no admission slot).
	// peerServed distinguishes "the leader executed" from "the leader's wait
	// was answered by a peer's publish" for hit classification.
	peerServed := false
	execute := executeDirect
	if leases != nil && !opts.Force && key != "" {
		execute = func() (R, int, error) {
			r, att, served, lerr := runLeased[R](ctx, gateCtx, key, specHash, store, leases, opts, executeDirect)
			peerServed = served
			return r, att, lerr
		}
	}
	leaderHit := func() hitKind {
		if peerServed {
			return hitDedup
		}
		return hitNone
	}

	if opts.Flight == nil || key == "" {
		res, attempts, err = execute()
		return res, leaderHit(), attempts, err
	}

	for {
		val, att, shared, ferr := opts.Flight.do(gateCtx, key, func() (any, int, error) {
			r, a, e := execute()
			if e != nil {
				return nil, a, e
			}
			return r, a, nil
		})
		if !shared {
			if ferr != nil {
				var zero R
				return zero, hitNone, att, ferr
			}
			return val.(R), leaderHit(), att, nil
		}
		// A stalled leader (a dead process in a shared flight, or a wedged
		// trial) is presumed gone: re-check the cache it may have populated,
		// then execute independently — duplicates publish identical bytes.
		if errors.Is(ferr, ErrFlightStalled) {
			if store != nil && !opts.Force {
				if raw, ok := store.Get(ctx, key); ok {
					if err := json.Unmarshal(raw, &res); err == nil {
						return res, hitDedup, 0, nil
					}
				}
			}
			res, attempts, err = execute()
			return res, leaderHit(), attempts, err
		}
		// Shared outcome from another campaign's leader.
		if ferr == nil {
			if r, ok := val.(R); ok {
				return r, hitDedup, 0, nil
			}
			// Result type mismatch across sharers (a driver bug): fall back
			// to the cache, which the leader just populated.
			if store != nil {
				if raw, ok := store.Get(ctx, key); ok {
					if err := json.Unmarshal(raw, &res); err == nil {
						return res, hitDedup, 0, nil
					}
				}
			}
			var zero R
			return zero, hitNone, 0, fmt.Errorf("runner: trial %s: flight result type mismatch", shortKey(key))
		}
		// The leader failed. If its failure was its own campaign dying
		// (cancellation or drain) while ours is still alive, take over:
		// re-check the cache and start a fresh flight. Genuine trial errors
		// propagate — a deterministic trial fails the same way everywhere.
		if ctx.Err() == nil && gateCtx.Err() == nil &&
			(errors.Is(ferr, context.Canceled) || errors.Is(ferr, context.DeadlineExceeded) || errors.Is(ferr, ErrDrained)) {
			if store != nil && !opts.Force {
				if raw, ok := store.Get(ctx, key); ok {
					if err := json.Unmarshal(raw, &res); err == nil {
						return res, hitCache, 0, nil
					}
				}
			}
			continue
		}
		var zero R
		return zero, hitNone, att, ferr
	}
}

// shortKey abbreviates a cache key for error messages; a spec without a
// cache has no key.
func shortKey(key string) string {
	if key == "" {
		return "(uncached)"
	}
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
