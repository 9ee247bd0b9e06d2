package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
)

// leaseStore opens one worker's handle on the shared cache dir under schema
// "v1", with leases owned by owner — the way the facade wires it in
// production.
func leaseStore(t testing.TB, dir, owner string, mut ...func(*fsstore.Config)) *fsstore.Store {
	t.Helper()
	cfg := fsstore.Config{Dir: dir, Schema: "v1", Owner: owner, TTL: 300 * time.Millisecond}
	for _, f := range mut {
		f(&cfg)
	}
	st, err := fsstore.OpenStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func leaseFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	entries, err := os.ReadDir(filepath.Join(dir, cachestore.LeaseSubdir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".lease") {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestLeasedRunExactlyOnce races two in-process "worker processes" (separate
// store handles, shared cache dir) over one grid and asserts every trial
// executed exactly once across both, with identical results, and no lease
// files left behind.
func TestLeasedRunExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	specs := grid(24)
	var executions atomic.Int64
	exec := func(_ context.Context, s trial) (outcome, error) {
		executions.Add(1)
		time.Sleep(time.Millisecond)
		return run(s), nil
	}

	type runOut struct {
		res   []outcome
		stats Stats
		err   error
	}
	outs := make([]runOut, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		st := leaseStore(t, dir, fmt.Sprintf("w%d", w))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, stats, err := Run(context.Background(), specs, exec, Options{
				Workers: 4, Store: st, StoreLeases: st,
			})
			outs[w] = runOut{res, stats, err}
		}(w)
	}
	wg.Wait()

	for w, o := range outs {
		if o.err != nil {
			t.Fatalf("worker %d: %v", w, o.err)
		}
		for i, s := range specs {
			if o.res[i] != run(s) {
				t.Fatalf("worker %d trial %d = %+v, want %+v", w, i, o.res[i], run(s))
			}
		}
	}
	if got := executions.Load(); got != int64(len(specs)) {
		t.Errorf("total executions = %d, want exactly %d", got, len(specs))
	}
	if sum := outs[0].stats.Executed + outs[1].stats.Executed; sum != len(specs) {
		t.Errorf("Executed sum = %d, want %d", sum, len(specs))
	}
	served := 0
	for _, o := range outs {
		served += o.stats.Executed + o.stats.CacheHits + o.stats.DedupHits
	}
	if served != 2*len(specs) {
		t.Errorf("served sum = %d, want %d", served, 2*len(specs))
	}
	if files := leaseFiles(t, dir); len(files) != 0 {
		t.Errorf("lease files left behind: %v", files)
	}
}

// TestLeasedReclaimFromDeadOwner plants a stale lease (a worker that died
// mid-trial without releasing) and asserts a fresh campaign reclaims it,
// executes the trial, and reports the reclaim.
func TestLeasedReclaimFromDeadOwner(t *testing.T) {
	dir := t.TempDir()
	specs := grid(3)
	key := mustKey(t, "v1", specs[1])

	dead := leaseStore(t, dir, "dead-worker")
	c, err := dead.Claim(context.Background(), key)
	if err != nil || c.State != cachestore.LeaseAcquired {
		t.Fatalf("setup claim: %+v, %v", c, err)
	}
	// The owner "dies": no release, no heartbeat; age the lease stale.
	past := time.Now().Add(-time.Minute)
	leasePath := filepath.Join(dir, cachestore.LeaseSubdir, key+".lease")
	if err := os.Chtimes(leasePath, past, past); err != nil {
		t.Fatal(err)
	}

	st := leaseStore(t, dir, "w1")
	res, stats, err := Run(context.Background(), specs, func(_ context.Context, s trial) (outcome, error) {
		return run(s), nil
	}, Options{Workers: 2, Store: st, StoreLeases: st})
	if err != nil {
		t.Fatal(err)
	}
	if res[1] != run(specs[1]) {
		t.Fatalf("reclaimed trial result = %+v", res[1])
	}
	if stats.Reclaims != 1 {
		t.Errorf("Reclaims = %d, want 1", stats.Reclaims)
	}
	if stats.Executed != len(specs) {
		t.Errorf("Executed = %d, want %d", stats.Executed, len(specs))
	}
	if files := leaseFiles(t, dir); len(files) != 0 {
		t.Errorf("lease files left behind: %v", files)
	}
}

// TestLeasedWaitsForLivePeer holds a lease from a simulated live peer while
// a campaign runs; the peer then publishes the result and releases. The
// campaign must serve the trial from the peer's publish (a dedup hit), not
// execute it.
func TestLeasedWaitsForLivePeer(t *testing.T) {
	dir := t.TempDir()
	specs := []trial{{Name: "shared", Seed: 9}}
	key := mustKey(t, "v1", specs[0])

	longTTL := func(c *fsstore.Config) { c.TTL = 5 * time.Second }
	peer := leaseStore(t, dir, "peer", longTTL)
	pc, err := peer.Claim(context.Background(), key)
	if err != nil || pc.State != cachestore.LeaseAcquired {
		t.Fatalf("peer claim: %+v, %v", pc, err)
	}

	var executed atomic.Int64
	done := make(chan struct{})
	var res []outcome
	var stats Stats
	var runErr error
	go func() {
		defer close(done)
		st := leaseStore(t, dir, "w1", longTTL)
		res, stats, runErr = Run(context.Background(), specs, func(_ context.Context, s trial) (outcome, error) {
			executed.Add(1)
			return run(s), nil
		}, Options{Workers: 1, Store: st, StoreLeases: st})
	}()

	// Let the campaign hit the busy lease, then publish as the peer would.
	time.Sleep(150 * time.Millisecond)
	specJSON, _ := json.Marshal(specs[0])
	resultJSON, _ := json.Marshal(run(specs[0]))
	if err := peer.Put(context.Background(), key, specJSON, resultJSON); err != nil {
		t.Fatal(err)
	}
	peer.Release(context.Background(), key)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign never finished waiting on live peer")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if executed.Load() != 0 {
		t.Errorf("trial executed %d times despite peer publish", executed.Load())
	}
	if res[0] != run(specs[0]) {
		t.Fatalf("result = %+v", res[0])
	}
	if stats.DedupHits != 1 || stats.Executed != 0 {
		t.Errorf("stats = %+v, want 1 dedup hit, 0 executed", stats)
	}
}

// TestLeasedPoisonInheritance: worker 1 fails a trial permanently under
// ContinueOnError, which poisons it; worker 2 must inherit the quarantine
// without executing, as a manifest entry marked Quarantined.
func TestLeasedPoisonInheritance(t *testing.T) {
	dir := t.TempDir()
	specs := grid(4)
	badIdx := 2
	trialErr := errors.New("deterministic trial failure")

	w1 := leaseStore(t, dir, "w1")
	_, stats1, err := Run(context.Background(), specs, func(_ context.Context, s trial) (outcome, error) {
		if s == specs[badIdx] {
			return outcome{}, trialErr
		}
		return run(s), nil
	}, Options{Workers: 2, Store: w1, StoreLeases: w1, ContinueOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats1.Failures) != 1 || stats1.Failures[0].Index != badIdx {
		t.Fatalf("worker 1 failures = %+v", stats1.Failures)
	}
	if stats1.Failures[0].Quarantined {
		t.Error("worker 1's own failure must not be marked quarantined (it executed the trial)")
	}

	var executed atomic.Int64
	w2 := leaseStore(t, dir, "w2")
	_, stats2, err := Run(context.Background(), specs, func(_ context.Context, s trial) (outcome, error) {
		executed.Add(1)
		return run(s), nil
	}, Options{Workers: 2, Store: w2, StoreLeases: w2, ContinueOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	if executed.Load() != 0 {
		t.Errorf("worker 2 executed %d trials; the grid should be cache hits + inherited poison", executed.Load())
	}
	if len(stats2.Failures) != 1 {
		t.Fatalf("worker 2 failures = %+v", stats2.Failures)
	}
	f := stats2.Failures[0]
	if !f.Quarantined {
		t.Error("inherited failure not marked Quarantined")
	}
	if f.Index != badIdx || !strings.Contains(f.Err, "deterministic trial failure") {
		t.Errorf("inherited failure = %+v", f)
	}
	specJSON, _ := json.Marshal(specs[badIdx])
	wantHash := cachestore.SpecHashJSON(specJSON)
	if f.SpecHash != wantHash {
		t.Errorf("inherited failure spec hash = %s, want %s", f.SpecHash, wantHash)
	}
	if stats2.CacheHits != len(specs)-1 {
		t.Errorf("worker 2 cache hits = %d, want %d", stats2.CacheHits, len(specs)-1)
	}
}

// TestLeasedPoisonAbortsWithoutContinueOnError: a poisoned trial fails the
// campaign outright when graceful degradation is off.
func TestLeasedPoisonAbortsWithoutContinueOnError(t *testing.T) {
	dir := t.TempDir()
	specs := []trial{{Name: "bad", Seed: 1}}
	key := mustKey(t, "v1", specs[0])
	w1 := leaseStore(t, dir, "w1")
	if c, err := w1.Claim(context.Background(), key); err != nil || c.State != cachestore.LeaseAcquired {
		t.Fatalf("setup claim: %+v, %v", c, err)
	}
	if err := w1.PoisonKey(context.Background(), key, "hash", 5, errors.New("crash loop")); err != nil {
		t.Fatal(err)
	}
	w2 := leaseStore(t, dir, "w2")
	_, _, err := Run(context.Background(), specs, func(_ context.Context, s trial) (outcome, error) {
		return run(s), nil
	}, Options{Workers: 1, Store: w2, StoreLeases: w2})
	var pe *PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PoisonedError", err)
	}
	if pe.Attempts != 5 || !strings.Contains(pe.Cause, "crash loop") {
		t.Errorf("poisoned error = %+v", pe)
	}
}

// TestLeasedDrainReleasesLeases: a drain mid-campaign must not leave lease
// files behind for trials that were skipped or in flight.
func TestLeasedDrainReleasesLeases(t *testing.T) {
	dir := t.TempDir()
	specs := grid(12)
	drain := make(chan struct{})
	var once sync.Once
	var doneBeforeDrain atomic.Int64
	st := leaseStore(t, dir, "w1")
	_, stats, err := Run(context.Background(), specs, func(_ context.Context, s trial) (outcome, error) {
		if doneBeforeDrain.Add(1) == 4 {
			once.Do(func() { close(drain) })
		}
		return run(s), nil
	}, Options{Workers: 2, Store: st, StoreLeases: st, Drain: drain})
	if err != nil && !errors.Is(err, ErrDrained) {
		t.Fatal(err)
	}
	if err == nil {
		t.Skip("drain raced campaign completion; nothing to assert")
	}
	if stats.Skipped == 0 {
		t.Error("drained campaign reports no skipped trials")
	}
	if files := leaseFiles(t, dir); len(files) != 0 {
		t.Errorf("lease files left behind after drain: %v", files)
	}
}

// TestFlightFollowerStallDeadline is the regression test for the follower
// hang: a leader that never signals (its trial wedged after its context was
// canceled) must not block followers forever.
// The follower gets ErrFlightStalled at the flight layer, and the runner
// recovers by executing independently.
func TestFlightFollowerStallDeadline(t *testing.T) {
	flight := &Flight{takeoverStall: 100 * time.Millisecond}

	// The leader enters the flight and wedges: its own context is canceled
	// but it never returns, so it can never close done.
	leaderIn := make(chan struct{})
	wedge := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	go func() {
		flight.do(leaderCtx, "k", func() (any, int, error) {
			close(leaderIn)
			<-wedge
			return nil, 0, leaderCtx.Err()
		})
	}()
	<-leaderIn
	cancelLeader()

	// Flight layer: the follower must time out with ErrFlightStalled.
	start := time.Now()
	_, _, shared, err := flight.do(context.Background(), "k", func() (any, int, error) {
		return "follower", 1, nil
	})
	if !shared || !errors.Is(err, ErrFlightStalled) {
		t.Fatalf("follower outcome = shared=%v err=%v, want stalled", shared, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("follower waited %v, deadline did not bite", waited)
	}

	// Runner layer: a campaign sharing the stalled flight completes by
	// executing independently.
	st := openStore(t, t.TempDir(), "v1")
	specs := []trial{{Name: "k-trial", Seed: 3}}
	key := mustKey(t, "v1", specs[0])
	// Wedge a leader on this campaign's actual key.
	stuckIn := make(chan struct{})
	go func() {
		flight.do(context.Background(), key, func() (any, int, error) {
			close(stuckIn)
			<-wedge
			return nil, 0, nil
		})
	}()
	<-stuckIn
	res, stats, err := Run(context.Background(), specs, func(_ context.Context, s trial) (outcome, error) {
		return run(s), nil
	}, Options{Workers: 1, Store: st, Flight: flight})
	if err != nil {
		t.Fatalf("campaign with stalled leader: %v", err)
	}
	if res[0] != run(specs[0]) || stats.Executed != 1 {
		t.Fatalf("res = %+v stats = %+v", res[0], stats)
	}
	close(wedge)
}

// TestFlightFollowerCancellation: a follower whose own context dies stops
// waiting immediately instead of serving the leader's eventual outcome.
func TestFlightFollowerCancellation(t *testing.T) {
	flight := &Flight{} // default takeover stall: long enough to not fire here
	leaderIn := make(chan struct{})
	wedge := make(chan struct{})
	defer close(wedge)
	go func() {
		flight.do(context.Background(), "k", func() (any, int, error) {
			close(leaderIn)
			<-wedge
			return nil, 0, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, _, shared, err := flight.do(ctx, "k", func() (any, int, error) { return nil, 0, nil })
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled follower outcome = shared=%v err=%v", shared, err)
	}
}

// TestRetryJitterDeterministic pins the seeded-jitter contract: same spec
// hash and attempt → same factor; different spec hashes desynchronize; the
// factor stays in [0.5, 1.0).
func TestRetryJitterDeterministic(t *testing.T) {
	a := retryJitter("spec-a", 0)
	if b := retryJitter("spec-a", 0); a != b {
		t.Fatalf("jitter not deterministic: %v vs %v", a, b)
	}
	distinct := false
	for i := 0; i < 16; i++ {
		h := fmt.Sprintf("spec-%d", i)
		for attempt := 0; attempt < 4; attempt++ {
			f := retryJitter(h, attempt)
			if f < 0.5 || f >= 1.0 {
				t.Fatalf("jitter(%q, %d) = %v outside [0.5, 1.0)", h, attempt, f)
			}
			if f != a {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Fatal("jitter constant across spec hashes — no desynchronization")
	}
}

// BenchmarkMultiProcessOverhead measures the full per-trial cost of lease
// mode on a cold execute: claim + heartbeat setup + trivial exec + cache
// publish + release. The comparison point is the same path without
// StoreLeases; the delta is the multi-process tax. Pinned in BENCH_baseline.json.
func BenchmarkMultiProcessOverhead(b *testing.B) {
	st := leaseStore(b, b.TempDir(), "bench", func(c *fsstore.Config) {
		c.Schema = "bench-v1"
		c.TTL = time.Minute
	})
	exec := func(_ context.Context, s trial) (outcome, error) { return run(s), nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs := []trial{{Name: "bench", Seed: int64(i)}}
		if _, _, err := Run(context.Background(), specs, exec, Options{
			Workers: 1, Store: st, StoreLeases: st,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
