package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gurita/internal/leakcheck"
)

// trial is the toy spec used throughout: deterministic output, enough
// structure to exercise canonical-JSON keying.
type trial struct {
	Name string  `json:"name"`
	Seed int64   `json:"seed"`
	X    float64 `json:"x,omitempty"`
}

type outcome struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func run(t trial) outcome {
	return outcome{Name: t.Name, Value: float64(t.Seed) * 10}
}

func grid(n int) []trial {
	specs := make([]trial, n)
	for i := range specs {
		specs[i] = trial{Name: fmt.Sprintf("t%d", i), Seed: int64(i)}
	}
	return specs
}

func TestKeyDeterministicAndSensitive(t *testing.T) {
	a, err := Key("v1", trial{Name: "a", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Key("v1", trial{Name: "a", Seed: 1})
	if a != b {
		t.Fatalf("equal specs hashed differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(a))
	}
	if c, _ := Key("v1", trial{Name: "a", Seed: 2}); c == a {
		t.Fatal("different specs hashed identically")
	}
	if c, _ := Key("v2", trial{Name: "a", Seed: 1}); c == a {
		t.Fatal("schema bump did not change the key")
	}
	if _, err := Key("v1", func() {}); err == nil {
		t.Fatal("unmarshalable spec must error")
	}
}

// TestRunGridOrder: results land at their spec's index no matter how
// completion interleaves (later trials finish first here).
func TestRunGridOrder(t *testing.T) {
	specs := grid(16)
	exec := func(ctx context.Context, s trial) (outcome, error) {
		// Earlier trials sleep longer, inverting completion order.
		time.Sleep(time.Duration(16-s.Seed) * time.Millisecond)
		return run(s), nil
	}
	results, stats, err := Run(context.Background(), specs, exec, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 16 || stats.CacheHits != 0 || stats.Total != 16 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, r := range results {
		if want := run(specs[i]); r != want {
			t.Fatalf("results[%d] = %+v, want %+v", i, r, want)
		}
	}
}

// TestRunParallelism: with W workers, W trials must actually overlap.
func TestRunParallelism(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int32
	exec := func(ctx context.Context, s trial) (outcome, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		cur.Add(-1)
		return run(s), nil
	}
	if _, _, err := Run(context.Background(), grid(12), exec, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != workers {
		t.Fatalf("peak concurrency = %d, want %d", got, workers)
	}
}

func TestRunFirstErrorStopsPool(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int32
	exec := func(ctx context.Context, s trial) (outcome, error) {
		executed.Add(1)
		if s.Seed == 3 {
			return outcome{}, boom
		}
		time.Sleep(time.Millisecond)
		return run(s), nil
	}
	_, _, err := Run(context.Background(), grid(64), exec, Options{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := executed.Load(); n >= 64 {
		t.Fatalf("pool did not stop after error: %d trials executed", n)
	}
}

func TestRunCancellation(t *testing.T) {
	snap := leakcheck.Take()
	defer snap.Check(t) // Run must join its worker pool even on cancel
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	exec := func(ctx context.Context, s trial) (outcome, error) {
		// Every execution from the fourth on cancels, not only the fourth:
		// a worker descheduled before its cancel must not leave the other
		// worker free to run the whole grid.
		if executed.Add(1) >= 4 {
			cancel()
		}
		return run(s), nil
	}
	_, stats, err := Run(ctx, grid(256), exec, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Executed >= 256 {
		t.Fatal("cancellation did not stop the campaign")
	}
}

// TestRunResume: an interrupted cached campaign picks up where it stopped —
// the second invocation executes only the missing trials.
func TestRunResume(t *testing.T) {
	cache := openStore(t, t.TempDir(), "v1")
	specs := grid(10)
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int32
	exec := func(ctx context.Context, s trial) (outcome, error) {
		if executed.Add(1) == 5 {
			cancel() // simulated SIGINT mid-campaign
		}
		return run(s), nil
	}
	if _, _, err := Run(ctx, specs, exec, Options{Workers: 1, Store: cache}); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run err = %v, want context.Canceled", err)
	}
	interrupted := int(executed.Load())
	if interrupted == 0 || interrupted >= 10 {
		t.Fatalf("interrupted run executed %d trials, want partial progress", interrupted)
	}

	executed.Store(0)
	resumed := func(ctx context.Context, s trial) (outcome, error) {
		executed.Add(1)
		return run(s), nil
	}
	results, stats, err := Run(context.Background(), specs, resumed, Options{Workers: 1, Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != interrupted || stats.Executed != 10-interrupted {
		t.Fatalf("resume stats = %+v, want %d hits / %d executed", stats, interrupted, 10-interrupted)
	}
	for i, r := range results {
		if want := run(specs[i]); r != want {
			t.Fatalf("resumed results[%d] = %+v, want %+v", i, r, want)
		}
	}

	// Third run: fully warm, nothing executes.
	_, stats, err = Run(context.Background(), specs, resumed, Options{Workers: 4, Store: cache})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 0 || stats.CacheHits != 10 {
		t.Fatalf("warm stats = %+v, want all hits", stats)
	}
}

func TestRunForceReexecutes(t *testing.T) {
	cache := openStore(t, t.TempDir(), "v1")
	specs := grid(6)
	var executed atomic.Int32
	exec := func(ctx context.Context, s trial) (outcome, error) {
		executed.Add(1)
		return run(s), nil
	}
	if _, _, err := Run(context.Background(), specs, exec, Options{Workers: 2, Store: cache}); err != nil {
		t.Fatal(err)
	}
	executed.Store(0)
	_, stats, err := Run(context.Background(), specs, exec, Options{Workers: 2, Store: cache, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 6 || stats.CacheHits != 0 {
		t.Fatalf("forced stats = %+v, want 6 executed", stats)
	}
	if executed.Load() != 6 {
		t.Fatalf("force executed %d trials, want 6", executed.Load())
	}
}

func TestRunProgress(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	exec := func(ctx context.Context, s trial) (outcome, error) {
		time.Sleep(time.Millisecond)
		return run(s), nil
	}
	_, _, err := Run(context.Background(), grid(8), exec, Options{
		Workers: 3,
		Progress: func(p Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 8 {
		t.Fatalf("progress callbacks = %d, want 8", len(snaps))
	}
	for i, p := range snaps {
		if p.Done != i+1 || p.Total != 8 {
			t.Fatalf("snapshot %d = %+v", i, p)
		}
		if p.ETA < 0 || p.Elapsed <= 0 {
			t.Fatalf("snapshot %d has bad timing: %+v", i, p)
		}
	}
	if last := snaps[len(snaps)-1]; last.ETA != 0 {
		t.Fatalf("final ETA = %v, want 0", last.ETA)
	}
}

// TestRunProgressETA: the observed pace elapsed/Executed already reflects
// the workers running side by side, so halfway through a grid of equal
// trials the ETA is about the time spent so far, not that time divided by
// the worker count.
func TestRunProgressETA(t *testing.T) {
	var half Progress
	exec := func(ctx context.Context, s trial) (outcome, error) {
		time.Sleep(20 * time.Millisecond)
		return run(s), nil
	}
	_, _, err := Run(context.Background(), grid(16), exec, Options{
		Workers: 4,
		Progress: func(p Progress) {
			if p.Done == 8 {
				half = p
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if half.Done != 8 {
		t.Fatal("no progress snapshot at 8 of 16 trials")
	}
	if half.ETA < half.Elapsed/2 {
		t.Fatalf("ETA %v at 8/16 trials after %v, want at least %v", half.ETA, half.Elapsed, half.Elapsed/2)
	}
}

func TestRunEmptyGrid(t *testing.T) {
	results, stats, err := Run(context.Background(), nil,
		func(ctx context.Context, s trial) (outcome, error) { return run(s), nil },
		Options{})
	if err != nil || len(results) != 0 || stats.Total != 0 {
		t.Fatalf("empty grid: results=%v stats=%+v err=%v", results, stats, err)
	}
}
