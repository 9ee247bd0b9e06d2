package fairq

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// waitFor spins until cond holds; queue state changes settle in microseconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 1e7 {
			t.Fatal("condition never held")
		}
		runtime.Gosched()
	}
}

// saturateOrder builds a full backlog behind plugged slots, then releases
// the plugs and drains the queue, returning the grant order (plugs
// excluded). A pre-built backlog makes the order fully deterministic for any
// slot count: each dispatch decision sees the whole remaining backlog and
// depends only on the grants before it, never on when releases land.
func saturateOrder(t *testing.T, cfg Config, weights map[string]float64, backlog map[string]int) ([]string, *Queue) {
	t.Helper()
	var order []string
	cfg.OnGrant = func(id string) { order = append(order, id) } // under q.mu: serialized
	q := New(cfg)
	// Register in sorted order: registration order breaks exact-service
	// ties, so it is part of the deterministic input.
	ids := make([]string, 0, len(weights))
	for id := range weights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		q.SetTenant(id, weights[id])
	}
	plugs := make([]func(), cfg.Slots)
	for i := range plugs {
		r, err := q.Acquire(context.Background(), "plug")
		if err != nil {
			t.Fatal(err)
		}
		plugs[i] = r
	}
	total := 0
	var wg sync.WaitGroup
	for id, n := range backlog {
		total += n
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				release, err := q.Acquire(context.Background(), id)
				if err != nil {
					t.Errorf("Acquire(%s): %v", id, err)
					return
				}
				release()
			}(id)
		}
	}
	waitFor(t, func() bool { return q.Snapshot().Waiting == total })
	for _, r := range plugs {
		r()
	}
	wg.Wait()
	if len(order) != total+len(plugs) {
		t.Fatalf("grant order length %d, want %d", len(order), total+len(plugs))
	}
	for _, id := range order[:len(plugs)] {
		if id != "plug" {
			t.Fatalf("grant order starts %v, want %d plugs", order[:len(plugs)], len(plugs))
		}
	}
	return order[len(plugs):], q
}

// TestGrantOrderGoldens pins the full saturated grant sequence of several
// weight mixes as SHA-256 digests over the newline-joined tenant IDs. The
// six-tenant case ranks more tenants than four; the Slots: 3 case drains
// with three grants in flight and must match the one-slot order, since each
// grant depends only on the grants before it. To re-pin after an intended
// change to the grant rule, run
//
//	go test -run TestGrantOrderGoldens -v ./internal/serve/fairq 2>&1 | grep 'golden:'
func TestGrantOrderGoldens(t *testing.T) {
	cases := []struct {
		name    string
		slots   int
		weights map[string]float64
		backlog map[string]int
		digest  string
	}{
		{"w124", 1, map[string]float64{"alice": 1, "bob": 2, "carol": 4},
			map[string]int{"alice": 70, "bob": 140, "carol": 280}, "f2b55c1d92dedf542a5b75fbfc9ca9f700d24d66ba510781bf35987beb70c19e"},
		{"w13", 1, map[string]float64{"a": 1, "b": 3},
			map[string]int{"a": 40, "b": 40}, "6ccb627313b85f71543193598760dab41ad4ee06cfb22584b32d53d261813303"},
		{"equal3", 1, map[string]float64{"a": 1, "b": 1, "c": 1},
			map[string]int{"a": 60, "b": 60, "c": 60}, "baa2d5302120e3ffae6177a712bec25a8f8646df4cb8cd1f39a878ce310b0555"},
		{"w1to6", 1, map[string]float64{"t1": 1, "t2": 2, "t3": 3, "t4": 4, "t5": 5, "t6": 6},
			map[string]int{"t1": 10, "t2": 20, "t3": 30, "t4": 40, "t5": 50, "t6": 60}, "b334ff2b9a3ece00a4e05af06c0324aeb6037a806efae67ff0656c8dd4583627"},
		{"w124-slots3", 3, map[string]float64{"alice": 1, "bob": 2, "carol": 4},
			map[string]int{"alice": 70, "bob": 140, "carol": 280}, "f2b55c1d92dedf542a5b75fbfc9ca9f700d24d66ba510781bf35987beb70c19e"},
	}
	for _, c := range cases {
		order, _ := saturateOrder(t, Config{Slots: c.slots, Capacity: 4096}, c.weights, c.backlog)
		sum := sha256.Sum256([]byte(strings.Join(order, "\n")))
		got := hex.EncodeToString(sum[:])
		t.Logf("golden: {%q, ..., %q},", c.name, got)
		if got != c.digest {
			t.Errorf("%s: grant-order digest %s, want %s", c.name, got, c.digest)
		}
	}
}

// TestWeightedSharesUnderSaturation: tenants with weights 1/2/4 and deep
// backlogs must receive grants in proportion to their weights, within
// tolerance, over a window in which everyone stays backlogged.
func TestWeightedSharesUnderSaturation(t *testing.T) {
	weights := map[string]float64{"alice": 1, "bob": 2, "carol": 4}
	backlog := map[string]int{"alice": 70, "bob": 140, "carol": 280}
	order, q := saturateOrder(t, Config{Slots: 1, Capacity: 4096}, weights, backlog)

	if len(order) != 490 {
		t.Fatalf("grants = %d, want 490", len(order))
	}
	// Over the first 140 grants every tenant is still backlogged (alice's 70
	// grants last well beyond this window at her 1/7 share), so shares must
	// match weights within 10%.
	window := order[:140]
	counts := map[string]int{}
	for _, id := range window {
		counts[id]++
	}
	const totalW = 7.0
	for id, w := range weights {
		want := float64(len(window)) * w / totalW
		got := float64(counts[id])
		if math.Abs(got-want) > 0.1*float64(len(window)) {
			t.Errorf("tenant %s: %v grants in window, want ~%v (counts %v)", id, got, want, counts)
		}
	}
	snap := q.Snapshot()
	if snap.Grants != 491 || snap.Waiting != 0 || snap.Granted != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	for _, ts := range snap.Tenants {
		if ts.ID == "plug" {
			continue
		}
		if ts.Grants != uint64(backlog[ts.ID]) {
			t.Errorf("tenant %s: %d grants, want %d", ts.ID, ts.Grants, backlog[ts.ID])
		}
	}
}

// TestDeterministicGrantOrder: the same backlog drains in the same order
// every time — fairq runs on a virtual clock and has no nondeterminism to
// hide behind.
func TestDeterministicGrantOrder(t *testing.T) {
	weights := map[string]float64{"a": 1, "b": 3}
	backlog := map[string]int{"a": 40, "b": 40}
	first, _ := saturateOrder(t, Config{Slots: 1, Capacity: 256}, weights, backlog)
	for rep := 0; rep < 3; rep++ {
		again, _ := saturateOrder(t, Config{Slots: 1, Capacity: 256}, weights, backlog)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("rep %d: grant %d = %s, first run had %s", rep, i, again[i], first[i])
			}
		}
	}
}

// TestEqualWeightsConverge: equal-weight tenants split grants near-evenly.
func TestEqualWeightsConverge(t *testing.T) {
	backlog := map[string]int{"a": 60, "b": 60, "c": 60}
	order, _ := saturateOrder(t, Config{Slots: 1, Capacity: 1024}, nil, backlog)
	counts := map[string]int{}
	for _, id := range order[:90] {
		counts[id]++
	}
	for id, n := range counts {
		if n < 24 || n > 36 { // 30 ± 20%
			t.Errorf("tenant %s: %d grants in first 90, want ~30 (%v)", id, n, counts)
		}
	}
}

// TestCapacityRejects: the waiting set is bounded; the overflow Acquire
// fails fast with ErrFull while earlier waiters are unaffected.
func TestCapacityRejects(t *testing.T) {
	q := New(Config{Slots: 1, Capacity: 2})
	hold, err := q.Acquire(context.Background(), "a") // takes the only slot
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := q.Acquire(context.Background(), "a")
			if err == nil {
				r()
			}
			results <- err
		}()
	}
	waitFor(t, func() bool { return q.Snapshot().Waiting == 2 })
	if _, err := q.Acquire(context.Background(), "b"); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow Acquire: %v, want ErrFull", err)
	}
	hold()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("queued waiter failed: %v", err)
		}
	}
}

// TestAcquireContextCancel: a cancelled waiter leaves no residue — its slot
// is never consumed and later grants proceed.
func TestAcquireContextCancel(t *testing.T) {
	q := New(Config{Slots: 1, Capacity: 16})
	hold, err := q.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := q.Acquire(ctx, "b")
		done <- err
	}()
	waitFor(t, func() bool { return q.Snapshot().Waiting == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Acquire: %v", err)
	}
	if s := q.Snapshot(); s.Waiting != 0 {
		t.Fatalf("waiting = %d after cancellation", s.Waiting)
	}
	hold()
	r, err := q.Acquire(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	r()
}

// TestCloseFailsWaiters: Close rejects waiters with ErrClosed, rejects
// future Acquires, and leaves granted slots to finish.
func TestCloseFailsWaiters(t *testing.T) {
	q := New(Config{Slots: 1, Capacity: 16})
	hold, err := q.Acquire(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := q.Acquire(context.Background(), "b")
		done <- err
	}()
	waitFor(t, func() bool { return q.Snapshot().Waiting == 1 })
	q.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter after Close: %v, want ErrClosed", err)
	}
	if _, err := q.Acquire(context.Background(), "c"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close: %v, want ErrClosed", err)
	}
	hold() // release against a closed queue must not panic
}

// TestCloseCancelSettlesOnce: a waiter whose context ends while Close fails
// it is settled exactly once, so no waiting count goes negative. Holding the
// queue lock across cancel makes Close win the lock before the waiter's
// cancellation path in nearly every round.
func TestCloseCancelSettlesOnce(t *testing.T) {
	for round := 0; round < 200; round++ {
		q := New(Config{Slots: 1, Capacity: 16})
		if _, err := q.Acquire(context.Background(), "hold"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := q.Acquire(ctx, "a")
			done <- err
		}()
		waitFor(t, func() bool { return q.Snapshot().Waiting == 1 })
		q.mu.Lock()
		cancel()
		q.mu.Unlock()
		q.Close()
		if err := <-done; !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Acquire = %v, want ErrClosed or context.Canceled", round, err)
		}
		s := q.Snapshot()
		if s.Waiting != 0 {
			t.Fatalf("round %d: waiting = %d, want 0", round, s.Waiting)
		}
		for _, ts := range s.Tenants {
			if ts.Waiting != 0 {
				t.Fatalf("round %d: tenant %s waiting = %d, want 0", round, ts.ID, ts.Waiting)
			}
		}
	}
}
