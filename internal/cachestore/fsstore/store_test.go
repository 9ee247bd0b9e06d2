package fsstore_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/conformancetest"
	"gurita/internal/cachestore/fsstore"
	"gurita/internal/leakcheck"
)

func TestConformance(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) *conformancetest.Harness {
		const ttl = 300 * time.Millisecond
		dir := t.TempDir()
		clock := newManualClock()
		h := &conformancetest.Harness{TTL: ttl, MaxAttempts: 2, Advance: clock.Advance}
		h.Open = func(t *testing.T, owner string) conformancetest.Full {
			t.Helper()
			// One OpenStore per owner over one shared directory is exactly
			// how peer worker processes share a cache root.
			s, err := fsstore.OpenStore(fsstore.Config{
				Dir:         dir,
				Schema:      "conformance-v1",
				Owner:       owner,
				TTL:         ttl,
				MaxAttempts: 2,
			})
			if err != nil {
				t.Fatalf("fsstore.OpenStore: %v", err)
			}
			fsstore.SetClock(s, clock.Now)
			return s
		}
		h.Corrupt = func(t *testing.T, key string) {
			t.Helper()
			// Tear the entry file in place: a crash mid-write or bit rot.
			path := filepath.Join(dir, key[:2], key+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading entry to corrupt: %v", err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatalf("corrupting entry: %v", err)
			}
		}
		return h
	})
}

// manualClock is a lease clock that starts at the wall clock's reading and
// then moves only when advanced, so staleness tests run without sleeping and
// no scheduler stall can age a lease behind a test's back.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func newManualClock() *manualClock { return &manualClock{now: time.Now()} }

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// BenchmarkFSStorePut measures the per-trial publish cost of the filesystem
// backend: envelope assembly plus the temp+fsync+rename atomic write. Pinned
// in BENCH_baseline.json (gated by cmd/benchgate).
func BenchmarkFSStorePut(b *testing.B) {
	dir := b.TempDir()
	s, err := fsstore.OpenStore(fsstore.Config{Dir: dir, Schema: "bench-v1", Owner: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	result := json.RawMessage(`{"metric":42,"rows":[1,2,3,4,5,6,7,8]}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := json.RawMessage(fmt.Sprintf(`{"trial":%d}`, i))
		key, err := cachestore.Key("bench-v1", spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Put(ctx, key, spec, result); err != nil {
			b.Fatal(err)
		}
	}
}

// ownedStore opens owner's handle on the shared directory dir.
func ownedStore(t *testing.T, dir, owner string, ttl, heartbeat time.Duration) *fsstore.Store {
	t.Helper()
	s, err := fsstore.OpenStore(fsstore.Config{
		Dir: dir, Schema: "hb-v1", Owner: owner, TTL: ttl, Heartbeat: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// acquire claims key on s and fails the test unless the lease is acquired.
func acquire(t *testing.T, s *fsstore.Store, key string) {
	t.Helper()
	l, err := s.Claim(context.Background(), key)
	if err != nil || l.State != cachestore.LeaseAcquired {
		t.Fatalf("%s claim = %+v, %v, want acquired", s.Owner(), l, err)
	}
}

func hbKey(t *testing.T) string {
	t.Helper()
	key, err := cachestore.Key("hb-v1", "trial")
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestHeartbeatKeepsLeaseFresh: the production renewal loop keeps an fsstore
// lease live across several TTLs of a peer watching it, and Stop joins the
// loop.
func TestHeartbeatKeepsLeaseFresh(t *testing.T) {
	snap := leakcheck.Take()
	defer snap.Check(t) // Stop must join the heartbeat goroutine
	const ttl = 500 * time.Millisecond
	dir, key, ctx := t.TempDir(), hbKey(t), context.Background()
	w1 := ownedStore(t, dir, "w1", ttl, 50*time.Millisecond)
	w2 := ownedStore(t, dir, "w2", ttl, 0)
	acquire(t, w1, key)
	hb := cachestore.StartHeartbeat(ctx, w1, key)
	// Without renewals the peer would see the same (owner, seq) pair for a
	// full TTL and reclaim; with them every sighting restarts its watch.
	deadline := time.Now().Add(3 * ttl)
	for time.Now().Before(deadline) {
		l, err := w2.Claim(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if l.State != cachestore.LeaseBusy {
			t.Fatalf("peer claim during heartbeat = %+v, want busy", l)
		}
		time.Sleep(50 * time.Millisecond)
	}
	hb.Stop()
	if hb.Lost() {
		t.Error("heartbeat reports lost despite continuous renewal")
	}
	w1.Release(ctx, key)
}

// TestHeartbeatStopsOnContextCancel: cancelling the context handed to
// StartHeartbeat ends the renewal loop on its own, before any Stop — a
// campaign abort must not leave detached heartbeats extending leases for
// trials nobody is executing.
func TestHeartbeatStopsOnContextCancel(t *testing.T) {
	dir, key := t.TempDir(), hbKey(t)
	// A period no test outlives: only the cancellation can end the loop.
	w1 := ownedStore(t, dir, "w1", time.Hour, time.Hour)
	acquire(t, w1, key)
	snap := leakcheck.Take()
	ctx, cancel := context.WithCancel(context.Background())
	hb := cachestore.StartHeartbeat(ctx, w1, key)
	cancel()
	snap.Check(t)
	hb.Stop()
	w1.Release(context.Background(), key)
}

// TestHeartbeatLostOnTakeover: a holder that stalled past a peer's TTL finds
// its lease reclaimed on the next renewal. The heartbeat marks itself lost
// and exits on its own, and the usurper's lease stays untouched.
func TestHeartbeatLostOnTakeover(t *testing.T) {
	dir, key, ctx := t.TempDir(), hbKey(t), context.Background()
	w1 := ownedStore(t, dir, "w1", time.Hour, 20*time.Millisecond)
	w2 := ownedStore(t, dir, "w2", 100*time.Millisecond, 0)
	acquire(t, w1, key)
	// w1 "stalls" with no heartbeat running: w2 sights the unchanging lease,
	// then reclaims it once its TTL has passed.
	if l, err := w2.Claim(ctx, key); err != nil || l.State != cachestore.LeaseBusy {
		t.Fatalf("peer sighting = %+v, %v, want busy", l, err)
	}
	time.Sleep(150 * time.Millisecond)
	if l, err := w2.Claim(ctx, key); err != nil || l.State != cachestore.LeaseAcquired || !l.Reclaimed {
		t.Fatalf("peer reclaim = %+v, %v, want acquired and reclaimed", l, err)
	}

	snap := leakcheck.Take()
	hb := cachestore.StartHeartbeat(ctx, w1, key)
	for deadline := time.Now().Add(2 * time.Second); !hb.Lost(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never discovered the takeover")
		}
	}
	snap.Check(t) // the loop exits on its own once lost
	hb.Stop()
	if got := w1.LeaseStats().Lost; got != 1 {
		t.Errorf("w1 lost leases = %d, want 1", got)
	}
	w1.Release(ctx, key)
	if err := w2.Renew(ctx, key); err != nil {
		t.Fatalf("usurper's lease disturbed by the lost holder: %v", err)
	}
	w2.Release(ctx, key)
}

// TestOpenStoreWithoutOwner: a store opened without an Owner is a plain
// single-process cache. It creates no leases/ subdirectory, and its lease
// calls fail or no-op instead of dereferencing a missing lease manager.
func TestOpenStoreWithoutOwner(t *testing.T) {
	dir, key, ctx := t.TempDir(), hbKey(t), context.Background()
	s, err := fsstore.OpenStore(fsstore.Config{Dir: dir, Schema: "hb-v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, key, json.RawMessage(`"trial"`), json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ctx, key); !ok {
		t.Fatal("miss after Put")
	}
	if _, err := s.Claim(ctx, key); err == nil {
		t.Error("Claim without an owner succeeded")
	}
	if err := s.Renew(ctx, key); err == nil {
		t.Error("Renew without an owner succeeded")
	}
	if err := s.PoisonKey(ctx, key, "hash", 1, nil); err == nil {
		t.Error("PoisonKey without an owner succeeded")
	}
	s.Release(ctx, key)
	if n := s.Sweep(ctx, []string{key}); n != 0 {
		t.Errorf("Sweep removed %d leases", n)
	}
	if s.Owner() != "" || s.TTL() != 0 || s.HeartbeatEvery() != 0 || s.LeaseStats() != (cachestore.LeaseStats{}) {
		t.Errorf("lease side of an ownerless store = %q %v %v %+v", s.Owner(), s.TTL(), s.HeartbeatEvery(), s.LeaseStats())
	}
	if _, err := os.Stat(filepath.Join(dir, cachestore.LeaseSubdir)); !os.IsNotExist(err) {
		t.Errorf("ownerless store created %s/: %v", cachestore.LeaseSubdir, err)
	}
}
