package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const testSchema = "lease-test-v1"

func mustOpen(t *testing.T, dir, owner string, mut ...func(*Config)) *Manager {
	t.Helper()
	cfg := Config{Dir: dir, Owner: owner, Schema: testSchema, TTL: 200 * time.Millisecond}
	for _, f := range mut {
		f(&cfg)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

// age rewinds the lease file's mtime. Liveness for seq-carrying records no
// longer reads mtimes, so this only drives the fallback path (legacy and
// foreign records) and Sweep.
func age(t *testing.T, m *Manager, key string, by time.Duration) {
	t.Helper()
	past := time.Now().Add(-by)
	if err := os.Chtimes(m.leasePath(key), past, past); err != nil {
		t.Fatalf("Chtimes: %v", err)
	}
}

// warpClock installs a controllable clock on m and returns a function that
// advances it, so observation-based staleness tests move time instead of
// sleeping.
func warpClock(m *Manager) func(time.Duration) {
	var mu sync.Mutex
	offset := time.Duration(0)
	m.clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return time.Now().Add(offset)
	}
	return func(d time.Duration) {
		mu.Lock()
		offset += d
		mu.Unlock()
	}
}

// sight performs the first Claim a peer makes against a held lease: the
// sighting that starts its staleness watch. It must come back busy.
func sight(t *testing.T, m *Manager, key string) {
	t.Helper()
	c, err := m.Claim(key)
	if err != nil {
		t.Fatalf("sighting claim: %v", err)
	}
	if c.State != StateBusy {
		t.Fatalf("sighting claim state = %v, want busy", c.State)
	}
}

func TestOpenValidates(t *testing.T) {
	dir := t.TempDir()
	cases := []Config{
		{Owner: "w", Schema: "s"},                // no dir
		{Dir: dir, Schema: "s"},                  // no owner
		{Dir: dir, Owner: "w", Schema: ""},       // no schema
		{Dir: dir, Owner: "a/b", Schema: "s"},    // unsafe owner
		{Dir: dir, Owner: "a\x00b", Schema: "s"}, // unsafe owner
	}
	for i, cfg := range cases {
		if _, err := Open(cfg); err == nil {
			t.Errorf("case %d: Open(%+v) succeeded, want error", i, cfg)
		}
	}
	m := mustOpen(t, filepath.Join(dir, "sub"), "w1")
	if m.TTL() != 200*time.Millisecond {
		t.Errorf("TTL = %v", m.TTL())
	}
	if _, err := os.Stat(filepath.Join(dir, "sub")); err != nil {
		t.Errorf("lease dir not created: %v", err)
	}
}

func TestClaimAcquireReleaseCycle(t *testing.T) {
	m := mustOpen(t, t.TempDir(), "w1")
	c, err := m.Claim("k1")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if c.State != StateAcquired || c.Attempt != 1 || c.Reclaimed {
		t.Fatalf("first claim = %+v, want acquired attempt 1", c)
	}
	// The lease file exists and carries our identity plus a live sequence.
	rec, mtime, ok := m.readLease("k1")
	if !ok || mtime.IsZero() {
		t.Fatal("lease file unreadable after acquire")
	}
	if rec.Owner != "w1" || rec.Schema != testSchema || rec.Attempt != 1 {
		t.Fatalf("lease record = %+v", rec)
	}
	if rec.Seq == 0 {
		t.Fatalf("acquired lease has no sequence number: %+v", rec)
	}
	c.Release()
	if _, err := os.Stat(m.leasePath("k1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease file survives Release: %v", err)
	}
	st := m.Stats()
	if st.Acquired != 1 || st.Released != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Released leases are immediately re-claimable.
	c2, err := m.Claim("k1")
	if err != nil || c2.State != StateAcquired {
		t.Fatalf("re-claim after release: %+v, %v", c2, err)
	}
	c2.Release()
}

func TestClaimBusyWhileFresh(t *testing.T) {
	dir := t.TempDir()
	m1 := mustOpen(t, dir, "w1")
	m2 := mustOpen(t, dir, "w2")
	c1, err := m1.Claim("k")
	if err != nil || c1.State != StateAcquired {
		t.Fatalf("w1 claim: %+v, %v", c1, err)
	}
	c2, err := m2.Claim("k")
	if err != nil {
		t.Fatalf("w2 claim: %v", err)
	}
	if c2.State != StateBusy {
		t.Fatalf("w2 claim state = %v, want busy", c2.State)
	}
	if c2.Holder != "w1" {
		t.Errorf("holder = %q, want w1", c2.Holder)
	}
	if c2.Remaining <= 0 || c2.Remaining > m2.TTL() {
		t.Errorf("remaining = %v, want within (0, TTL]", c2.Remaining)
	}
	c1.Release()
}

func TestReclaimStaleLease(t *testing.T) {
	dir := t.TempDir()
	m1 := mustOpen(t, dir, "w1")
	m2 := mustOpen(t, dir, "w2")
	advance := warpClock(m2)
	c1, _ := m1.Claim("k")
	if c1.State != StateAcquired {
		t.Fatal("setup claim failed")
	}
	// w1 "dies": no renewals. w2 sights the lease, then watches the same
	// (owner, seq) pair sit unchanged past the TTL of its own clock.
	sight(t, m2, "k")
	advance(m2.TTL() + time.Second)
	c2, err := m2.Claim("k")
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if c2.State != StateAcquired || !c2.Reclaimed || c2.Attempt != 2 {
		t.Fatalf("reclaim = %+v, want acquired attempt 2 reclaimed", c2)
	}
	rec, _, ok := m2.readLease("k")
	if !ok || rec.Owner != "w2" || rec.Attempt != 2 {
		t.Fatalf("post-reclaim record = %+v", rec)
	}
	if m2.Stats().Reclaimed != 1 {
		t.Errorf("reclaimed stat = %d", m2.Stats().Reclaimed)
	}
	c2.Release()
}

func TestReclaimUnparsableLease(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, "w1")
	if err := os.WriteFile(m.leasePath("k"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	age(t, m, "k", m.TTL()+time.Second)
	c, err := m.Claim("k")
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	// One unknown prior attempt assumed.
	if c.State != StateAcquired || c.Attempt != 2 {
		t.Fatalf("claim = %+v, want acquired attempt 2", c)
	}
	c.Release()
}

func TestForeignSchemaLeaseReclaimableWhenStale(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, "w1")
	old, _ := json.Marshal(record{Schema: "other-schema", Key: "k", Owner: "ghost", Attempt: 4})
	if err := os.WriteFile(m.leasePath("k"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	// Fresh foreign lease: still busy (mtime rules).
	c, err := m.Claim("k")
	if err != nil || c.State != StateBusy {
		t.Fatalf("fresh foreign lease claim = %+v, %v, want busy", c, err)
	}
	age(t, m, "k", m.TTL()+time.Second)
	c, err = m.Claim("k")
	if err != nil {
		t.Fatal(err)
	}
	// Foreign attempts don't count toward our budget: restart at 2.
	if c.State != StateAcquired || c.Attempt != 2 {
		t.Fatalf("stale foreign lease claim = %+v, want acquired attempt 2", c)
	}
	c.Release()
}

func TestPoisonAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, "w1", func(c *Config) { c.MaxAttempts = 3 })
	advance := warpClock(m)
	// Simulate a crash loop: claim, watch the seq go silent, reclaim, never
	// release. Each cycle needs a sighting plus a TTL of observed silence.
	c, _ := m.Claim("k")
	if c.State != StateAcquired {
		t.Fatal("setup")
	}
	for want := 2; want <= 3; want++ {
		sight(t, m, "k")
		advance(m.TTL() + time.Second)
		c, _ = m.Claim("k")
		if c.State != StateAcquired || c.Attempt != want {
			t.Fatalf("attempt %d claim = %+v", want, c)
		}
	}
	sight(t, m, "k")
	advance(m.TTL() + time.Second)
	c, err := m.Claim("k")
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StatePoisoned {
		t.Fatalf("claim after budget = %+v, want poisoned", c)
	}
	if c.Poison == nil || c.Poison.Attempts != 3 {
		t.Fatalf("poison record = %+v", c.Poison)
	}
	// Lease file is gone; poison marker persists across managers.
	if _, err := os.Stat(m.leasePath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease file survives poisoning: %v", err)
	}
	m2 := mustOpen(t, dir, "w2")
	c2, err := m2.Claim("k")
	if err != nil || c2.State != StatePoisoned {
		t.Fatalf("peer claim of poisoned trial = %+v, %v", c2, err)
	}
}

func TestPoisonTrialExplicit(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, "w1")
	c, _ := m.Claim("k")
	if err := c.PoisonTrial("abcd1234", 3, errors.New("deterministic trial failure")); err != nil {
		t.Fatalf("PoisonTrial: %v", err)
	}
	c2, err := m.Claim("k")
	if err != nil || c2.State != StatePoisoned {
		t.Fatalf("claim after explicit poison = %+v, %v", c2, err)
	}
	if c2.Poison.SpecHash != "abcd1234" || c2.Poison.Attempts != 3 {
		t.Fatalf("poison record = %+v", c2.Poison)
	}
	if !strings.Contains(c2.Poison.Err, "deterministic trial failure") {
		t.Errorf("poison err = %q", c2.Poison.Err)
	}
	if _, err := os.Stat(m.leasePath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease survives PoisonTrial: %v", err)
	}
}

func TestForeignSchemaPoisonIgnored(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, "w1")
	old, _ := json.Marshal(Poison{Schema: "other", Key: "k", Attempts: 9, Err: "ancient"})
	if err := os.WriteFile(m.poisonPath("k"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := m.Claim("k")
	if err != nil || c.State != StateAcquired {
		t.Fatalf("claim with foreign poison = %+v, %v, want acquired", c, err)
	}
	if _, err := os.Stat(m.poisonPath("k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("foreign poison marker not cleaned up: %v", err)
	}
	c.Release()
}

func TestHeartbeatDetectsTakeover(t *testing.T) {
	dir := t.TempDir()
	m1 := mustOpen(t, dir, "w1", func(c *Config) { c.TTL = 10 * time.Second })
	m2 := mustOpen(t, dir, "w2", func(c *Config) { c.TTL = 10 * time.Second })
	c1, _ := m1.Claim("k")
	if c1.State != StateAcquired {
		t.Fatal("setup")
	}
	// From the peer's point of view our process is SIGSTOPped: it sights the
	// lease, the (owner, seq) pair never changes, and a TTL later it
	// force-reclaims.
	advance := warpClock(m2)
	sight(t, m2, "k")
	advance(11 * time.Second)
	c2, err := m2.Claim("k")
	if err != nil || c2.State != StateAcquired || !c2.Reclaimed {
		t.Fatalf("forced reclaim = %+v, %v", c2, err)
	}
	// Our next renewal must discover the takeover and
	// mark the claim lost without touching the usurper's lease.
	if err := c1.Renew(); !errors.Is(err, ErrLost) {
		t.Fatalf("Renew after takeover = %v, want ErrLost", err)
	}
	if !c1.Lost() {
		t.Fatal("renewal never detected takeover")
	}
	// A second renewal short-circuits without side effects.
	if err := c1.Renew(); !errors.Is(err, ErrLost) {
		t.Fatalf("second Renew = %v, want ErrLost", err)
	}
	rec, _, ok := m2.readLease("k")
	if !ok || rec.Owner != "w2" {
		t.Fatalf("usurper lease disturbed: %+v ok=%v", rec, ok)
	}
	// Release on a lost claim must not remove the usurper's lease.
	c1.Release()
	if _, _, ok := m2.readLease("k"); !ok {
		t.Fatal("lost claim's Release removed the usurper's lease")
	}
	if m1.Stats().Lost != 1 {
		t.Errorf("lost stat = %d, want 1 (loss counted once)", m1.Stats().Lost)
	}
	c2.Release()
}

func TestConcurrentClaimSingleWinner(t *testing.T) {
	dir := t.TempDir()
	const workers = 8
	managers := make([]*Manager, workers)
	for i := range managers {
		managers[i] = mustOpen(t, dir, fmt.Sprintf("w%d", i))
	}
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("k%d", round)
		var mu sync.Mutex
		var winners []*Claim
		var wg sync.WaitGroup
		for _, m := range managers {
			wg.Add(1)
			go func(m *Manager) {
				defer wg.Done()
				c, err := m.Claim(key)
				if err != nil {
					t.Errorf("Claim: %v", err)
					return
				}
				if c.State == StateAcquired {
					mu.Lock()
					winners = append(winners, c)
					mu.Unlock()
				}
			}(m)
		}
		wg.Wait()
		if len(winners) != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1 (O_EXCL arbitration)", round, len(winners))
		}
		winners[0].Release()
	}
}

func TestSweepRemovesOnlyStaleLeases(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, "w1")
	cs, _ := m.Claim("stale")
	cf, _ := m.Claim("fresh")
	if cs.State != StateAcquired || cf.State != StateAcquired {
		t.Fatal("setup")
	}
	age(t, m, "stale", m.TTL()+time.Second)
	removed := m.Sweep([]string{"stale", "fresh", "absent"})
	if removed != 1 {
		t.Fatalf("Sweep removed %d, want 1", removed)
	}
	if _, err := os.Stat(m.leasePath("stale")); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale lease survived sweep")
	}
	if _, err := os.Stat(m.leasePath("fresh")); err != nil {
		t.Errorf("fresh lease swept: %v", err)
	}
	cf.Release()
}

// countingRegistry is a minimal Counters for asserting emission.
type countingRegistry struct {
	mu sync.Mutex
	m  map[string]int64
}

func (r *countingRegistry) Add(name string, d int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = map[string]int64{}
	}
	r.m[name] += d
}

func TestCountersEmitted(t *testing.T) {
	dir := t.TempDir()
	reg := &countingRegistry{}
	m := mustOpen(t, dir, "w1", func(c *Config) { c.Counters = reg })
	c, _ := m.Claim("a")
	c.Release()
	c, _ = m.Claim("b")
	m2 := mustOpen(t, dir, "w2", func(c *Config) { c.Counters = reg })
	advance := warpClock(m2)
	sight(t, m2, "b")
	advance(m2.TTL() + time.Second)
	c2, _ := m2.Claim("b")
	if !c2.Reclaimed {
		t.Fatal("setup: reclaim failed")
	}
	c2.Release()

	reg.mu.Lock()
	defer reg.mu.Unlock()
	want := map[string]int64{"lease.acquired": 2, "lease.released": 2, "lease.reclaimed": 1}
	for k, v := range want {
		if reg.m[k] != v {
			t.Errorf("counter %s = %d, want %d", k, reg.m[k], v)
		}
	}
}

// TestRenewBumpsSeq: every renewal rewrites the record with a larger sequence
// number — the signal observers use to tell a live holder from a dead one.
func TestRenewBumpsSeq(t *testing.T) {
	m := mustOpen(t, t.TempDir(), "w1")
	c, _ := m.Claim("k")
	if c.State != StateAcquired {
		t.Fatal("setup")
	}
	rec0, _, ok := m.readLease("k")
	if !ok || rec0.Seq == 0 {
		t.Fatalf("initial record = %+v ok=%v", rec0, ok)
	}
	for i := 0; i < 3; i++ {
		if err := c.Renew(); err != nil {
			t.Fatalf("Renew %d: %v", i, err)
		}
		rec, _, ok := m.readLease("k")
		if !ok {
			t.Fatalf("record unreadable after renew %d", i)
		}
		if rec.Seq <= rec0.Seq {
			t.Fatalf("renew %d: seq %d did not advance past %d", i, rec.Seq, rec0.Seq)
		}
		if rec.Owner != "w1" || rec.Attempt != rec0.Attempt {
			t.Fatalf("renew %d mutated identity: %+v", i, rec)
		}
		rec0 = rec
	}
	c.Release()
}

// TestLazyTimestampSafety: on a filesystem that never updates mtimes (the
// record looks ancient forever), a holder whose sequence numbers keep
// advancing must never be reclaimed. This is the hole mtime-based liveness
// had and the reason liveness now watches (owner, seq) pairs.
func TestLazyTimestampSafety(t *testing.T) {
	dir := t.TempDir()
	m1 := mustOpen(t, dir, "w1", func(c *Config) { c.TTL = 400 * time.Millisecond })
	m2 := mustOpen(t, dir, "w2", func(c *Config) { c.TTL = 400 * time.Millisecond })
	c1, _ := m1.Claim("k")
	if c1.State != StateAcquired {
		t.Fatal("setup")
	}
	// Renew, then sabotage the mtime, simulating a filesystem with lazy (or
	// frozen) timestamps, while a peer keeps trying to claim.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := c1.Renew(); err != nil {
			t.Fatalf("holder renew: %v", err)
		}
		past := time.Now().Add(-time.Hour)
		if err := os.Chtimes(m1.leasePath("k"), past, past); err != nil {
			t.Fatal(err)
		}
		c2, err := m2.Claim("k")
		if err != nil {
			t.Fatalf("peer claim: %v", err)
		}
		if c2.State != StateBusy {
			t.Fatalf("peer claim = %+v, want busy: ancient mtime must not outrank advancing seq", c2)
		}
		time.Sleep(50 * time.Millisecond)
	}
	c1.Release()
	if c1.Lost() {
		t.Error("holder lost lease despite continuous heartbeat")
	}
}

// TestLegacySeqlessLeaseMtimeFallback: lease records written before sequence
// numbers existed (PR 8 cache dirs) carry no seq field; liveness for those
// falls back to the mtime hint so old campaigns still resume.
func TestLegacySeqlessLeaseMtimeFallback(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, dir, "w1")
	legacy, _ := json.Marshal(record{Schema: testSchema, Key: "k", Owner: "ghost", Attempt: 2})
	if strings.Contains(string(legacy), "seq") {
		t.Fatalf("legacy record marshals a seq field: %s", legacy)
	}
	if err := os.WriteFile(m.leasePath("k"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	// Fresh legacy lease: busy, holder reported.
	c, err := m.Claim("k")
	if err != nil || c.State != StateBusy || c.Holder != "ghost" {
		t.Fatalf("fresh legacy claim = %+v, %v, want busy held by ghost", c, err)
	}
	// Aged legacy lease: reclaimable by mtime alone, attempts inherited.
	age(t, m, "k", m.TTL()+time.Second)
	c, err = m.Claim("k")
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateAcquired || !c.Reclaimed || c.Attempt != 3 {
		t.Fatalf("stale legacy claim = %+v, want acquired attempt 3 reclaimed", c)
	}
	c.Release()
}

func TestStatsMatchCounters(t *testing.T) {
	m := mustOpen(t, t.TempDir(), "w1")
	c, _ := m.Claim("x")
	c.Release()
	st := m.Stats()
	if st.Acquired != 1 || st.Released != 1 || st.Reclaimed != 0 || st.Lost != 0 || st.Poisoned != 0 {
		t.Errorf("stats = %+v", st)
	}
}
