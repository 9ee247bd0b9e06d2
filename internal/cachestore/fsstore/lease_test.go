package fsstore_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
)

const testSchema = "lease-test-v1"

var bg = context.Background()

// openLeases opens owner's lease-side handle on dir with a 200ms TTL; mut
// adjusts the config first.
func openLeases(t *testing.T, dir, owner string, mut ...func(*fsstore.Config)) *fsstore.Store {
	t.Helper()
	cfg := fsstore.Config{Dir: dir, Schema: testSchema, Owner: owner, TTL: 200 * time.Millisecond}
	for _, f := range mut {
		f(&cfg)
	}
	s, err := fsstore.OpenStore(cfg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// withClock installs a manual lease clock on s and returns it.
func withClock(s *fsstore.Store) *manualClock {
	c := newManualClock()
	fsstore.SetClock(s, c.Now)
	return c
}

func leaseFile(dir, key string) string {
	return filepath.Join(dir, cachestore.LeaseSubdir, key+".lease")
}

func poisonFile(dir, key string) string {
	return filepath.Join(dir, cachestore.LeaseSubdir, key+".poison")
}

// leaseDoc mirrors the on-disk lease record, so these tests also pin its
// format: files written by older workers (seq-less ones included) must keep
// parsing, and ours must keep parsing for them.
type leaseDoc struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"`
	Owner   string `json:"owner"`
	Attempt int    `json:"attempt"`
	Seq     uint64 `json:"seq,omitempty"`
}

func readLeaseDoc(t *testing.T, dir, key string) (leaseDoc, bool) {
	t.Helper()
	data, err := os.ReadFile(leaseFile(dir, key))
	if err != nil {
		return leaseDoc{}, false
	}
	var d leaseDoc
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("lease file for %s does not parse: %v", key, err)
	}
	return d, true
}

// writeFile plants a file the way a foreign or older worker would have.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// age rewinds a file's mtime. Liveness of seq-carrying records never reads
// mtimes, so this only drives the fallback path (legacy, foreign and torn
// records) and Sweep's published-result rule.
func age(t *testing.T, path string, by time.Duration) {
	t.Helper()
	past := time.Now().Add(-by)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatalf("Chtimes: %v", err)
	}
}

func claim(t *testing.T, s *fsstore.Store, key string) cachestore.Lease {
	t.Helper()
	l, err := s.Claim(bg, key)
	if err != nil {
		t.Fatalf("%s claim %s: %v", s.Owner(), key, err)
	}
	return l
}

// sight performs the first Claim a peer makes against a held lease: the
// sighting that starts its staleness watch. It must come back busy.
func sight(t *testing.T, s *fsstore.Store, key string) {
	t.Helper()
	if l := claim(t, s, key); l.State != cachestore.LeaseBusy {
		t.Fatalf("sighting claim = %+v, want busy", l)
	}
}

func TestOpenValidates(t *testing.T) {
	dir := t.TempDir()
	cases := []fsstore.Config{
		{Owner: "w", Schema: "s"},                // no dir
		{Dir: dir, Owner: "w", Schema: ""},       // no schema
		{Dir: dir, Owner: "a/b", Schema: "s"},    // unsafe owner
		{Dir: dir, Owner: "a\x00b", Schema: "s"}, // unsafe owner
	}
	for i, cfg := range cases {
		if _, err := fsstore.OpenStore(cfg); err == nil {
			t.Errorf("case %d: OpenStore(%+v) succeeded, want error", i, cfg)
		}
	}
	sub := filepath.Join(dir, "sub")
	s := openLeases(t, sub, "w1")
	if s.TTL() != 200*time.Millisecond || s.HeartbeatEvery() != s.TTL()/3 {
		t.Errorf("TTL, heartbeat = %v, %v; want 200ms, TTL/3", s.TTL(), s.HeartbeatEvery())
	}
	if _, err := os.Stat(filepath.Join(sub, cachestore.LeaseSubdir)); err != nil {
		t.Errorf("lease dir not created: %v", err)
	}
	d := openLeases(t, dir, "w2", func(c *fsstore.Config) { c.TTL = 0 })
	if d.TTL() != 5*time.Second {
		t.Errorf("default TTL = %v, want 5s", d.TTL())
	}
}

func TestClaimAcquireReleaseCycle(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	l := claim(t, s, "k1")
	if l.State != cachestore.LeaseAcquired || l.Attempt != 1 || l.Reclaimed {
		t.Fatalf("first claim = %+v, want acquired attempt 1", l)
	}
	// The lease file exists and carries our identity plus a live sequence.
	rec, ok := readLeaseDoc(t, dir, "k1")
	if !ok {
		t.Fatal("lease file missing after acquire")
	}
	if rec.Owner != "w1" || rec.Schema != testSchema || rec.Attempt != 1 {
		t.Fatalf("lease record = %+v", rec)
	}
	if rec.Seq == 0 {
		t.Fatalf("acquired lease has no sequence number: %+v", rec)
	}
	s.Release(bg, "k1")
	if _, err := os.Stat(leaseFile(dir, "k1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease file survives Release: %v", err)
	}
	st := s.LeaseStats()
	if st.Acquired != 1 || st.Released != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Released leases are immediately re-claimable.
	if l := claim(t, s, "k1"); l.State != cachestore.LeaseAcquired {
		t.Fatalf("re-claim after release = %+v", l)
	}
	s.Release(bg, "k1")
}

func TestClaimBusyWhileFresh(t *testing.T) {
	dir := t.TempDir()
	s1, s2 := openLeases(t, dir, "w1"), openLeases(t, dir, "w2")
	acquire(t, s1, "k")
	l := claim(t, s2, "k")
	if l.State != cachestore.LeaseBusy {
		t.Fatalf("w2 claim = %+v, want busy", l)
	}
	if l.Holder != "w1" {
		t.Errorf("holder = %q, want w1", l.Holder)
	}
	if l.Remaining <= 0 || l.Remaining > s2.TTL() {
		t.Errorf("remaining = %v, want within (0, TTL]", l.Remaining)
	}
	s1.Release(bg, "k")
}

func TestReclaimStaleLease(t *testing.T) {
	dir := t.TempDir()
	s1, s2 := openLeases(t, dir, "w1"), openLeases(t, dir, "w2")
	clock := withClock(s2)
	acquire(t, s1, "k")
	// w1 "dies": no renewals. w2 sights the lease, then watches the same
	// (owner, seq) pair sit unchanged past the TTL of its own clock.
	sight(t, s2, "k")
	clock.Advance(s2.TTL() + time.Second)
	l := claim(t, s2, "k")
	if l.State != cachestore.LeaseAcquired || !l.Reclaimed || l.Attempt != 2 {
		t.Fatalf("reclaim = %+v, want acquired attempt 2 reclaimed", l)
	}
	if rec, ok := readLeaseDoc(t, dir, "k"); !ok || rec.Owner != "w2" || rec.Attempt != 2 {
		t.Fatalf("post-reclaim record = %+v", rec)
	}
	if got := s2.LeaseStats().Reclaimed; got != 1 {
		t.Errorf("reclaimed stat = %d", got)
	}
	s2.Release(bg, "k")
}

func TestReclaimUnparsableLease(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	writeFile(t, leaseFile(dir, "k"), []byte("{torn"))
	age(t, leaseFile(dir, "k"), s.TTL()+time.Second)
	// One unknown prior attempt assumed.
	if l := claim(t, s, "k"); l.State != cachestore.LeaseAcquired || l.Attempt != 2 {
		t.Fatalf("claim = %+v, want acquired attempt 2", l)
	}
	s.Release(bg, "k")
}

func TestForeignSchemaLeaseReclaimableWhenStale(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	old, _ := json.Marshal(leaseDoc{Schema: "other-schema", Key: "k", Owner: "ghost", Attempt: 4})
	writeFile(t, leaseFile(dir, "k"), old)
	// Fresh foreign lease: still busy (mtime rules).
	if l := claim(t, s, "k"); l.State != cachestore.LeaseBusy {
		t.Fatalf("fresh foreign lease claim = %+v, want busy", l)
	}
	age(t, leaseFile(dir, "k"), s.TTL()+time.Second)
	// Foreign attempts don't count toward our budget: restart at 2.
	if l := claim(t, s, "k"); l.State != cachestore.LeaseAcquired || l.Attempt != 2 {
		t.Fatalf("stale foreign lease claim = %+v, want acquired attempt 2", l)
	}
	s.Release(bg, "k")
}

func TestPoisonAfterMaxAttempts(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1", func(c *fsstore.Config) { c.MaxAttempts = 3 })
	clock := withClock(s)
	// Simulate a crash loop: claim, watch the seq go silent, reclaim, never
	// release. Each cycle needs a sighting plus a TTL of observed silence.
	acquire(t, s, "k")
	for want := 2; want <= 3; want++ {
		sight(t, s, "k")
		clock.Advance(s.TTL() + time.Second)
		if l := claim(t, s, "k"); l.State != cachestore.LeaseAcquired || l.Attempt != want {
			t.Fatalf("attempt %d claim = %+v", want, l)
		}
	}
	sight(t, s, "k")
	clock.Advance(s.TTL() + time.Second)
	l := claim(t, s, "k")
	if l.State != cachestore.LeasePoisoned {
		t.Fatalf("claim after budget = %+v, want poisoned", l)
	}
	if l.Poison == nil || l.Poison.Attempts != 3 {
		t.Fatalf("poison record = %+v", l.Poison)
	}
	// Lease file is gone; poison marker persists across stores.
	if _, err := os.Stat(leaseFile(dir, "k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease file survives poisoning: %v", err)
	}
	if l := claim(t, openLeases(t, dir, "w2"), "k"); l.State != cachestore.LeasePoisoned {
		t.Fatalf("peer claim of poisoned trial = %+v", l)
	}
}

func TestPoisonTrialExplicit(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	acquire(t, s, "k")
	if err := s.PoisonKey(bg, "k", "abcd1234", 3, errors.New("deterministic trial failure")); err != nil {
		t.Fatalf("PoisonKey: %v", err)
	}
	l := claim(t, s, "k")
	if l.State != cachestore.LeasePoisoned {
		t.Fatalf("claim after explicit poison = %+v", l)
	}
	if l.Poison.SpecHash != "abcd1234" || l.Poison.Attempts != 3 {
		t.Fatalf("poison record = %+v", l.Poison)
	}
	if !strings.Contains(l.Poison.Err, "deterministic trial failure") {
		t.Errorf("poison err = %q", l.Poison.Err)
	}
	if _, err := os.Stat(leaseFile(dir, "k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("lease survives PoisonKey: %v", err)
	}
}

func TestForeignSchemaPoisonIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	old, _ := json.Marshal(cachestore.Poison{Schema: "other", Key: "k", Attempts: 9, Err: "ancient"})
	writeFile(t, poisonFile(dir, "k"), old)
	if l := claim(t, s, "k"); l.State != cachestore.LeaseAcquired {
		t.Fatalf("claim with foreign poison = %+v, want acquired", l)
	}
	if _, err := os.Stat(poisonFile(dir, "k")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("foreign poison marker not cleaned up: %v", err)
	}
	s.Release(bg, "k")
}

func TestHeartbeatDetectsTakeover(t *testing.T) {
	dir := t.TempDir()
	tenSeconds := func(c *fsstore.Config) { c.TTL = 10 * time.Second }
	s1, s2 := openLeases(t, dir, "w1", tenSeconds), openLeases(t, dir, "w2", tenSeconds)
	acquire(t, s1, "k")
	// From the peer's point of view w1 is SIGSTOPped: it sights the lease,
	// the (owner, seq) pair never changes, and a TTL later it reclaims.
	clock := withClock(s2)
	sight(t, s2, "k")
	clock.Advance(11 * time.Second)
	if l := claim(t, s2, "k"); l.State != cachestore.LeaseAcquired || !l.Reclaimed {
		t.Fatalf("forced reclaim = %+v", l)
	}
	// w1's next renewal must discover the takeover without touching the
	// usurper's lease.
	if err := s1.Renew(bg, "k"); !errors.Is(err, cachestore.ErrLeaseLost) {
		t.Fatalf("Renew after takeover = %v, want ErrLeaseLost", err)
	}
	// A second renewal short-circuits without side effects.
	if err := s1.Renew(bg, "k"); !errors.Is(err, cachestore.ErrLeaseLost) {
		t.Fatalf("second Renew = %v, want ErrLeaseLost", err)
	}
	if rec, ok := readLeaseDoc(t, dir, "k"); !ok || rec.Owner != "w2" {
		t.Fatalf("usurper lease disturbed: %+v ok=%v", rec, ok)
	}
	// Release of a lost lease must not remove the usurper's lease.
	s1.Release(bg, "k")
	if _, ok := readLeaseDoc(t, dir, "k"); !ok {
		t.Fatal("lost lease's Release removed the usurper's lease")
	}
	if got := s1.LeaseStats().Lost; got != 1 {
		t.Errorf("lost stat = %d, want 1 (loss counted once)", got)
	}
	s2.Release(bg, "k")
}

func TestConcurrentClaimSingleWinner(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*fsstore.Store, 8)
	for i := range stores {
		stores[i] = openLeases(t, dir, fmt.Sprintf("w%d", i))
	}
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("k%d", round)
		var mu sync.Mutex
		var winners []*fsstore.Store
		var wg sync.WaitGroup
		for _, s := range stores {
			wg.Add(1)
			go func(s *fsstore.Store) {
				defer wg.Done()
				l, err := s.Claim(bg, key)
				if err != nil {
					t.Errorf("Claim: %v", err)
					return
				}
				if l.State == cachestore.LeaseAcquired {
					mu.Lock()
					winners = append(winners, s)
					mu.Unlock()
				}
			}(s)
		}
		wg.Wait()
		if len(winners) != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1 (O_EXCL arbitration)", round, len(winners))
		}
		winners[0].Release(bg, key)
	}
}

func TestSweepRemovesOnlyStaleLeases(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	clock := withClock(s)
	acquire(t, s, "stale")
	acquire(t, s, "fresh")
	// The first sweep sights both leases and removes neither.
	if n := s.Sweep(bg, []string{"stale", "fresh", "absent"}); n != 0 {
		t.Fatalf("first Sweep removed %d, want 0", n)
	}
	if err := s.Renew(bg, "fresh"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(s.TTL() + time.Second)
	if n := s.Sweep(bg, []string{"stale", "fresh", "absent"}); n != 1 {
		t.Fatalf("Sweep removed %d, want 1", n)
	}
	if _, err := os.Stat(leaseFile(dir, "stale")); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale lease survived sweep")
	}
	if _, err := os.Stat(leaseFile(dir, "fresh")); err != nil {
		t.Errorf("fresh lease swept: %v", err)
	}
	s.Release(bg, "fresh")
}

// TestSweepKeepsLiveLeaseWithOldMtime: a live, unpublished lease is never
// judged by its mtime. An old mtime is what a stalled fsync or a lazy
// filesystem timestamp looks like; before Sweep shared Claim's liveness rule
// it reaped such a lease from under its holder.
func TestSweepKeepsLiveLeaseWithOldMtime(t *testing.T) {
	dir, key := t.TempDir(), hbKey(t)
	s := openLeases(t, dir, "w1")
	acquire(t, s, key)
	age(t, leaseFile(dir, key), 2*s.TTL())
	if n := s.Sweep(bg, []string{key}); n != 0 {
		t.Fatalf("Sweep removed %d live leases, want 0", n)
	}
	if err := s.Renew(bg, key); err != nil {
		t.Fatalf("renewal after the sweep: %v", err)
	}
	s.Release(bg, key)
}

// TestSweepRemovesPublishedUnreleasedLease: a worker that died between
// publishing and releasing leaves a lease that guards nothing. Once its file
// has not been rewritten for a TTL, Sweep removes it, even though this
// store never sighted it long enough to reclaim.
func TestSweepRemovesPublishedUnreleasedLease(t *testing.T) {
	dir, key := t.TempDir(), hbKey(t)
	s := openLeases(t, dir, "w1")
	acquire(t, s, key)
	if err := s.Put(bg, key, json.RawMessage(`"trial"`), json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	// Published but recently written: a live duplicate may still hold it.
	if n := s.Sweep(bg, []string{key}); n != 0 {
		t.Fatalf("Sweep removed %d fresh leases, want 0", n)
	}
	age(t, leaseFile(dir, key), 2*s.TTL())
	if n := s.Sweep(bg, []string{key}); n != 1 {
		t.Fatalf("Sweep removed %d published leases, want 1", n)
	}
	if _, err := os.Stat(leaseFile(dir, key)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("published lease survived sweep: %v", err)
	}
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

func (r *countingRegistry) get(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[name]
}

func TestCountersEmitted(t *testing.T) {
	dir := t.TempDir()
	reg := &countingRegistry{}
	counted := func(c *fsstore.Config) { c.Counters = reg }
	s1 := openLeases(t, dir, "w1", counted)
	acquire(t, s1, "a")
	s1.Release(bg, "a")
	acquire(t, s1, "b")
	s2 := openLeases(t, dir, "w2", counted)
	clock := withClock(s2)
	sight(t, s2, "b")
	clock.Advance(s2.TTL() + time.Second)
	if l := claim(t, s2, "b"); !l.Reclaimed {
		t.Fatalf("setup: reclaim failed: %+v", l)
	}
	s2.Release(bg, "b")

	want := map[string]int64{"lease.acquired": 2, "lease.released": 2, "lease.reclaimed": 1}
	for k, v := range want {
		if got := reg.get(k); got != v {
			t.Errorf("counter %s = %d, want %d", k, got, v)
		}
	}
}

// TestRenewBumpsSeq: every renewal rewrites the record with a larger sequence
// number — the signal observers use to tell a live holder from a dead one.
func TestRenewBumpsSeq(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	acquire(t, s, "k")
	rec0, ok := readLeaseDoc(t, dir, "k")
	if !ok || rec0.Seq == 0 {
		t.Fatalf("initial record = %+v ok=%v", rec0, ok)
	}
	for i := 0; i < 3; i++ {
		if err := s.Renew(bg, "k"); err != nil {
			t.Fatalf("Renew %d: %v", i, err)
		}
		rec, ok := readLeaseDoc(t, dir, "k")
		if !ok {
			t.Fatalf("record missing after renew %d", i)
		}
		if rec.Seq <= rec0.Seq {
			t.Fatalf("renew %d: seq %d did not advance past %d", i, rec.Seq, rec0.Seq)
		}
		if rec.Owner != "w1" || rec.Attempt != rec0.Attempt {
			t.Fatalf("renew %d mutated identity: %+v", i, rec)
		}
		rec0 = rec
	}
	s.Release(bg, "k")
}

// TestLazyTimestampSafety: on a filesystem that never updates mtimes (the
// record looks ancient forever), a holder whose sequence numbers keep
// advancing must never be reclaimed. This is the hole mtime-based liveness
// had and the reason liveness watches (owner, seq) pairs.
func TestLazyTimestampSafety(t *testing.T) {
	dir := t.TempDir()
	s1, s2 := openLeases(t, dir, "w1"), openLeases(t, dir, "w2")
	clock := withClock(s2)
	acquire(t, s1, "k")
	// Renew every TTL/4 for three TTLs of the peer's clock, sabotaging the
	// mtime after each renewal, while the peer keeps trying to claim.
	for i := 0; i < 12; i++ {
		if err := s1.Renew(bg, "k"); err != nil {
			t.Fatalf("holder renew: %v", err)
		}
		age(t, leaseFile(dir, "k"), time.Hour)
		if l := claim(t, s2, "k"); l.State != cachestore.LeaseBusy {
			t.Fatalf("peer claim = %+v, want busy: ancient mtime must not outrank advancing seq", l)
		}
		clock.Advance(s2.TTL() / 4)
	}
	s1.Release(bg, "k")
	if s1.LeaseStats().Lost != 0 {
		t.Error("holder lost lease despite continuous heartbeat")
	}
}

// TestLegacySeqlessLeaseMtimeFallback: lease records written before sequence
// numbers existed (PR 8 cache dirs) carry no seq field; liveness for those
// falls back to the mtime so old campaigns still resume.
func TestLegacySeqlessLeaseMtimeFallback(t *testing.T) {
	dir := t.TempDir()
	s := openLeases(t, dir, "w1")
	legacy, _ := json.Marshal(leaseDoc{Schema: testSchema, Key: "k", Owner: "ghost", Attempt: 2})
	if strings.Contains(string(legacy), "seq") {
		t.Fatalf("legacy record marshals a seq field: %s", legacy)
	}
	writeFile(t, leaseFile(dir, "k"), legacy)
	// Fresh legacy lease: busy, holder reported.
	if l := claim(t, s, "k"); l.State != cachestore.LeaseBusy || l.Holder != "ghost" {
		t.Fatalf("fresh legacy claim = %+v, want busy held by ghost", l)
	}
	// Aged legacy lease: reclaimable by mtime alone, attempts inherited.
	age(t, leaseFile(dir, "k"), s.TTL()+time.Second)
	if l := claim(t, s, "k"); l.State != cachestore.LeaseAcquired || !l.Reclaimed || l.Attempt != 3 {
		t.Fatalf("stale legacy claim = %+v, want acquired attempt 3 reclaimed", l)
	}
	s.Release(bg, "k")
}

// TestStatsMatchCounters: LeaseStats and the lease.* counters tell the same
// story, a lost lease included.
func TestStatsMatchCounters(t *testing.T) {
	dir := t.TempDir()
	reg := &countingRegistry{}
	s1 := openLeases(t, dir, "w1", func(c *fsstore.Config) { c.Counters = reg })
	acquire(t, s1, "x")
	s1.Release(bg, "x")
	acquire(t, s1, "y")
	s2 := openLeases(t, dir, "w2")
	clock := withClock(s2)
	sight(t, s2, "y")
	clock.Advance(s2.TTL() + time.Second)
	claim(t, s2, "y")
	s1.Release(bg, "y") // finds w2's record: lost, not released

	st := s1.LeaseStats()
	if st != (cachestore.LeaseStats{Acquired: 2, Released: 1, Lost: 1}) {
		t.Errorf("stats = %+v, want 2 acquired, 1 released, 1 lost", st)
	}
	for name, v := range map[string]int64{
		"lease.acquired": st.Acquired, "lease.reclaimed": st.Reclaimed, "lease.lost": st.Lost,
		"lease.released": st.Released, "lease.poisoned": st.Poisoned,
	} {
		if got := reg.get(name); got != v {
			t.Errorf("counter %s = %d, stats say %d", name, got, v)
		}
	}
	s2.Release(bg, "y")
}

// BenchmarkLeaseClaim measures the uncontended Claim+Release cycle — the
// cost lease mode adds to every *executed* trial (warm-cache trials never
// reach the lease side). Pinned in BENCH_baseline.json.
func BenchmarkLeaseClaim(b *testing.B) {
	s, err := fsstore.OpenStore(fsstore.Config{Dir: b.TempDir(), Schema: "bench-v1", Owner: "bench", TTL: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("%016x", i)
		l, err := s.Claim(bg, key)
		if err != nil {
			b.Fatal(err)
		}
		if l.State != cachestore.LeaseAcquired {
			b.Fatalf("state = %v", l.State)
		}
		s.Release(bg, key)
	}
}
