// Package conformancetest is the executable contract of the cachestore
// backends: one suite of behavioral tests that fsstore and httpstore must
// both pass. Each backend's own test file supplies a Harness factory; the
// suite drives the backend exclusively through the cachestore interfaces,
// so anything it asserts is a property campaigns can rely on no matter which
// backend a driver wires in — and any future backend starts from the same
// bar.
//
// The suite covers the invariants the runner leans on: put/get round-trips
// return the published result bytes in json.Marshal's form (compact and
// HTML-escaped, which is how the runner produces them); corruption is
// detected on read and quarantined out of the entry namespace; concurrent
// claimants on one key are arbitrated to a single holder; renewal keeps a
// lease alive past its TTL while silence forfeits it; reclaim hands the key
// to a peer with the attempt lineage intact; the attempt budget converts a
// crash-looping trial into a poison verdict peers inherit; and racing
// publishers of one key converge on a single verified entry.
package conformancetest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gurita/internal/cachestore"
)

// Full is the complete backend surface: all three cachestore interfaces on
// one handle.
type Full interface {
	cachestore.Store
	cachestore.LeaseStore
	cachestore.ManifestStore
}

// Harness adapts one backend instance to the suite.
type Harness struct {
	// Open returns owner's handle on the backing store. Every call shares
	// one backing store (the analogue of one cache directory / one daemon);
	// distinct owners are distinct lease identities.
	Open func(t *testing.T, owner string) Full
	// Corrupt damages the stored envelope for key in place, bypassing the
	// API — disk scribbling for fsstore, a write into the daemon's cache dir
	// for httpstore. nil skips the corruption
	// subtest (no backend should need to).
	Corrupt func(t *testing.T, key string)
	// TTL is the lease TTL the backing store is configured with. Without
	// Advance the suite sleeps multiples of it; keep it a few hundred
	// milliseconds.
	TTL time.Duration
	// Advance, when non-nil, moves the clock every handle judges lease
	// staleness by, and the suite advances it instead of sleeping. Backends
	// whose expiry runs on a clock the test cannot reach (the daemon's)
	// leave it nil.
	Advance func(d time.Duration)
	// MaxAttempts is the configured claim-attempt budget. The poison-budget
	// subtest needs it to be 2.
	MaxAttempts int
}

// specFor builds the i-th test spec and its key under the store's schema.
func specFor(t *testing.T, s cachestore.Store, i int) (json.RawMessage, string) {
	t.Helper()
	spec := json.RawMessage(fmt.Sprintf(`{"trial":%d,"suite":"conformance"}`, i))
	key, err := cachestore.Key(s.Schema(), spec)
	if err != nil {
		t.Fatalf("keying spec: %v", err)
	}
	return spec, key
}

// wait lets d of lease time pass: advanced when the harness can, slept
// otherwise.
func (h *Harness) wait(d time.Duration) {
	if h.Advance != nil {
		h.Advance(d)
		return
	}
	time.Sleep(d)
}

// expire lets enough lease time pass that an unrenewed lease claimed just
// before the call is reclaimable by a peer that has already observed it.
func (h *Harness) expire() { h.wait(h.TTL + h.TTL/2) }

// Run exercises the backend contract. factory is invoked once per subtest,
// so every subtest starts from an empty backing store.
func Run(t *testing.T, factory func(t *testing.T) *Harness) {
	ctx := context.Background()

	t.Run("RoundTrip", func(t *testing.T) {
		h := factory(t)
		s := h.Open(t, "w1")
		// Each result is Put as given and served back in json.Marshal's
		// form: compact and HTML-escaped. The first is already in that form;
		// the others hold a raw <, &, > and U+2028, which the stored envelope
		// escapes, so Put must hash what the envelope holds.
		for i, c := range []struct{ put, want string }{
			{`{"metric":42,"rows":[1,2,3]}`, `{"metric":42,"rows":[1,2,3]}`},
			{`{"cmp": "a<b"}`, `{"cmp":"a\u003cb"}`},
			{`{"and":"x&y","gt":">"}`, `{"and":"x\u0026y","gt":"\u003e"}`},
			{"{\"sep\":\"\u2028\"}", `{"sep":"\u2028"}`},
		} {
			spec, key := specFor(t, s, 1+i)
			result := json.RawMessage(c.put)

			if _, ok := s.Get(ctx, key); ok {
				t.Fatalf("Get before Put reported a hit")
			}
			if s.Stat(ctx, key) {
				t.Fatalf("Stat before Put reported an entry")
			}
			if err := s.Put(ctx, key, spec, result); err != nil {
				t.Fatalf("Put %s: %v", result, err)
			}
			got, ok := s.Get(ctx, key)
			if !ok {
				t.Fatalf("Get after Put of %s missed", result)
			}
			if string(got) != c.want {
				t.Fatalf("Get returned %s, want the published bytes %s", got, c.want)
			}
			if !s.Stat(ctx, key) {
				t.Fatalf("Stat after Put reported no entry")
			}
			if n := s.Len(ctx); n != 1+i {
				t.Fatalf("Len = %d after %d Puts, want %d", n, 1+i, 1+i)
			}
		}
	})

	t.Run("ExactlyOncePublish", func(t *testing.T) {
		h := factory(t)
		s := h.Open(t, "w1")
		spec, key := specFor(t, s, 2)
		result := json.RawMessage(`{"metric":7}`)

		// Racing publishers of one key are the takeover-race reality of
		// multi-process campaigns; all of them write byte-identical
		// envelopes, and the store must converge on one verified entry.
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				errs[slot] = s.Put(ctx, key, spec, result)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("racing Put %d: %v", i, err)
			}
		}
		got, ok := s.Get(ctx, key)
		if !ok {
			t.Fatalf("Get after racing Puts missed")
		}
		if !bytes.Equal(got, result) {
			t.Fatalf("Get returned %s after racing Puts, want %s", got, result)
		}
		if n := s.Len(ctx); n != 1 {
			t.Fatalf("Len = %d after racing Puts of one key, want 1", n)
		}
	})

	t.Run("CorruptionQuarantine", func(t *testing.T) {
		h := factory(t)
		if h.Corrupt == nil {
			t.Fatalf("harness provides no Corrupt hook")
		}
		s := h.Open(t, "w1")
		spec, key := specFor(t, s, 3)
		result := json.RawMessage(`{"metric":9}`)
		if err := s.Put(ctx, key, spec, result); err != nil {
			t.Fatalf("Put: %v", err)
		}
		h.Corrupt(t, key)
		if _, ok := s.Get(ctx, key); ok {
			t.Fatalf("Get returned a result from a corrupted entry")
		}
		// Quarantine removes the entry from the primary namespace: the next
		// reader re-executes instead of tripping on the same corruption.
		if s.Stat(ctx, key) {
			t.Fatalf("corrupted entry still visible after quarantining Get")
		}
		// Republishing heals the key.
		if err := s.Put(ctx, key, spec, result); err != nil {
			t.Fatalf("Put after quarantine: %v", err)
		}
		if got, ok := s.Get(ctx, key); !ok || !bytes.Equal(got, result) {
			t.Fatalf("Get after republish = (%s, %v), want the healed entry", got, ok)
		}
	})

	t.Run("ClaimArbitration", func(t *testing.T) {
		h := factory(t)
		handles := make([]Full, 4)
		for i := range handles {
			handles[i] = h.Open(t, fmt.Sprintf("w%d", i+1))
		}
		_, key := specFor(t, handles[0], 4)

		var wg sync.WaitGroup
		leases := make([]cachestore.Lease, len(handles))
		errs := make([]error, len(handles))
		for i, s := range handles {
			wg.Add(1)
			go func(slot int, s Full) {
				defer wg.Done()
				leases[slot], errs[slot] = s.Claim(ctx, key)
			}(i, s)
		}
		wg.Wait()
		holders := 0
		for i := range handles {
			if errs[i] != nil {
				t.Fatalf("claim %d: %v", i, errs[i])
			}
			switch leases[i].State {
			case cachestore.LeaseAcquired:
				holders++
				if leases[i].Attempt != 1 || leases[i].Reclaimed {
					t.Fatalf("winner's lease = %+v, want attempt 1, not reclaimed", leases[i])
				}
			case cachestore.LeaseBusy:
			default:
				t.Fatalf("claim %d resolved to state %v", i, leases[i].State)
			}
		}
		if holders != 1 {
			t.Fatalf("%d concurrent claimants acquired the lease, want exactly 1", holders)
		}
	})

	t.Run("BusyThenRelease", func(t *testing.T) {
		h := factory(t)
		a, b := h.Open(t, "alice"), h.Open(t, "bob")
		_, key := specFor(t, a, 5)

		la, err := a.Claim(ctx, key)
		if err != nil || la.State != cachestore.LeaseAcquired {
			t.Fatalf("alice claim = (%+v, %v), want acquired", la, err)
		}
		lb, err := b.Claim(ctx, key)
		if err != nil {
			t.Fatalf("bob claim: %v", err)
		}
		if lb.State != cachestore.LeaseBusy {
			t.Fatalf("bob's claim against a live lease = %+v, want busy", lb)
		}
		if lb.Holder != "alice" {
			t.Fatalf("busy lease names holder %q, want alice", lb.Holder)
		}
		if lb.Remaining <= 0 {
			t.Fatalf("busy lease reports remaining %v, want > 0", lb.Remaining)
		}
		a.Release(ctx, key)
		lb, err = b.Claim(ctx, key)
		if err != nil || lb.State != cachestore.LeaseAcquired {
			t.Fatalf("bob claim after release = (%+v, %v), want acquired", lb, err)
		}
		if lb.Attempt != 1 || lb.Reclaimed {
			t.Fatalf("post-release lease = %+v, want a fresh attempt-1 acquisition", lb)
		}
	})

	t.Run("RenewKeepsAlive", func(t *testing.T) {
		h := factory(t)
		a, b := h.Open(t, "alice"), h.Open(t, "bob")
		_, key := specFor(t, a, 6)

		if la, err := a.Claim(ctx, key); err != nil || la.State != cachestore.LeaseAcquired {
			t.Fatalf("alice claim = (%+v, %v), want acquired", la, err)
		}
		// Renew every TTL/5 for three TTLs; bob must never win the key.
		for i := 0; i < 15; i++ {
			h.wait(h.TTL / 5)
			if err := a.Renew(ctx, key); err != nil {
				t.Fatalf("renewal of a held lease failed: %v", err)
			}
			lb, err := b.Claim(ctx, key)
			if err != nil {
				t.Fatalf("bob claim: %v", err)
			}
			if lb.State != cachestore.LeaseBusy {
				t.Fatalf("bob won a renewed lease: %+v", lb)
			}
		}
		a.Release(ctx, key)
		if lb, err := b.Claim(ctx, key); err != nil || lb.State != cachestore.LeaseAcquired {
			t.Fatalf("bob claim after release = (%+v, %v), want acquired", lb, err)
		}
	})

	t.Run("ReclaimAfterExpiry", func(t *testing.T) {
		h := factory(t)
		a, b := h.Open(t, "alice"), h.Open(t, "bob")
		_, key := specFor(t, a, 7)

		if la, err := a.Claim(ctx, key); err != nil || la.State != cachestore.LeaseAcquired {
			t.Fatalf("alice claim = (%+v, %v), want acquired", la, err)
		}
		// Bob sights the lease (backends that judge staleness on the
		// observer's clock start their watch here), then alice goes silent.
		if lb, err := b.Claim(ctx, key); err != nil || lb.State != cachestore.LeaseBusy {
			t.Fatalf("bob's sighting claim = (%+v, %v), want busy", lb, err)
		}
		h.expire()
		lb, err := b.Claim(ctx, key)
		if err != nil {
			t.Fatalf("bob reclaim: %v", err)
		}
		if lb.State != cachestore.LeaseAcquired || !lb.Reclaimed || lb.Attempt != 2 {
			t.Fatalf("bob's claim on an expired lease = %+v, want reclaimed attempt 2", lb)
		}
		// The usurped holder must learn it is dead to the protocol.
		if err := a.Renew(ctx, key); !errors.Is(err, cachestore.ErrLeaseLost) {
			t.Fatalf("alice's renewal after takeover = %v, want ErrLeaseLost", err)
		}
		if got := a.LeaseStats().Lost; got < 1 {
			t.Fatalf("alice's lost-lease stat = %d after takeover, want >= 1", got)
		}
		// Bob's lease survives alice's stale release attempt.
		a.Release(ctx, key)
		if err := b.Renew(ctx, key); err != nil {
			t.Fatalf("bob's renewal after alice's stale release: %v", err)
		}
	})

	t.Run("PoisonExplicit", func(t *testing.T) {
		h := factory(t)
		a, b := h.Open(t, "alice"), h.Open(t, "bob")
		_, key := specFor(t, a, 8)

		if la, err := a.Claim(ctx, key); err != nil || la.State != cachestore.LeaseAcquired {
			t.Fatalf("alice claim = (%+v, %v), want acquired", la, err)
		}
		cause := errors.New("deterministic divide by zero")
		if err := a.PoisonKey(ctx, key, "abcd1234", 3, cause); err != nil {
			t.Fatalf("PoisonKey: %v", err)
		}
		lb, err := b.Claim(ctx, key)
		if err != nil {
			t.Fatalf("bob claim: %v", err)
		}
		if lb.State != cachestore.LeasePoisoned || lb.Poison == nil {
			t.Fatalf("claim on a poisoned trial = %+v, want poisoned with a record", lb)
		}
		p := lb.Poison
		if p.SpecHash != "abcd1234" || p.Attempts != 3 {
			t.Fatalf("poison record = %+v, want specHash abcd1234 attempts 3", p)
		}
		if p.Err == "" {
			t.Fatalf("poison record carries no cause")
		}
	})

	t.Run("PoisonAfterBudget", func(t *testing.T) {
		h := factory(t)
		if h.MaxAttempts != 2 {
			t.Fatalf("harness MaxAttempts = %d, suite needs 2", h.MaxAttempts)
		}
		a, b := h.Open(t, "alice"), h.Open(t, "bob")
		_, key := specFor(t, a, 9)

		// Attempt 1: alice wins and "crashes" (never renews, never releases).
		if la, err := a.Claim(ctx, key); err != nil || la.State != cachestore.LeaseAcquired {
			t.Fatalf("alice claim = (%+v, %v), want acquired", la, err)
		}
		if lb, err := b.Claim(ctx, key); err != nil || lb.State != cachestore.LeaseBusy {
			t.Fatalf("bob's sighting claim = (%+v, %v), want busy", lb, err)
		}
		h.expire()
		// Attempt 2: bob reclaims and crashes the same way.
		if lb, err := b.Claim(ctx, key); err != nil || lb.State != cachestore.LeaseAcquired || lb.Attempt != 2 {
			t.Fatalf("bob reclaim = (%+v, %v), want acquired attempt 2", lb, err)
		}
		if la, err := a.Claim(ctx, key); err != nil || la.State != cachestore.LeaseBusy {
			t.Fatalf("alice's sighting claim = (%+v, %v), want busy", la, err)
		}
		h.expire()
		// Attempt 3 exceeds the budget of 2: the trial is quarantined, not
		// handed out again.
		la, err := a.Claim(ctx, key)
		if err != nil {
			t.Fatalf("alice's over-budget claim: %v", err)
		}
		if la.State != cachestore.LeasePoisoned || la.Poison == nil {
			t.Fatalf("over-budget claim = %+v, want poisoned with a record", la)
		}
		if la.Poison.Attempts != 2 {
			t.Fatalf("crash-loop poison records %d attempts, want 2", la.Poison.Attempts)
		}
		// The verdict is stable: both identities keep reading poison.
		if lb, err := b.Claim(ctx, key); err != nil || lb.State != cachestore.LeasePoisoned {
			t.Fatalf("bob's claim after quarantine = (%+v, %v), want poisoned", lb, err)
		}
	})

	t.Run("Sweep", func(t *testing.T) {
		h := factory(t)
		a, b := h.Open(t, "alice"), h.Open(t, "bob")
		_, key1 := specFor(t, a, 10)
		_, key2 := specFor(t, a, 11)

		if la, err := a.Claim(ctx, key1); err != nil || la.State != cachestore.LeaseAcquired {
			t.Fatalf("alice claim key1 = (%+v, %v), want acquired", la, err)
		}
		if lb, err := b.Claim(ctx, key2); err != nil || lb.State != cachestore.LeaseAcquired {
			t.Fatalf("bob claim key2 = (%+v, %v), want acquired", lb, err)
		}
		// Nothing is stale yet: a sweep over both keys removes nothing, and
		// both leases stay renewable.
		if n := a.Sweep(ctx, []string{key1, key2}); n != 0 {
			t.Fatalf("sweep of live leases removed %d, want 0", n)
		}
		if err := b.Renew(ctx, key2); err != nil {
			t.Fatalf("bob's renewal after a live sweep: %v", err)
		}
		// The renewed lease is live too. This sweep is also the sighting of
		// bob's new (owner, seq) pair that an observer-clock backend needs
		// before it can judge that pair stale.
		if n := a.Sweep(ctx, []string{key1, key2}); n != 0 {
			t.Fatalf("sweep after a renewal removed %d, want 0", n)
		}
		h.expire()
		// Both went silent past the TTL: the sweep reaps them.
		if n := a.Sweep(ctx, []string{key1, key2}); n != 2 {
			t.Fatalf("sweep of expired leases removed %d, want 2", n)
		}
		if lb, err := b.Claim(ctx, key1); err != nil || lb.State != cachestore.LeaseAcquired {
			t.Fatalf("claim after sweep = (%+v, %v), want a fresh acquisition", lb, err)
		}
	})

	t.Run("Manifests", func(t *testing.T) {
		h := factory(t)
		s := h.Open(t, "w1")
		if names, err := s.Manifests(ctx); err != nil || len(names) != 0 {
			t.Fatalf("Manifests on empty store = (%v, %v), want none", names, err)
		}
		if err := s.PutManifest(ctx, "beta-12345678.json", []byte(`{"owner":"beta"}`)); err != nil {
			t.Fatalf("PutManifest: %v", err)
		}
		if err := s.PutManifest(ctx, "alpha-12345678.json", []byte(`{"owner":"alpha"}`)); err != nil {
			t.Fatalf("PutManifest: %v", err)
		}
		names, err := s.Manifests(ctx)
		if err != nil {
			t.Fatalf("Manifests: %v", err)
		}
		want := []string{"alpha-12345678.json", "beta-12345678.json"}
		if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
			t.Fatalf("Manifests = %v, want %v (sorted)", names, want)
		}
		data, ok := s.GetManifest(ctx, "alpha-12345678.json")
		if !ok || !bytes.Equal(data, []byte(`{"owner":"alpha"}`)) {
			t.Fatalf("GetManifest = (%s, %v), want the stored bytes", data, ok)
		}
		// Overwrite is last-write-wins (reruns replace their shard).
		if err := s.PutManifest(ctx, "alpha-12345678.json", []byte(`{"owner":"alpha","v":2}`)); err != nil {
			t.Fatalf("PutManifest overwrite: %v", err)
		}
		data, _ = s.GetManifest(ctx, "alpha-12345678.json")
		if !bytes.Equal(data, []byte(`{"owner":"alpha","v":2}`)) {
			t.Fatalf("GetManifest after overwrite = %s", data)
		}
		if _, ok := s.GetManifest(ctx, "never-written.json"); ok {
			t.Fatalf("GetManifest invented a shard")
		}
	})
}
