package fsstore

// The lease side of Store coordinates trial execution across worker
// processes that share nothing but the cache directory: crash-safe lease
// files make "who is executing this trial" a property of the filesystem, so
// a SIGKILLed worker loses its claims instead of taking them to the grave.
//
// The protocol is deliberately primitive — no daemon, no network, no clock
// service — because the campaign layer above it is idempotent: every trial
// is a pure function of its spec, results are published by atomic rename
// into the content-addressed cache, and two workers that accidentally
// execute the same trial publish byte-identical files. Leases therefore only
// have to make duplicate execution *rare*, never impossible. See DESIGN.md
// §15 for the full argument.
//
// One lease is one file, leases/<key>.lease, created with O_CREATE|O_EXCL so
// the filesystem arbitrates the initial race, written with the owner id and
// schema stamp, fsynced, and heartbeated by atomically rewriting the record
// with a bumped monotonic sequence number. Liveness is judged logically, not
// by mtime: an observer records the (owner, seq) pair it sees and presumes
// the holder dead only after watching that pair stay unchanged for a full
// TTL of its own clock — so filesystems with lazy, cached, or coarse
// timestamps cannot make a live worker look dead (or a dead one look live).
// The file's mtime survives only as a fallback for records that carry no
// sequence number (pre-seq lease files, foreign schemas, torn writes). A
// stale lease may be reclaimed by any peer: the reclaimer atomically writes
// its own record over the lease, then reads the file back — rename
// arbitrates, read-back decides. A reclaim increments the lease's attempt
// counter; when a trial has been reclaimed MaxAttempts times (a worker crash
// loop — the trial is killing its executors), it is quarantined instead: a
// leases/<key>.poison marker records the attempts so every peer fails the
// trial fast into its degradation manifest rather than feeding it more
// workers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gurita/internal/cachestore"
)

// Lease timing defaults. TTL trades reclaim latency against false takeovers
// under scheduler stalls; both are safe (duplicates publish identical
// bytes), so the default leans toward fast recovery.
const (
	defaultTTL         = 5 * time.Second
	defaultMaxAttempts = 5
)

// leaseRecord is the on-disk lease file. Seq is the logical heartbeat: the
// holder bumps it on every renewal, so liveness is visible in the record's
// content, never its mtime. A record with Seq zero predates sequence
// heartbeats (or was written by a foreign world) and is judged by the mtime
// fallback instead.
type leaseRecord struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"`
	Owner   string `json:"owner"`
	Attempt int    `json:"attempt"`
	Seq     uint64 `json:"seq,omitempty"`
}

// seqIncarnation spaces out the starting sequence number of every claim this
// process takes, so a release-then-reclaim of the same key by the same owner
// can never present an (owner, seq) pair a peer has already observed — that
// would make a live second incarnation look TTL-stale. Renewals bump by one;
// 2^32 renewals per claim is unreachable.
var seqIncarnation atomic.Uint64

func newSeq() uint64 { return seqIncarnation.Add(1) << 32 }

// observation is one remembered sighting of a lease: the (owner, seq) pair
// and when this store first saw it. Staleness is the pair surviving
// unchanged past the TTL on the observer's own clock.
type observation struct {
	owner string
	seq   uint64
	since time.Time
}

// now is the lease clock.
func (s *Store) now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	//lint:ignore nondetsource lease heartbeat and staleness are wall-clock coordination between worker processes; no trial result reads them
	return time.Now()
}

// observe records (or refreshes) the sighting of (owner, seq) on key and
// returns how long this store has watched that exact pair. A changed pair
// restarts the watch: the holder renewed, so it is alive.
func (s *Store) observe(key, owner string, seq uint64, now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.seen[key]
	if !ok || o.owner != owner || o.seq != seq {
		s.seen[key] = observation{owner: owner, seq: seq, since: now}
		return 0
	}
	return now.Sub(o.since)
}

// forget drops the sighting for key: the lease was acquired, released,
// removed, or poisoned, so any remembered (owner, seq) pair is moot.
func (s *Store) forget(key string) {
	s.mu.Lock()
	delete(s.seen, key)
	s.mu.Unlock()
}

// hold records key as acquired by this store and not lost.
func (s *Store) hold(key string) {
	s.mu.Lock()
	s.held[key] = false
	delete(s.seen, key)
	s.mu.Unlock()
}

// take removes key from the held set, reporting whether it was held and
// whether a renewal had already found it lost.
func (s *Store) take(key string) (lost, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lost, ok = s.held[key]
	delete(s.held, key)
	return lost, ok
}

// markLost flags a held key as taken over by a peer, counting the loss
// exactly once per acquisition.
func (s *Store) markLost(key string) {
	s.mu.Lock()
	lost, ok := s.held[key]
	if ok && !lost {
		s.held[key] = true
	}
	s.mu.Unlock()
	if ok && !lost {
		s.countLost()
	}
}

func (s *Store) countLost() {
	s.lost.Add(1)
	s.cache.count("lease.lost")
}

func (s *Store) leasePath(key string) string {
	return filepath.Join(s.leaseDir, key+".lease")
}

func (s *Store) poisonPath(key string) string {
	return filepath.Join(s.leaseDir, key+".poison")
}

// remaining judges the lease on key — rec as parsed (ok reports a
// well-formed record), mtime as stat'ed — and returns how long it stays
// live; a negative result means stale. Claim and Sweep both judge by it. A
// record that carries a seq under this store's schema is stale only once
// this store has watched its (owner, seq) pair unchanged for more than the
// TTL, so a holder that keeps renewing stays live whatever the filesystem's
// timestamps say. The rest (pre-seq files, foreign schemas, torn writes)
// have no heartbeat to watch, and their mtime decides.
func (s *Store) remaining(key string, rec leaseRecord, ok bool, mtime, now time.Time) time.Duration {
	if ok && rec.Schema == s.Schema() && rec.Seq != 0 {
		return s.ttl - s.observe(key, rec.Owner, rec.Seq, now)
	}
	return s.ttl - now.Sub(mtime)
}

// Claim attempts to take the lease for key. Only LeaseAcquired leases may
// execute (and must end in Release or PoisonKey). Claim never blocks on
// peers — LeaseBusy is a hint to wait and retry, with Remaining estimating
// how long until the current lease could go stale.
func (s *Store) Claim(_ context.Context, key string) (cachestore.Lease, error) {
	if s.leaseDir == "" {
		return cachestore.Lease{}, errNoOwner
	}
	if p, err := s.readPoison(key); err != nil {
		return cachestore.Lease{}, err
	} else if p != nil {
		return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: p}, nil
	}

	path := s.leasePath(key)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		// We created the file: the filesystem arbitrated the initial race in
		// our favor. Fill it in and fsync so a crash cannot leave a lease
		// that lies about its owner for longer than one TTL.
		rec := leaseRecord{Schema: s.Schema(), Key: key, Owner: s.owner, Attempt: 1, Seq: newSeq()}
		if werr := writeRecord(f, rec); werr != nil {
			f.Close()
			os.Remove(path)
			return cachestore.Lease{}, fmt.Errorf("fsstore: writing %s: %w", filepath.Base(path), werr)
		}
		if werr := f.Close(); werr != nil {
			os.Remove(path)
			return cachestore.Lease{}, fmt.Errorf("fsstore: closing %s: %w", filepath.Base(path), werr)
		}
		s.hold(key)
		s.acquired.Add(1)
		s.cache.count("lease.acquired")
		return cachestore.Lease{State: cachestore.LeaseAcquired, Attempt: 1}, nil
	}
	if !errors.Is(err, fs.ErrExist) {
		return cachestore.Lease{}, fmt.Errorf("fsstore: creating %s: %w", filepath.Base(path), err)
	}

	// Somebody holds (or held) the lease.
	rec, mtime, ok := s.readLease(key)
	if mtime.IsZero() {
		// Vanished between EEXIST and stat: the holder just released it.
		// Report busy-with-zero-remaining so the caller re-claims promptly
		// (by then the cache usually answers first).
		s.forget(key)
		return cachestore.Lease{State: cachestore.LeaseBusy}, nil
	}
	var holder string
	attempt := 2 // an unreadable lease counts as one unknown attempt
	if ok {
		holder = rec.Owner
		if rec.Schema == s.Schema() {
			attempt = rec.Attempt + 1
		}
	}
	if left := s.remaining(key, rec, ok, mtime, s.now()); left >= 0 {
		return cachestore.Lease{State: cachestore.LeaseBusy, Holder: holder, Remaining: left}, nil
	}

	// Stale: reclaim, or poison when the trial has burned through its
	// attempt budget. The poison message keeps its "lease:" prefix: poison
	// files and failure manifests carry the text.
	if s.maxAttempts > 0 && attempt > s.maxAttempts {
		p := &cachestore.Poison{
			Schema:   s.Schema(),
			Key:      key,
			Attempts: attempt - 1,
			Err:      fmt.Sprintf("lease: trial reclaimed %d times without completing (worker crash loop)", attempt-1),
		}
		if err := s.writePoison(p); err != nil {
			return cachestore.Lease{}, err
		}
		os.Remove(path) // best-effort; Sweep collects stragglers
		s.forget(key)
		s.poisoned.Add(1)
		s.cache.count("lease.poisoned")
		return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: p}, nil
	}
	if err := s.writeLease(leaseRecord{Schema: s.Schema(), Key: key, Owner: s.owner, Attempt: attempt, Seq: newSeq()}); err != nil {
		return cachestore.Lease{}, err
	}
	// Rename arbitrated among concurrent reclaimers; read-back decides which
	// of us actually won. (Two reclaimers can both momentarily believe they
	// won if their rename/read-back windows interleave; the duplicate
	// execution that follows publishes identical bytes, and heartbeat
	// verification converges ownership. See DESIGN.md §15.)
	back, _, bok := s.readLease(key)
	if !bok || back.Owner != s.owner {
		s.forget(key)
		busy := cachestore.Lease{State: cachestore.LeaseBusy, Remaining: s.ttl}
		if bok {
			busy.Holder = back.Owner
		}
		return busy, nil
	}
	s.hold(key)
	s.reclaimed.Add(1)
	s.cache.count("lease.reclaimed")
	return cachestore.Lease{State: cachestore.LeaseAcquired, Attempt: attempt, Reclaimed: true}, nil
}

// Renew extends the acquired lease on key once (one logical heartbeat): it
// verifies the record is still ours, then atomically rewrites it with the
// sequence number bumped. Peers see the changed (owner, seq) pair and
// restart their staleness watch; the file's mtime plays no part.
// ErrLeaseLost means a peer took the lease over (this process was presumed
// dead — SIGSTOP, scheduler stall); the trial keeps executing, its eventual
// publish is byte-identical to the usurper's, but the lease is no longer
// ours to extend.
func (s *Store) Renew(_ context.Context, key string) error {
	s.mu.Lock()
	lost, ok := s.held[key]
	s.mu.Unlock()
	if !ok || lost {
		return cachestore.ErrLeaseLost
	}
	rec, _, rok := s.readLease(key)
	if !rok || rec.Owner != s.owner {
		s.markLost(key)
		return cachestore.ErrLeaseLost
	}
	rec.Seq++
	if err := s.writeLease(rec); err != nil {
		s.markLost(key)
		return cachestore.ErrLeaseLost
	}
	return nil
}

// Release ends the acquired lease on key after its result is published:
// the lease file is removed, but only if it is still ours — a usurper's
// lease is its own to release. Safe on lost or unknown leases.
func (s *Store) Release(_ context.Context, key string) {
	if lost, ok := s.take(key); ok {
		s.release(key, lost)
	}
}

// release removes the lease file of a key just taken from the held set.
func (s *Store) release(key string, lost bool) {
	rec, _, ok := s.readLease(key)
	if !ok || rec.Owner != s.owner {
		if !lost {
			s.countLost()
		}
		return
	}
	if os.Remove(s.leasePath(key)) == nil {
		s.released.Add(1)
		s.cache.count("lease.released")
	}
}

// PoisonKey quarantines the claimed trial: every peer's next Claim returns
// LeasePoisoned and fails the trial fast into its manifest, so peers inherit
// a deterministic failure instead of re-executing it. The lease is released.
func (s *Store) PoisonKey(_ context.Context, key, specHash string, attempts int, cause error) error {
	lost, ok := s.take(key)
	if !ok {
		return cachestore.ErrLeaseLost
	}
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	err := s.writePoison(&cachestore.Poison{
		Schema:   s.Schema(),
		Key:      key,
		SpecHash: specHash,
		Attempts: attempts,
		Err:      msg,
	})
	if err == nil {
		s.poisoned.Add(1)
		s.cache.count("lease.poisoned")
	}
	s.release(key, lost)
	return err
}

// Sweep removes the leases among keys that no live holder needs: leftovers
// of workers that died before releasing. It reaps a lease in exactly two
// cases. Claim would reclaim it: the record is stale by the same judgment
// Claim makes (see remaining), which for a seq-carrying record means this
// store has already watched it unchanged for a TTL — so a live, unpublished
// lease is never judged by its mtime. Or its result is already published
// and the file has not been rewritten for a TTL: such a lease guards
// nothing, which is how a worker that crashed between publish and release
// is cleaned up by a peer that only ever sees cache hits for that key.
// Returns how many files were removed.
func (s *Store) Sweep(_ context.Context, keys []string) int {
	if s.leaseDir == "" {
		return 0
	}
	removed := 0
	for _, key := range keys {
		rec, mtime, ok := s.readLease(key)
		if mtime.IsZero() {
			continue
		}
		now := s.now()
		stale := s.remaining(key, rec, ok, mtime, now) < 0
		guardsNothing := now.Sub(mtime) > s.ttl && s.cache.Stat(key)
		if !stale && !guardsNothing {
			continue
		}
		if os.Remove(s.leasePath(key)) == nil {
			s.forget(key)
			removed++
		}
	}
	return removed
}

// LeaseStats snapshots the lease side's lifetime counters.
func (s *Store) LeaseStats() cachestore.LeaseStats {
	return cachestore.LeaseStats{
		Acquired:  s.acquired.Load(),
		Reclaimed: s.reclaimed.Load(),
		Lost:      s.lost.Load(),
		Released:  s.released.Load(),
		Poisoned:  s.poisoned.Load(),
	}
}

// readLease parses the lease file for key. ok reports a well-formed record;
// mtime is zero only when the file does not exist (or cannot be stat'ed).
func (s *Store) readLease(key string) (rec leaseRecord, mtime time.Time, ok bool) {
	path := s.leasePath(key)
	st, err := os.Stat(path)
	if err != nil {
		return leaseRecord{}, time.Time{}, false
	}
	mtime = st.ModTime()
	data, err := os.ReadFile(path)
	if err != nil {
		return leaseRecord{}, mtime, false
	}
	if err := json.Unmarshal(data, &rec); err != nil || rec.Key != key {
		return leaseRecord{}, mtime, false
	}
	return rec, mtime, true
}

// writeLease atomically replaces the lease file for rec.Key with rec.
func (s *Store) writeLease(rec leaseRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fsstore: encoding lease: %w", err)
	}
	return writeLeaseFile(s.leasePath(rec.Key), data)
}

// readPoison returns the quarantine marker for key, if one exists under the
// store's schema. Foreign-schema markers are ignored (and removed: the world
// they poisoned no longer exists).
func (s *Store) readPoison(key string) (*cachestore.Poison, error) {
	data, err := os.ReadFile(s.poisonPath(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fsstore: reading poison marker: %w", err)
	}
	var p cachestore.Poison
	if jerr := json.Unmarshal(data, &p); jerr != nil || p.Schema != s.Schema() || p.Key != key {
		os.Remove(s.poisonPath(key))
		return nil, nil
	}
	return &p, nil
}

func (s *Store) writePoison(p *cachestore.Poison) error {
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return fmt.Errorf("fsstore: encoding poison marker: %w", err)
	}
	return writeLeaseFile(s.poisonPath(p.Key), data)
}

// writeLeaseFile publishes a lease or poison file through WriteFileAtomic
// with a temp name that is the file's own name, dot-prefixed, plus ".tmp".
func writeLeaseFile(path string, data []byte) error {
	return WriteFileAtomic(path, "."+filepath.Base(path)+".tmp", data)
}

// writeRecord writes rec to a freshly created lease file and fsyncs it.
func writeRecord(f *os.File, rec leaseRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}
