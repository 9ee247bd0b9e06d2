// Package cachestore defines the pluggable content-addressed result store
// behind campaign execution: the envelope format for cached trial results,
// the store interface (get/put/stat/quarantine), the cross-process lease
// primitives (claim/renew/release/poison/sweep), and the manifest shard
// operations multi-worker campaigns use to account for their work.
//
// Two backends implement it:
//
//   - fsstore: the original shared-directory layout (PR 8), byte-compatible
//     with pre-existing cache dirs — one JSON envelope per trial fanned out
//     over 256 two-hex-digit shards, lease files under leases/, quarantined
//     evidence under quarantine/, manifest shards under manifests/.
//   - httpstore: a client for guritad's /v1/cache/... endpoints, so workers
//     on different machines share one daemon-hosted cache with server-side
//     single-flight and server-authoritative lease expiry.
//
// The correctness contract is identical for every backend: a trial result is
// a pure function of its spec, keys are content addresses (SHA-256 of schema
// plus canonical spec JSON), publishes are idempotent because duplicates
// write byte-identical envelopes, and leases only make duplicate execution
// rare — never impossible. Exactly-once applies to result *bytes*, not to
// execution. See DESIGN.md §17.
package cachestore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Counters is the observability hook for store operational counters;
// obs.SyncRegistry satisfies it. Nil is a valid no-op.
type Counters interface {
	Add(name string, delta int64)
}

// Names of the bookkeeping subtrees the multi-process machinery keeps inside
// a cache root, alongside the two-hex-digit entry shards. Entry enumeration
// and validation must never confuse their files with trial results.
const (
	// LeaseSubdir holds the cross-process lease and poison files.
	LeaseSubdir = "leases"
	// QuarantineDir preserves entries that failed content verification.
	QuarantineDir = "quarantine"
	// ManifestSubdir holds per-worker campaign manifest shards.
	ManifestSubdir = "manifests"
	// CampaignSubdir holds the daemon's resumable campaign manifests.
	CampaignSubdir = "campaigns"
)

// IsBookkeeping reports whether a top-level cache-root directory name is one
// of the bookkeeping subtrees rather than an entry shard. Every walker that
// enumerates entries (Len, verification sweeps, tooling) must share this one
// predicate so a new subtree cannot be skipped in one place and counted in
// another.
func IsBookkeeping(name string) bool {
	switch name {
	case LeaseSubdir, QuarantineDir, ManifestSubdir, CampaignSubdir:
		return true
	}
	return false
}

// BookkeepingSubdirs returns the bookkeeping directory names in sorted
// order, for tooling that wants to enumerate rather than test.
func BookkeepingSubdirs() []string {
	return []string{CampaignSubdir, LeaseSubdir, ManifestSubdir, QuarantineDir}
}

// Key returns the content-addressed cache key of a spec: the hex SHA-256 of
// the schema version and the spec's canonical JSON encoding. Go's
// encoding/json is deterministic for structs (declaration field order), so
// equal specs always hash equally; any semantic change to spec layout or
// trial execution must bump the schema string to invalidate old entries.
func Key(schema string, spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("cachestore: marshaling spec for key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(schema))
	h.Write([]byte{'\n'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// SpecHash returns the schema-independent content hash of a spec: the hex
// SHA-256 of its canonical JSON alone. Unlike Key it survives cache schema
// bumps, which is why failure manifests record it.
func SpecHash(spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("cachestore: marshaling spec for hash: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// ResultSHA hashes a result payload in canonical (compact) form, so the hash
// is invariant under the whitespace MarshalIndent re-introduces when an
// envelope is written and re-read.
func ResultSHA(result json.RawMessage) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, result); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Entry is the envelope around a cached result, identical across backends
// and byte-compatible with the PR 8 on-disk format. Spec is stored verbatim
// so humans (and external tooling) can inspect what produced a result
// without reversing the hash; ResultSHA pins the result bytes so corruption
// inside the (large) result payload is caught without recomputation.
type Entry struct {
	Schema    string          `json:"schema"`
	Key       string          `json:"key"`
	Spec      json.RawMessage `json:"spec"`
	Result    json.RawMessage `json:"result"`
	ResultSHA string          `json:"result_sha256,omitempty"`
}

// NewEntry assembles a verified envelope for a finished trial, computing the
// result hash. Every backend's Put goes through it so the bytes a reader
// verifies are the bytes every writer produced.
func NewEntry(schema, key string, spec, result json.RawMessage) (*Entry, error) {
	sha, err := ResultSHA(result)
	if err != nil {
		return nil, fmt.Errorf("cachestore: hashing result: %w", err)
	}
	return &Entry{Schema: schema, Key: key, Spec: spec, Result: result, ResultSHA: sha}, nil
}

// Verify checks the envelope's content against its own claims: the recorded
// key matches the address it was fetched under, the key recomputes from the
// stored spec under the entry's schema (so a spec swap is caught), and the
// result bytes hash to the recorded ResultSHA. A failure is evidence of
// corruption (the caller should quarantine); a schema mismatch with the
// reader is NOT checked here — that is staleness, not corruption, and each
// backend treats it as a plain miss.
func (e *Entry) Verify(key string) error {
	if e.Key != key {
		return fmt.Errorf("cachestore: entry key %s does not match address %s", shortKey(e.Key), shortKey(key))
	}
	if len(e.Result) == 0 || string(e.Result) == "null" {
		return errors.New("cachestore: entry has no result payload")
	}
	// Recompute the content address from the stored spec. json.Marshal of a
	// RawMessage compacts and HTML-escapes exactly like the original
	// json.Marshal of the spec value did, so a faithful entry always
	// re-derives its own key.
	recomputed, err := Key(e.Schema, e.Spec)
	if err != nil {
		return fmt.Errorf("cachestore: recomputing entry key: %w", err)
	}
	if recomputed != key {
		return fmt.Errorf("cachestore: entry spec rehashes to %s, not %s", shortKey(recomputed), shortKey(key))
	}
	sha, err := ResultSHA(e.Result)
	if err != nil {
		return fmt.Errorf("cachestore: hashing entry result: %w", err)
	}
	if sha != e.ResultSHA {
		return errors.New("cachestore: entry result bytes do not match recorded hash")
	}
	return nil
}

// shortKey abbreviates a cache key for error messages.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Store is the content-addressed result store: one verified JSON envelope
// per finished trial. All methods are safe for concurrent use. Get and Stat
// never error: any backend failure (corruption, an unreachable server past
// its retry budget) degrades to a miss, because re-executing a pure trial is
// always correct — only Put failures must surface, since losing a publish
// breaks the convergence contract.
type Store interface {
	// Schema returns the schema version this store validates entries against.
	Schema() string
	// Get returns the cached result payload for key, after verification.
	// Corrupt entries are quarantined and read as misses.
	Get(ctx context.Context, key string) (json.RawMessage, bool)
	// Put persists a finished trial atomically and durably. Racing writers
	// are safe: every writer of a key produces byte-identical envelopes.
	Put(ctx context.Context, key string, spec, result json.RawMessage) error
	// Stat reports whether a (possibly unverified) entry exists for key.
	Stat(ctx context.Context, key string) bool
	// Quarantine moves the entry for key aside as corruption evidence, so a
	// reader that detected a bad payload end-to-end (e.g. an httpstore client
	// whose verification failed after transport) can preserve it. Best-effort.
	Quarantine(ctx context.Context, key string) error
	// Len counts stored entries, excluding every bookkeeping subtree (per
	// IsBookkeeping). Intended for tooling and tests.
	Len(ctx context.Context) int
}

// LeaseState classifies the outcome of a Claim.
type LeaseState int

const (
	// LeaseAcquired: the caller owns the lease and must execute the trial,
	// then Release (or PoisonKey) it.
	LeaseAcquired LeaseState = iota
	// LeaseBusy: a live peer holds the lease; wait for its result (the
	// store) or for the lease to go stale, then Claim again.
	LeaseBusy
	// LeasePoisoned: the trial is quarantined; fail it fast into the
	// degradation manifest instead of executing.
	LeasePoisoned
)

// Poison is the quarantine record for a trial that exhausted its
// cross-worker attempts or failed deterministically.
type Poison struct {
	Schema   string `json:"schema"`
	Key      string `json:"key"`
	SpecHash string `json:"specHash,omitempty"`
	Attempts int    `json:"attempts"`
	Err      string `json:"err"`
}

// Lease is the outcome of a Claim. Zero value is meaningless; consult State.
type Lease struct {
	// State says what happened; the remaining fields are state-specific.
	State LeaseState
	// Attempt is this execution's cross-worker attempt number (acquired).
	Attempt int
	// Reclaimed marks an acquisition that took over a stale lease.
	Reclaimed bool
	// Holder is the current owner when busy ("" if unknown).
	Holder string
	// Remaining estimates how long until the busy lease could go stale.
	Remaining time.Duration
	// Poison is the quarantine record when poisoned.
	Poison *Poison
}

// ErrLeaseLost reports that a renewal or release found the lease taken over
// by a peer (this process was presumed dead). The trial may keep executing —
// its publish is byte-identical to the usurper's — but the lease is gone.
var ErrLeaseLost = errors.New("cachestore: lease lost to a peer")

// LeaseStats is a snapshot of a lease backend's lifetime counters.
type LeaseStats struct {
	Acquired  int64 // leases taken via the uncontended fast path
	Reclaimed int64 // stale leases taken over from (presumed) dead peers
	Lost      int64 // our leases discovered taken over by a peer
	Released  int64 // leases released after a successful publish
	Poisoned  int64 // trials this store handle quarantined
}

// LeaseStore is the cross-process execution-coordination side of a store.
// Liveness is logical, not mtime-based: a holder renews by bumping a
// monotonic sequence number in the lease record, and an observer judges a
// lease stale only after watching the (owner, seq) pair stay unchanged for a
// full TTL of its own clock — so filesystems with lazy or unreliable
// timestamps cannot make a live worker look dead. The HTTP backend is
// server-authoritative instead: the daemon's clock alone decides expiry.
type LeaseStore interface {
	// Owner is this handle's identity, stamped into every lease it takes.
	Owner() string
	// TTL is the staleness threshold in effect.
	TTL() time.Duration
	// HeartbeatEvery is the renewal period (well under TTL).
	HeartbeatEvery() time.Duration
	// Claim attempts to take the lease for key. Never blocks on peers —
	// LeaseBusy is a hint to wait and re-Claim.
	Claim(ctx context.Context, key string) (Lease, error)
	// Renew extends an acquired lease once (one heartbeat). ErrLeaseLost
	// means a peer took it over; stop renewing.
	Renew(ctx context.Context, key string) error
	// Release ends an acquired lease after its result is published. Safe to
	// call on lost leases (a usurper's lease is its own to release).
	Release(ctx context.Context, key string)
	// PoisonKey quarantines the claimed trial so every peer's next Claim
	// returns LeasePoisoned, then releases the lease.
	PoisonKey(ctx context.Context, key string, specHash string, attempts int, cause error) error
	// Sweep removes the leases among keys that no live holder needs:
	// leftovers of workers that died before releasing. It removes a lease
	// only when a Claim would reclaim it — stale by the same liveness
	// judgment Claim makes — or when the lease's result is already published
	// and the lease has not been renewed for a TTL, so it guards nothing. A
	// live lease whose result is unpublished is never removed. Returns how
	// many were removed.
	Sweep(ctx context.Context, keys []string) int
	// LeaseStats snapshots the lifetime counters.
	LeaseStats() LeaseStats
}

// ManifestStore is the manifest-shard side of a store: named blobs under
// the cache root's manifests/ subtree, written atomically, listed in sorted
// name order so merging is deterministic.
type ManifestStore interface {
	// PutManifest atomically writes (or overwrites) the named shard.
	PutManifest(ctx context.Context, name string, data []byte) error
	// Manifests returns the stored shard names in sorted order.
	Manifests(ctx context.Context) ([]string, error)
	// GetManifest returns the named shard's bytes.
	GetManifest(ctx context.Context, name string) ([]byte, bool)
}
