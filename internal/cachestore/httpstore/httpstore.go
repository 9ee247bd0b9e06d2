// Package httpstore is the client half of the remote cachestore backend: it
// speaks guritad's /v1/cache/ API (internal/serve/cachehttp), so workers on
// machines that share nothing — no filesystem, no clock — split one campaign
// through one daemon-hosted cache.
//
// Trust nothing that crossed a wire: every envelope fetched is re-verified
// locally (key recomputation from the stored spec, result-hash check) even
// though the server verified it before shipping, and a fetch that fails
// verification is reported back (POST …/quarantine) so the server preserves
// the evidence. Every envelope uploaded was assembled by cachestore.NewEntry,
// and the server re-verifies before committing — corruption in either
// direction is caught on at least one end.
//
// Failure semantics are asymmetric by design. Reads (Get/Stat) degrade to
// misses once the retry budget is exhausted: re-executing a pure trial is
// always correct, so an unreachable daemon costs duplicated work, never
// wrong results. Writes (Put) and claims must surface their failure —
// losing a publish would break the convergence contract, so after the
// outage budget they return an error and the campaign aborts rather than
// silently dropping results. In between, every request retries with capped
// exponential backoff, which is what lets workers ride out a daemon kill
// and restart (the chaos harness's cache-server schedule) and converge
// byte-identically once it returns.
//
// Lease liveness is server-authoritative: the daemon's clock alone decides
// expiry, the client just renews on the cadence the claim response teaches
// it (TTL/3). A renewal answered with 409 means the daemon no longer knows
// the lease — expired and reclaimed, or the daemon restarted — and maps to
// cachestore.ErrLeaseLost. See DESIGN.md §17.
package httpstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"gurita/internal/cachestore"
)

// Config parameterizes a Store.
type Config struct {
	// BaseURL is the daemon's address, e.g. "http://cachehost:7070". Required.
	BaseURL string
	// Schema versions entries, leases, and poison markers. Required.
	Schema string
	// Owner is this process's lease identity (host-pid works). Required.
	Owner string
	// OutageBudget bounds how long one logical operation keeps retrying
	// through daemon outages before giving up (reads degrade to misses,
	// writes and claims error). <= 0 means 60s.
	OutageBudget time.Duration
	// Client overrides the HTTP client; nil means a client with a 30s
	// per-request timeout.
	Client *http.Client
	// Counters, when non-nil, receives the httpstore.* operational counters.
	Counters cachestore.Counters
}

// Store is the remote backend handle. Safe for concurrent use.
type Store struct {
	base    string
	schema  string
	owner   string
	budget  time.Duration
	client  *http.Client
	counter cachestore.Counters

	// ttlMS is the lease TTL learned from the server's claim responses
	// (milliseconds); the default holds until the first claim answers.
	ttlMS atomic.Int64

	acquired  atomic.Int64
	reclaimed atomic.Int64
	lost      atomic.Int64
	released  atomic.Int64
	poisoned  atomic.Int64
}

var (
	_ cachestore.Store         = (*Store)(nil)
	_ cachestore.LeaseStore    = (*Store)(nil)
	_ cachestore.ManifestStore = (*Store)(nil)
)

// Open validates cfg and returns a Store. No connection is attempted here:
// an unreachable daemon surfaces on first use, through the retry policy.
func Open(cfg Config) (*Store, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("httpstore: Config.BaseURL must not be empty")
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("httpstore: Config.BaseURL %q must be an absolute http(s) URL", cfg.BaseURL)
	}
	if cfg.Schema == "" {
		return nil, fmt.Errorf("httpstore: Config.Schema must not be empty")
	}
	if cfg.Owner == "" {
		return nil, fmt.Errorf("httpstore: Config.Owner must not be empty")
	}
	if cfg.OutageBudget <= 0 {
		cfg.OutageBudget = 60 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	s := &Store{
		base:    strings.TrimRight(cfg.BaseURL, "/"),
		schema:  cfg.Schema,
		owner:   cfg.Owner,
		budget:  cfg.OutageBudget,
		client:  client,
		counter: cfg.Counters,
	}
	s.ttlMS.Store((5 * time.Second).Milliseconds())
	return s, nil
}

func (s *Store) count(name string) {
	if s.counter != nil {
		s.counter.Add(name, 1)
	}
}

// Schema returns the schema version entries are validated against.
func (s *Store) Schema() string { return s.schema }

// entryURL/leaseURL/manifestURL build endpoint addresses.
func (s *Store) entryURL(key, suffix string) string {
	return s.base + "/v1/cache/entries/" + url.PathEscape(key) + suffix + "?schema=" + url.QueryEscape(s.schema)
}

func (s *Store) leaseURL(key, op string) string {
	return s.base + "/v1/cache/leases/" + url.PathEscape(key) + "/" + op
}

func (s *Store) manifestURL(name string) string {
	return s.base + "/v1/cache/manifests/" + url.PathEscape(name)
}

// retryable reports whether a response status is worth retrying: server
// errors and explicit backpressure, never client errors.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// backoffDelay is the capped exponential retry schedule: 50ms doubling to a
// 2s ceiling.
func backoffDelay(attempt int) time.Duration {
	d := 50 * time.Millisecond << attempt
	if d > 2*time.Second || d <= 0 {
		return 2 * time.Second
	}
	return d
}

// do executes one logical request with retries: transport errors and 5xx
// responses back off and retry until the outage budget is spent or ctx
// ends; any other response returns immediately with its status and body.
// This single choke point is what makes every store operation ride out a
// daemon kill/restart without the caller seeing anything but latency.
func (s *Store) do(ctx context.Context, method, urlStr string, body []byte) (status int, respBody []byte, err error) {
	// Wall-clock outage accounting: retries coordinate with a remote
	// process's lifetime, and no trial result ever reads these timestamps.
	//
	//lint:ignore nondetsource retry/outage budget is wall-clock coordination with the remote daemon; trial results never depend on it
	start := time.Now()
	for attempt := 0; ; attempt++ {
		var rdr io.Reader
		if body != nil {
			rdr = bytes.NewReader(body)
		}
		req, rerr := http.NewRequestWithContext(ctx, method, urlStr, rdr)
		if rerr != nil {
			return 0, nil, fmt.Errorf("httpstore: building request: %w", rerr)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, derr := s.client.Do(req)
		if derr == nil {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			resp.Body.Close()
			if rerr == nil && !retryable(resp.StatusCode) {
				return resp.StatusCode, data, nil
			}
			// Torn body or 5xx: fall through to the retry ladder.
			if rerr != nil {
				derr = rerr
			} else {
				derr = fmt.Errorf("httpstore: server answered %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
			}
		}
		if ctx.Err() != nil {
			return 0, nil, fmt.Errorf("httpstore: %s %s: %w", method, urlStr, context.Cause(ctx))
		}
		//lint:ignore nondetsource retry/outage budget is wall-clock coordination with the remote daemon; trial results never depend on it
		if time.Since(start) >= s.budget {
			s.count("httpstore.outage.budget_exhausted")
			return 0, nil, fmt.Errorf("httpstore: %s %s: daemon unreachable past outage budget (%s): %w", method, urlStr, s.budget, derr)
		}
		s.count("httpstore.retries")
		t := time.NewTimer(backoffDelay(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			return 0, nil, fmt.Errorf("httpstore: %s %s: %w", method, urlStr, context.Cause(ctx))
		case <-t.C:
		}
	}
}

// Get fetches and re-verifies the envelope for key, returning the compact
// result (the bytes Put was given). Any failure — a miss, a
// 4xx, verification, or an outage past the budget — degrades to a miss:
// re-execution is always correct. A verification failure additionally asks
// the server to quarantine its copy.
func (s *Store) Get(ctx context.Context, key string) (json.RawMessage, bool) {
	status, body, err := s.do(ctx, http.MethodGet, s.entryURL(key, ""), nil)
	if err != nil || status != http.StatusOK {
		if err != nil {
			s.count("httpstore.get.outage_miss")
		}
		return nil, false
	}
	e, out, verr := cachestore.ReadEntry(body, s.schema, key)
	switch out {
	case cachestore.Hit:
		return e.Result, true
	case cachestore.Corrupt:
		// The server's copy (or the transport) is corrupt end-to-end:
		// preserve the evidence server-side, then miss.
		if !errors.Is(verr, cachestore.ErrMalformed) {
			s.count("httpstore.get.verify_failed")
		}
		s.quarantineRemote(ctx, key)
	}
	return nil, false
}

// quarantineRemote is the best-effort evidence-preservation callback.
func (s *Store) quarantineRemote(ctx context.Context, key string) {
	_, _, _ = s.do(ctx, http.MethodPost, s.entryURL(key, "/quarantine"), nil)
}

// Put assembles the canonical envelope and uploads it. Unlike Get, a Put
// that cannot land within the outage budget is an error: a dropped publish
// would break the convergence contract.
func (s *Store) Put(ctx context.Context, key string, spec, result json.RawMessage) error {
	e, err := cachestore.NewEntry(s.schema, key, spec, result)
	if err != nil {
		return fmt.Errorf("httpstore: hashing cache result: %w", err)
	}
	body, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return fmt.Errorf("httpstore: encoding cache entry: %w", err)
	}
	status, respBody, err := s.do(ctx, http.MethodPut, s.entryURL(key, ""), body)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("httpstore: publishing entry: server answered %d: %s", status, strings.TrimSpace(string(respBody)))
	}
	return nil
}

// Stat reports whether the daemon has an entry for key; outages degrade to
// false (the caller re-executes, which is always correct).
func (s *Store) Stat(ctx context.Context, key string) bool {
	status, _, err := s.do(ctx, http.MethodHead, s.entryURL(key, ""), nil)
	return err == nil && status == http.StatusOK
}

// Quarantine asks the daemon to preserve the entry for key as evidence.
func (s *Store) Quarantine(ctx context.Context, key string) error {
	status, body, err := s.do(ctx, http.MethodPost, s.entryURL(key, "/quarantine"), nil)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("httpstore: quarantining entry: server answered %d: %s", status, strings.TrimSpace(string(body)))
	}
	return nil
}

// Len reports the daemon's entry count (0 on outage — tooling only).
func (s *Store) Len(ctx context.Context) int {
	status, body, err := s.do(ctx, http.MethodGet, s.base+"/v1/cache/len?schema="+url.QueryEscape(s.schema), nil)
	if err != nil || status != http.StatusOK {
		return 0
	}
	var doc struct {
		Len int `json:"len"`
	}
	if json.Unmarshal(body, &doc) != nil {
		return 0
	}
	return doc.Len
}

// Owner returns the lease identity.
func (s *Store) Owner() string { return s.owner }

// TTL returns the lease staleness threshold — learned from the daemon's
// claim responses (the server is the only authority on expiry).
func (s *Store) TTL() time.Duration {
	return time.Duration(s.ttlMS.Load()) * time.Millisecond
}

// HeartbeatEvery returns the renewal cadence: a third of the learned TTL,
// the same margin the filesystem lease protocol keeps.
func (s *Store) HeartbeatEvery() time.Duration {
	hb := s.TTL() / 3
	if hb <= 0 {
		hb = time.Second
	}
	return hb
}

// leaseDoc mirrors cachehttp.LeaseDoc on the wire.
type leaseDoc struct {
	State       string             `json:"state"`
	Attempt     int                `json:"attempt"`
	Reclaimed   bool               `json:"reclaimed"`
	Holder      string             `json:"holder"`
	RemainingMS int64              `json:"remaining_ms"`
	TTLMS       int64              `json:"ttl_ms"`
	Poison      *cachestore.Poison `json:"poison"`
}

// leaseBody builds the request payload for lease operations.
func (s *Store) leaseBody(specHash string, attempts int, cause error) []byte {
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	body, _ := json.Marshal(struct {
		Owner    string `json:"owner"`
		Schema   string `json:"schema"`
		SpecHash string `json:"specHash,omitempty"`
		Attempts int    `json:"attempts,omitempty"`
		Err      string `json:"err,omitempty"`
	}{s.owner, s.schema, specHash, attempts, msg})
	return body
}

// Claim asks the daemon for the lease on key. A daemon unreachable past the
// outage budget is an error — the caller must not execute unleased work
// silently when the whole campaign is coordinating through this daemon.
func (s *Store) Claim(ctx context.Context, key string) (cachestore.Lease, error) {
	status, body, err := s.do(ctx, http.MethodPost, s.leaseURL(key, "claim"), s.leaseBody("", 0, nil))
	if err != nil {
		return cachestore.Lease{}, err
	}
	if status != http.StatusOK {
		return cachestore.Lease{}, fmt.Errorf("httpstore: claiming lease: server answered %d: %s", status, strings.TrimSpace(string(body)))
	}
	var doc leaseDoc
	if jerr := json.Unmarshal(body, &doc); jerr != nil {
		return cachestore.Lease{}, fmt.Errorf("httpstore: decoding claim response: %w", jerr)
	}
	if doc.TTLMS > 0 {
		s.ttlMS.Store(doc.TTLMS)
	}
	switch doc.State {
	case "acquired":
		s.acquired.Add(1)
		s.count("lease.acquired")
		if doc.Reclaimed {
			s.reclaimed.Add(1)
			s.count("lease.reclaimed")
		}
		return cachestore.Lease{State: cachestore.LeaseAcquired, Attempt: doc.Attempt, Reclaimed: doc.Reclaimed}, nil
	case "poisoned":
		return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: doc.Poison}, nil
	case "busy":
		return cachestore.Lease{
			State:     cachestore.LeaseBusy,
			Holder:    doc.Holder,
			Remaining: time.Duration(doc.RemainingMS) * time.Millisecond,
		}, nil
	default:
		return cachestore.Lease{}, fmt.Errorf("httpstore: claim answered unknown state %q", doc.State)
	}
}

// Renew extends the lease on key by one server-side TTL. A 409 — expired
// and reclaimed, or the daemon restarted and forgot the table — maps to
// ErrLeaseLost; so does an outage past the budget, because a lease that
// cannot be renewed within a TTL is already gone from the server's view.
func (s *Store) Renew(ctx context.Context, key string) error {
	status, body, err := s.do(ctx, http.MethodPost, s.leaseURL(key, "renew"), s.leaseBody("", 0, nil))
	if err != nil {
		s.lost.Add(1)
		s.count("lease.lost")
		return cachestore.ErrLeaseLost
	}
	if status == http.StatusConflict {
		s.lost.Add(1)
		s.count("lease.lost")
		return cachestore.ErrLeaseLost
	}
	if status != http.StatusOK {
		return fmt.Errorf("httpstore: renewing lease: server answered %d: %s", status, strings.TrimSpace(string(body)))
	}
	return nil
}

// Release ends the lease on key. Best-effort: an unreachable daemon has
// already expired the lease by the time the budget runs out.
func (s *Store) Release(ctx context.Context, key string) {
	status, _, err := s.do(ctx, http.MethodPost, s.leaseURL(key, "release"), s.leaseBody("", 0, nil))
	if err == nil && status == http.StatusNoContent {
		s.released.Add(1)
		s.count("lease.released")
	}
}

// PoisonKey quarantines the trial daemon-side and releases the lease.
func (s *Store) PoisonKey(ctx context.Context, key, specHash string, attempts int, cause error) error {
	status, body, err := s.do(ctx, http.MethodPost, s.leaseURL(key, "poison"), s.leaseBody(specHash, attempts, cause))
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("httpstore: poisoning trial: server answered %d: %s", status, strings.TrimSpace(string(body)))
	}
	s.poisoned.Add(1)
	s.count("lease.poisoned")
	return nil
}

// Sweep asks the daemon to drop expired leases among keys.
func (s *Store) Sweep(ctx context.Context, keys []string) int {
	body, _ := json.Marshal(struct {
		Keys []string `json:"keys"`
	}{keys})
	status, resp, err := s.do(ctx, http.MethodPost, s.base+"/v1/cache/sweep", body)
	if err != nil || status != http.StatusOK {
		return 0
	}
	var doc struct {
		Removed int `json:"removed"`
	}
	if json.Unmarshal(resp, &doc) != nil {
		return 0
	}
	return doc.Removed
}

// LeaseStats snapshots the client-side lifetime counters.
func (s *Store) LeaseStats() cachestore.LeaseStats {
	return cachestore.LeaseStats{
		Acquired:  s.acquired.Load(),
		Reclaimed: s.reclaimed.Load(),
		Lost:      s.lost.Load(),
		Released:  s.released.Load(),
		Poisoned:  s.poisoned.Load(),
	}
}

// PutManifest uploads a worker manifest shard to the daemon's cache dir.
func (s *Store) PutManifest(ctx context.Context, name string, data []byte) error {
	status, body, err := s.do(ctx, http.MethodPut, s.manifestURL(name), data)
	if err != nil {
		return err
	}
	if status != http.StatusNoContent {
		return fmt.Errorf("httpstore: publishing manifest: server answered %d: %s", status, strings.TrimSpace(string(body)))
	}
	return nil
}

// Manifests lists the daemon's stored shard names (sorted server-side).
func (s *Store) Manifests(ctx context.Context) ([]string, error) {
	status, body, err := s.do(ctx, http.MethodGet, s.base+"/v1/cache/manifests", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("httpstore: listing manifests: server answered %d: %s", status, strings.TrimSpace(string(body)))
	}
	var doc struct {
		Manifests []string `json:"manifests"`
	}
	if jerr := json.Unmarshal(body, &doc); jerr != nil {
		return nil, fmt.Errorf("httpstore: decoding manifest listing: %w", jerr)
	}
	return doc.Manifests, nil
}

// GetManifest fetches one shard's bytes.
func (s *Store) GetManifest(ctx context.Context, name string) ([]byte, bool) {
	status, body, err := s.do(ctx, http.MethodGet, s.manifestURL(name), nil)
	if err != nil || status != http.StatusOK {
		return nil, false
	}
	return body, true
}
