// Package cachehttp is the server half of the httpstore cachestore backend:
// an HTTP/JSON API over a daemon-hosted cache directory, mounted by guritad
// under /v1/cache/. It is what turns the shared-POSIX-directory contract into
// a network contract, so guritaworker/guritasim processes on machines with no
// shared filesystem can split one campaign.
//
// Entries are stored through the fsstore layout (so the daemon's cache dir
// remains inspectable and byte-compatible with local runs); a PUT is verified
// server-side before it is committed, and a GET ships the verified envelope
// for the client to re-verify after transport — corruption anywhere between
// disk and wire is caught on at least one end. One daemon hosts entries for
// any number of schemas (±coflows variants of the same campaign); each
// request names its schema and the server keeps one lazily-opened fsstore
// cache per schema over the same directory.
//
// Leases are server-authoritative: the table lives in daemon memory and
// expiry is judged on the daemon's clock alone — a renewal bumps the lease's
// sequence number and pushes its deadline, so no client clock, no filesystem
// timestamp, and no cross-machine clock skew ever participates in a liveness
// decision. The table (and the poison markers it feeds) dies with the daemon;
// that is deliberate. Leases only make duplicate execution rare, publishes
// are idempotent (every writer of a key produces byte-identical envelopes),
// so a daemon restart costs at most some duplicated work, never correctness.
// See DESIGN.md §17 for the protocol and failure semantics.
package cachehttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
)

// Config parameterizes a Server.
type Config struct {
	// Dir is the daemon-hosted cache root, required. The on-disk layout is
	// fsstore's, so local tooling can inspect it directly.
	Dir string
	// TTL is the server-authoritative lease expiry; a lease not renewed for
	// TTL may be reclaimed. Default 5s.
	TTL time.Duration
	// MaxAttempts bounds how many times a trial may be claimed before it is
	// poisoned. 0 means the default, 5.
	MaxAttempts int
	// Counters, when non-nil, receives the cachehttp.* operational counters.
	Counters cachestore.Counters
}

// srvLease is one held lease in the daemon's table. Seq counts renewals —
// returned to clients for observability, never used by them for liveness
// (the server's clock is the only authority).
type srvLease struct {
	owner   string
	schema  string
	attempt int
	seq     uint64
	expires time.Time
}

// Server implements the /v1/cache/ API. Safe for concurrent use.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	caches  map[string]*fsstore.Cache     // schema -> cache over cfg.Dir
	leases  map[string]*srvLease          // key -> held lease
	poisons map[string]*cachestore.Poison // key -> quarantine record
}

// New validates cfg and returns a Server ready to mount.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cachehttp: Config.Dir must not be empty")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 5
	}
	s := &Server{
		cfg:     cfg,
		caches:  make(map[string]*fsstore.Cache),
		leases:  make(map[string]*srvLease),
		poisons: make(map[string]*cachestore.Poison),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/cache/entries/{key}", s.handleGetEntry)
	s.mux.HandleFunc("PUT /v1/cache/entries/{key}", s.handlePutEntry)
	s.mux.HandleFunc("POST /v1/cache/entries/{key}/quarantine", s.handleQuarantine)
	s.mux.HandleFunc("GET /v1/cache/len", s.handleLen)
	s.mux.HandleFunc("POST /v1/cache/leases/{key}/claim", s.handleClaim)
	s.mux.HandleFunc("POST /v1/cache/leases/{key}/renew", s.handleRenew)
	s.mux.HandleFunc("POST /v1/cache/leases/{key}/release", s.handleRelease)
	s.mux.HandleFunc("POST /v1/cache/leases/{key}/poison", s.handlePoison)
	s.mux.HandleFunc("POST /v1/cache/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/cache/leases", s.handleLeases)
	s.mux.HandleFunc("PUT /v1/cache/manifests/{name}", s.handlePutManifest)
	s.mux.HandleFunc("GET /v1/cache/manifests/{name}", s.handleGetManifest)
	s.mux.HandleFunc("GET /v1/cache/manifests", s.handleListManifests)
	return s, nil
}

// Handler returns the cache API, rooted at /v1/cache/.
func (s *Server) Handler() http.Handler { return s.mux }

// TTL returns the server-authoritative lease TTL in effect.
func (s *Server) TTL() time.Duration { return s.cfg.TTL }

// now is the lease clock. Leases coordinate worker processes, not
// simulations: no trial result ever reads these timestamps.
//
//lint:ignore nondetsource server-authoritative lease expiry is wall-clock coordination between workers; trial results never depend on it
func (s *Server) now() time.Time { return time.Now() }

func (s *Server) count(name string) {
	if s.cfg.Counters != nil {
		s.cfg.Counters.Add(name, 1)
	}
}

// cacheFor returns (lazily opening) the fsstore cache for one schema. All
// schemas share cfg.Dir — entries are schema-tagged in their envelopes and
// content-addressed keys incorporate the schema, so they cannot collide.
func (s *Server) cacheFor(schema string) (*fsstore.Cache, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.caches[schema]; ok {
		return c, nil
	}
	c, err := fsstore.Open(s.cfg.Dir, schema)
	if err != nil {
		return nil, err
	}
	c.Counters = s.cfg.Counters
	s.caches[schema] = c
	return c, nil
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func fail(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// validKey accepts content-addressed keys only: lowercase hex, long enough
// to shard. Anything else could escape the cache layout.
func validKey(key string) bool {
	if len(key) < 3 || len(key) > 128 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// keySchema extracts and validates the {key} path value and ?schema= query
// parameter shared by the entry and lease endpoints.
func keySchema(w http.ResponseWriter, r *http.Request) (key, schema string, ok bool) {
	key = r.PathValue("key")
	if !validKey(key) {
		fail(w, http.StatusBadRequest, "invalid cache key %q", key)
		return "", "", false
	}
	schema = r.URL.Query().Get("schema")
	if schema == "" {
		fail(w, http.StatusBadRequest, "missing schema parameter")
		return "", "", false
	}
	return key, schema, true
}

// handleGetEntry ships the verified envelope bytes for a key. 404 is the
// wire form of a miss — including misses caused by server-side quarantine.
func (s *Server) handleGetEntry(w http.ResponseWriter, r *http.Request) {
	key, schema, ok := keySchema(w, r)
	if !ok {
		return
	}
	c, err := s.cacheFor(schema)
	if err != nil {
		fail(w, http.StatusInternalServerError, "opening cache: %v", err)
		return
	}
	data, ok := c.GetEnvelope(key)
	if !ok {
		s.count("cachehttp.get.miss")
		fail(w, http.StatusNotFound, "no entry for key %s", key[:8])
		return
	}
	s.count("cachehttp.get.hit")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handlePutEntry verifies and commits an envelope. The server re-derives the
// key from the spec and rehashes the result before writing, so a corrupt or
// forged upload can never land in the cache — and because every verified
// writer of a key produces byte-identical envelopes, racing PUTs are safe.
func (s *Server) handlePutEntry(w http.ResponseWriter, r *http.Request) {
	key, schema, ok := keySchema(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		fail(w, http.StatusBadRequest, "reading entry body: %v", err)
		return
	}
	var e cachestore.Entry
	if err := json.Unmarshal(body, &e); err != nil {
		fail(w, http.StatusBadRequest, "decoding entry envelope: %v", err)
		return
	}
	if e.Schema != schema {
		fail(w, http.StatusBadRequest, "envelope schema %q does not match request schema %q", e.Schema, schema)
		return
	}
	if err := e.Verify(key); err != nil {
		s.count("cachehttp.put.rejected")
		fail(w, http.StatusUnprocessableEntity, "envelope failed verification: %v", err)
		return
	}
	c, err := s.cacheFor(schema)
	if err != nil {
		fail(w, http.StatusInternalServerError, "opening cache: %v", err)
		return
	}
	if err := c.Put(key, e.Spec, e.Result); err != nil {
		fail(w, http.StatusInternalServerError, "committing entry: %v", err)
		return
	}
	s.count("cachehttp.put.committed")
	w.WriteHeader(http.StatusNoContent)
}

// handleQuarantine preserves an entry as corruption evidence on behalf of a
// remote reader whose end-to-end verification failed.
func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	key, schema, ok := keySchema(w, r)
	if !ok {
		return
	}
	c, err := s.cacheFor(schema)
	if err != nil {
		fail(w, http.StatusInternalServerError, "opening cache: %v", err)
		return
	}
	if err := c.QuarantineKey(key); err != nil {
		fail(w, http.StatusInternalServerError, "quarantining entry: %v", err)
		return
	}
	s.count("cachehttp.quarantined")
	w.WriteHeader(http.StatusNoContent)
}

// handleLen reports the entry count (all schemas share the directory, so the
// count is layout-wide, mirroring fsstore.Cache.Len locally).
func (s *Server) handleLen(w http.ResponseWriter, r *http.Request) {
	schema := r.URL.Query().Get("schema")
	if schema == "" {
		schema = "any" // Len is schema-independent; any handle counts files
	}
	c, err := s.cacheFor(schema)
	if err != nil {
		fail(w, http.StatusInternalServerError, "opening cache: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Len int `json:"len"`
	}{c.Len()})
}

// leaseRequest is the body of claim/renew/release/poison calls.
type leaseRequest struct {
	Owner    string `json:"owner"`
	Schema   string `json:"schema"`
	SpecHash string `json:"specHash,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"err,omitempty"`
}

// LeaseDoc is the wire form of a lease operation's outcome.
type LeaseDoc struct {
	State       string             `json:"state"` // "acquired" | "busy" | "poisoned"
	Attempt     int                `json:"attempt,omitempty"`
	Reclaimed   bool               `json:"reclaimed,omitempty"`
	Holder      string             `json:"holder,omitempty"`
	RemainingMS int64              `json:"remaining_ms,omitempty"`
	TTLMS       int64              `json:"ttl_ms"`
	Seq         uint64             `json:"seq,omitempty"`
	Poison      *cachestore.Poison `json:"poison,omitempty"`
}

func decodeLeaseRequest(w http.ResponseWriter, r *http.Request) (leaseRequest, bool) {
	var req leaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return req, false
	}
	if req.Owner == "" {
		fail(w, http.StatusBadRequest, "lease request needs an owner")
		return req, false
	}
	return req, true
}

// handleClaim arbitrates one claim on the daemon's clock. Re-claims by the
// current holder are idempotent (a worker retrying a claim whose response was
// lost must not see its own lease as busy).
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		fail(w, http.StatusBadRequest, "invalid cache key %q", key)
		return
	}
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	if req.Schema == "" {
		fail(w, http.StatusBadRequest, "claim needs a schema")
		return
	}
	ttlMS := s.cfg.TTL.Milliseconds()

	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.poisons[key]; ok && p.Schema == req.Schema {
		s.count("cachehttp.lease.poisoned_hit")
		writeJSON(w, http.StatusOK, LeaseDoc{State: "poisoned", TTLMS: ttlMS, Poison: p})
		return
	}
	now := s.now()
	l, held := s.leases[key]
	if held && now.Before(l.expires) {
		if l.owner == req.Owner && l.schema == req.Schema {
			// Idempotent re-claim by the holder: refresh and re-acknowledge.
			l.expires = now.Add(s.cfg.TTL)
			l.seq++
			writeJSON(w, http.StatusOK, LeaseDoc{State: "acquired", Attempt: l.attempt, TTLMS: ttlMS, Seq: l.seq})
			return
		}
		s.count("cachehttp.lease.busy")
		writeJSON(w, http.StatusOK, LeaseDoc{
			State:       "busy",
			Holder:      l.owner,
			RemainingMS: l.expires.Sub(now).Milliseconds(),
			TTLMS:       ttlMS,
		})
		return
	}
	attempt := 1
	reclaimed := false
	if held {
		reclaimed = true
		attempt = l.attempt + 1
		if s.cfg.MaxAttempts > 0 && attempt > s.cfg.MaxAttempts {
			p := &cachestore.Poison{
				Schema:   req.Schema,
				Key:      key,
				Attempts: attempt - 1,
				Err:      fmt.Sprintf("cachehttp: trial reclaimed %d times without completing (worker crash loop)", attempt-1),
			}
			s.poisons[key] = p
			delete(s.leases, key)
			s.count("cachehttp.lease.poisoned")
			writeJSON(w, http.StatusOK, LeaseDoc{State: "poisoned", TTLMS: ttlMS, Poison: p})
			return
		}
	}
	s.leases[key] = &srvLease{
		owner:   req.Owner,
		schema:  req.Schema,
		attempt: attempt,
		seq:     1,
		expires: now.Add(s.cfg.TTL),
	}
	if reclaimed {
		s.count("cachehttp.lease.reclaimed")
	} else {
		s.count("cachehttp.lease.acquired")
	}
	writeJSON(w, http.StatusOK, LeaseDoc{State: "acquired", Attempt: attempt, Reclaimed: reclaimed, TTLMS: ttlMS, Seq: 1})
}

// handleRenew pushes the holder's deadline. 409 tells the client the lease
// is no longer its own (expired and reclaimed, or the daemon restarted).
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		fail(w, http.StatusBadRequest, "invalid cache key %q", key)
		return
	}
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l, held := s.leases[key]
	if !held || l.owner != req.Owner {
		s.count("cachehttp.lease.lost")
		fail(w, http.StatusConflict, "lease on %s is not held by %s", key[:8], req.Owner)
		return
	}
	l.expires = s.now().Add(s.cfg.TTL)
	l.seq++
	writeJSON(w, http.StatusOK, LeaseDoc{State: "acquired", Attempt: l.attempt, TTLMS: s.cfg.TTL.Milliseconds(), Seq: l.seq})
}

// handleRelease removes the holder's lease. Releasing a lease that is not
// yours (or no longer exists) is a successful no-op, mirroring fsstore's
// Release.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		fail(w, http.StatusBadRequest, "invalid cache key %q", key)
		return
	}
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	if l, held := s.leases[key]; held && l.owner == req.Owner {
		delete(s.leases, key)
		s.count("cachehttp.lease.released")
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handlePoison quarantines a trial on the holder's verdict and releases its
// lease, so every peer's next claim fails fast.
func (s *Server) handlePoison(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		fail(w, http.StatusBadRequest, "invalid cache key %q", key)
		return
	}
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	if req.Schema == "" {
		fail(w, http.StatusBadRequest, "poison needs a schema")
		return
	}
	s.mu.Lock()
	s.poisons[key] = &cachestore.Poison{
		Schema:   req.Schema,
		Key:      key,
		SpecHash: req.SpecHash,
		Attempts: req.Attempts,
		Err:      req.Err,
	}
	if l, held := s.leases[key]; held && l.owner == req.Owner {
		delete(s.leases, key)
	}
	s.mu.Unlock()
	s.count("cachehttp.lease.poisoned")
	w.WriteHeader(http.StatusNoContent)
}

// handleSweep drops expired leases among the given keys (or all leases when
// no keys are given) — the post-campaign cleanup pass.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Keys []string `json:"keys"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, "decoding sweep request: %v", err)
		return
	}
	s.mu.Lock()
	now := s.now()
	removed := 0
	sweep := func(key string) {
		if l, held := s.leases[key]; held && !now.Before(l.expires) {
			delete(s.leases, key)
			removed++
		}
	}
	if len(req.Keys) == 0 {
		//lint:sorted sweep deletes independently per key and returns only a count; visit order cannot affect the response
		for key := range s.leases {
			sweep(key)
		}
	} else {
		for _, key := range req.Keys {
			sweep(key)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Removed int `json:"removed"`
	}{removed})
}

// LeaseListDoc is one held lease in the GET /v1/cache/leases listing.
type LeaseListDoc struct {
	Key         string `json:"key"`
	Owner       string `json:"owner"`
	Attempt     int    `json:"attempt"`
	Seq         uint64 `json:"seq"`
	RemainingMS int64  `json:"remaining_ms"`
}

// handleLeases lists unexpired leases — the chaos harness's "zero surviving
// leases" check. Expired leases are purged as a side effect.
func (s *Server) handleLeases(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	now := s.now()
	keys := make([]string, 0, len(s.leases))
	//lint:sorted keys are collected here and sorted below before any order-sensitive use
	for key := range s.leases {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	docs := make([]LeaseListDoc, 0, len(keys))
	for _, key := range keys {
		l := s.leases[key]
		if !now.Before(l.expires) {
			delete(s.leases, key)
			continue
		}
		docs = append(docs, LeaseListDoc{
			Key:         key,
			Owner:       l.owner,
			Attempt:     l.attempt,
			Seq:         l.seq,
			RemainingMS: l.expires.Sub(now).Milliseconds(),
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Leases []LeaseListDoc `json:"leases"`
	}{docs})
}

// handlePutManifest stores a worker manifest shard in the daemon's cache dir
// (atomically, via the fsstore protocol), so merged-manifest tooling on the
// daemon's machine sees remote workers exactly like local ones.
func (s *Server) handlePutManifest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := fsstore.ValidManifestName(name); err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		fail(w, http.StatusBadRequest, "reading manifest body: %v", err)
		return
	}
	if err := fsstore.PutManifestFile(s.cfg.Dir, name, data); err != nil {
		fail(w, http.StatusInternalServerError, "committing manifest: %v", err)
		return
	}
	s.count("cachehttp.manifest.put")
	w.WriteHeader(http.StatusNoContent)
}

// handleGetManifest returns one shard's bytes.
func (s *Server) handleGetManifest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, ok := fsstore.GetManifestFile(s.cfg.Dir, name)
	if !ok {
		fail(w, http.StatusNotFound, "no manifest %q", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleListManifests returns the stored shard names in sorted order.
func (s *Server) handleListManifests(w http.ResponseWriter, r *http.Request) {
	names, err := fsstore.ListManifests(s.cfg.Dir)
	if err != nil {
		fail(w, http.StatusInternalServerError, "listing manifests: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Manifests []string `json:"manifests"`
	}{names})
}
