package fsstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/lease"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the shared cache root. Created if absent.
	Dir string
	// Schema versions entries, leases, and poison markers.
	Schema string
	// Owner is this process's lease identity (host-pid works). Leave it
	// empty for a single-process store: no lease manager is opened, no
	// leases/ subdirectory is created, and lease calls return an error.
	Owner string
	// TTL / Heartbeat / MaxAttempts tune the lease protocol; zero values take
	// the lease package defaults.
	TTL         time.Duration
	Heartbeat   time.Duration
	MaxAttempts int
	// Counters, when non-nil, receives the store's operational counters.
	Counters cachestore.Counters
}

// Store adapts the shared-directory layout (Cache + lease.Manager + the
// manifests/ subtree) to the cachestore interfaces. One Store is one
// process's handle on one cache root; it is safe for concurrent use.
//
// The lease side keeps one *lease.Claim handle per acquired key: campaign
// grids deduplicate keys before execution and the lease protocol itself
// admits one holder per key, so a single handle per key per process is an
// invariant, not a limitation.
type Store struct {
	cache *Cache
	mgr   *lease.Manager

	mu     sync.Mutex
	claims map[string]*lease.Claim
}

var (
	_ cachestore.Store         = (*Store)(nil)
	_ cachestore.LeaseStore    = (*Store)(nil)
	_ cachestore.ManifestStore = (*Store)(nil)
)

// errNoOwner is what the lease side of a Store opened without an Owner
// returns.
var errNoOwner = errors.New("fsstore: store opened without Config.Owner has no leases")

// OpenStore opens (creating if needed) the filesystem store at cfg.Dir. The
// lease side is opened only when cfg.Owner is set.
func OpenStore(cfg Config) (*Store, error) {
	c, err := Open(cfg.Dir, cfg.Schema)
	if err != nil {
		return nil, err
	}
	c.Counters = cfg.Counters
	s := &Store{cache: c, claims: make(map[string]*lease.Claim)}
	if cfg.Owner == "" {
		return s, nil
	}
	s.mgr, err = lease.Open(lease.Config{
		Dir:         filepath.Join(cfg.Dir, cachestore.LeaseSubdir),
		Owner:       cfg.Owner,
		Schema:      cfg.Schema,
		TTL:         cfg.TTL,
		Heartbeat:   cfg.Heartbeat,
		MaxAttempts: cfg.MaxAttempts,
		Counters:    cfg.Counters,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Cache returns the underlying on-disk cache.
func (s *Store) Cache() *Cache { return s.cache }

// Schema returns the schema version entries are validated against.
func (s *Store) Schema() string { return s.cache.Schema() }

// Get returns the verified cached result for key; see Cache.Get.
func (s *Store) Get(_ context.Context, key string) (json.RawMessage, bool) {
	return s.cache.Get(key)
}

// Put persists a finished trial atomically and durably; see Cache.Put.
func (s *Store) Put(_ context.Context, key string, spec, result json.RawMessage) error {
	return s.cache.Put(key, spec, result)
}

// Stat reports whether an entry file exists for key.
func (s *Store) Stat(_ context.Context, key string) bool { return s.cache.Stat(key) }

// Quarantine preserves the entry for key as corruption evidence.
func (s *Store) Quarantine(_ context.Context, key string) error {
	return s.cache.QuarantineKey(key)
}

// Len counts stored entries, excluding bookkeeping subtrees.
func (s *Store) Len(_ context.Context) int { return s.cache.Len() }

// Owner returns the lease identity ("" without a lease side).
func (s *Store) Owner() string {
	if s.mgr == nil {
		return ""
	}
	return s.mgr.Owner()
}

// TTL returns the lease staleness threshold (0 without a lease side).
func (s *Store) TTL() time.Duration {
	if s.mgr == nil {
		return 0
	}
	return s.mgr.TTL()
}

// HeartbeatEvery returns the lease renewal period (0 without a lease side).
func (s *Store) HeartbeatEvery() time.Duration {
	if s.mgr == nil {
		return 0
	}
	return s.mgr.Heartbeat()
}

// Claim attempts to take the lease for key; see lease.Manager.Claim.
func (s *Store) Claim(_ context.Context, key string) (cachestore.Lease, error) {
	if s.mgr == nil {
		return cachestore.Lease{}, errNoOwner
	}
	c, err := s.mgr.Claim(key)
	if err != nil {
		return cachestore.Lease{}, err
	}
	switch c.State {
	case lease.StateAcquired:
		s.mu.Lock()
		s.claims[key] = c
		s.mu.Unlock()
		return cachestore.Lease{State: cachestore.LeaseAcquired, Attempt: c.Attempt, Reclaimed: c.Reclaimed}, nil
	case lease.StatePoisoned:
		return cachestore.Lease{State: cachestore.LeasePoisoned, Poison: convertPoison(c.Poison)}, nil
	default:
		return cachestore.Lease{State: cachestore.LeaseBusy, Holder: c.Holder, Remaining: c.Remaining}, nil
	}
}

// claim returns (without removing) the held handle for key.
func (s *Store) claim(key string) *lease.Claim {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.claims[key]
}

// takeClaim removes and returns the held handle for key.
func (s *Store) takeClaim(key string) *lease.Claim {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.claims[key]
	delete(s.claims, key)
	return c
}

// Renew extends the acquired lease on key by one logical heartbeat.
func (s *Store) Renew(_ context.Context, key string) error {
	c := s.claim(key)
	if c == nil {
		return cachestore.ErrLeaseLost
	}
	if err := c.Renew(); err != nil {
		if errors.Is(err, lease.ErrLost) {
			return cachestore.ErrLeaseLost
		}
		return err
	}
	return nil
}

// Release ends the acquired lease on key. Safe on lost or unknown leases.
func (s *Store) Release(_ context.Context, key string) {
	if c := s.takeClaim(key); c != nil {
		c.Release()
	}
}

// PoisonKey quarantines the claimed trial and releases the lease.
func (s *Store) PoisonKey(_ context.Context, key, specHash string, attempts int, cause error) error {
	c := s.takeClaim(key)
	if c == nil {
		return cachestore.ErrLeaseLost
	}
	return c.PoisonTrial(specHash, attempts, cause)
}

// Sweep removes stale leases among keys; see lease.Manager.Sweep.
func (s *Store) Sweep(_ context.Context, keys []string) int {
	if s.mgr == nil {
		return 0
	}
	return s.mgr.Sweep(keys)
}

// LeaseStats snapshots the lease manager's lifetime counters.
func (s *Store) LeaseStats() cachestore.LeaseStats {
	if s.mgr == nil {
		return cachestore.LeaseStats{}
	}
	st := s.mgr.Stats()
	return cachestore.LeaseStats{
		Acquired:  st.Acquired,
		Reclaimed: st.Reclaimed,
		Lost:      st.Lost,
		Released:  st.Released,
		Poisoned:  st.Poisoned,
	}
}

func convertPoison(p *lease.Poison) *cachestore.Poison {
	if p == nil {
		return nil
	}
	return &cachestore.Poison{
		Schema:   p.Schema,
		Key:      p.Key,
		SpecHash: p.SpecHash,
		Attempts: p.Attempts,
		Err:      p.Err,
	}
}

// PutManifest atomically writes (or overwrites) the named manifest shard.
func (s *Store) PutManifest(_ context.Context, name string, data []byte) error {
	return PutManifestFile(s.cache.Dir(), name, data)
}

// Manifests returns the stored shard names in sorted order.
func (s *Store) Manifests(_ context.Context) ([]string, error) {
	return ListManifests(s.cache.Dir())
}

// GetManifest returns the named shard's bytes.
func (s *Store) GetManifest(_ context.Context, name string) ([]byte, bool) {
	return GetManifestFile(s.cache.Dir(), name)
}

// PutManifestFile atomically writes (or overwrites) a manifest shard under
// <cacheDir>/manifests/. Package-level so the cachehttp server shares the
// exact write protocol without opening a Store.
func PutManifestFile(cacheDir, name string, data []byte) error {
	if err := ValidManifestName(name); err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(cacheDir, cachestore.ManifestSubdir, name), "."+name+".tmp", data)
}

// ListManifests returns the shard names under <cacheDir>/manifests/ in
// sorted order. Atomic-write temp files (dot-prefixed) are excluded.
func ListManifests(cacheDir string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(cacheDir, cachestore.ManifestSubdir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fsstore: reading manifest dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// GetManifestFile returns the named shard's bytes from <cacheDir>/manifests/.
func GetManifestFile(cacheDir, name string) ([]byte, bool) {
	if ValidManifestName(name) != nil {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(cacheDir, cachestore.ManifestSubdir, name))
	if err != nil {
		return nil, false
	}
	return data, true
}

// ValidManifestName rejects names that could escape the manifests/ subtree
// or collide with atomic-write temp files.
func ValidManifestName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\\x00") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("fsstore: manifest name %q must be a plain filename", name)
	}
	return nil
}
