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
	"sync/atomic"
	"time"

	"gurita/internal/cachestore"
)

// Config parameterizes a Store.
type Config struct {
	// Dir is the shared cache root. Created if absent.
	Dir string
	// Schema versions entries, leases, and poison markers.
	Schema string
	// Owner is this process's lease identity (host-pid works); it must be
	// unique across live workers sharing Dir and filename-safe. Leave it
	// empty for a single-process store: no lease side is opened, no leases/
	// subdirectory is created, and lease calls return an error.
	Owner string
	// TTL is the staleness threshold: a lease whose (owner, seq) pair has
	// been observed unchanged for longer than TTL may be reclaimed by any
	// peer. Zero means 5s.
	TTL time.Duration
	// Heartbeat is the renewal period; it must be well under TTL or a busy
	// worker looks dead. Zero means TTL/3.
	Heartbeat time.Duration
	// MaxAttempts bounds how many times a trial may be claimed across all
	// workers before it is poisoned (quarantined). Zero means 5; a negative
	// value disables the budget.
	MaxAttempts int
	// Counters, when non-nil, receives the store's operational counters.
	Counters cachestore.Counters
}

// Store is one process's handle on one cache root: the on-disk Cache, the
// manifests/ subtree, and — when opened with an Owner — the cross-process
// lease protocol over leases/ (see lease.go). It is safe for concurrent use.
//
// The lease side keeps one entry per acquired key: campaign grids
// deduplicate keys before execution and the lease protocol itself admits one
// holder per key, so one acquisition per key per process is an invariant,
// not a limitation.
type Store struct {
	cache *Cache

	// The lease side; leaseDir is empty for a store opened without Owner.
	leaseDir    string
	owner       string
	ttl         time.Duration
	heartbeat   time.Duration
	maxAttempts int
	// clock replaces the wall clock in tests; nil means time.Now.
	clock func() time.Time

	mu   sync.Mutex
	held map[string]bool        // acquired keys → a renewal found the lease taken over
	seen map[string]observation // (owner, seq) sightings, the basis of staleness

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
	s := &Store{cache: c}
	if cfg.Owner == "" {
		return s, nil
	}
	if strings.ContainsAny(cfg.Owner, "/\x00") {
		return nil, fmt.Errorf("fsstore: owner %q must be filename-safe", cfg.Owner)
	}
	s.leaseDir = filepath.Join(cfg.Dir, cachestore.LeaseSubdir)
	if err := os.MkdirAll(s.leaseDir, 0o755); err != nil {
		return nil, fmt.Errorf("fsstore: creating lease dir: %w", err)
	}
	s.owner, s.ttl, s.heartbeat, s.maxAttempts = cfg.Owner, cfg.TTL, cfg.Heartbeat, cfg.MaxAttempts
	if s.ttl <= 0 {
		s.ttl = defaultTTL
	}
	if s.heartbeat <= 0 {
		s.heartbeat = s.ttl / 3
	}
	if s.maxAttempts == 0 {
		s.maxAttempts = defaultMaxAttempts
	}
	s.held = make(map[string]bool)
	s.seen = make(map[string]observation)
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
func (s *Store) Owner() string { return s.owner }

// TTL returns the lease staleness threshold (0 without a lease side).
func (s *Store) TTL() time.Duration { return s.ttl }

// HeartbeatEvery returns the lease renewal period (0 without a lease side).
func (s *Store) HeartbeatEvery() time.Duration { return s.heartbeat }

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
