// Package fsstore is the shared-directory cachestore backend: the original
// on-disk layout, byte-compatible with pre-existing cache dirs. One JSON envelope per trial,
// fanned out over 256 two-hex-digit shards; lease and poison files under
// leases/; quarantined corruption evidence under quarantine/; per-worker
// manifest shards under manifests/. Every worker process that mounts the same
// directory shares one campaign.
package fsstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"gurita/internal/cachestore"
)

// Cache is the on-disk result store: one JSON file per finished trial,
// content-addressed by the trial's key and fanned out over 256 two-hex-digit
// subdirectories (<dir>/ab/abcdef….json) to keep directories small at
// paper-campaign scale.
//
// Robustness over cleverness: a cache entry is trusted only if its envelope
// parses, its schema string matches the cache's, its recorded key matches
// both its filename and the key recomputed from the stored spec, and the
// stored result hash matches the result bytes. A mismatched *schema* is an
// entry from another world — silently a miss, recomputed and overwritten.
// Anything else that fails verification (a torn write that still parses, a
// flipped bit, a hand-edited file) is evidence of corruption: the file is
// moved to <dir>/quarantine/ (never deleted — it is forensic evidence) and
// counted on the runner.cache.quarantined counter, and the read is a miss.
// Writes go through a temp file plus fsync plus rename plus directory fsync
// so a concurrent reader (or a kill -9) never observes a half-written entry
// and a crash cannot un-commit a rename.
type Cache struct {
	dir    string
	schema string

	// Counters, when non-nil, receives runner.cache.* operational counters
	// (the names predate the cachestore split and are kept stable for
	// dashboards and manifest snapshots). Set it before the cache is shared
	// between goroutines.
	Counters cachestore.Counters
}

// Open creates (if needed) and returns the cache rooted at dir. The schema
// string versions the entry contents: entries written under a different
// schema are treated as misses, never as errors.
func Open(dir, schema string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("fsstore: cache dir must not be empty")
	}
	if schema == "" {
		return nil, fmt.Errorf("fsstore: cache schema must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fsstore: creating cache dir: %w", err)
	}
	return &Cache{dir: dir, schema: schema}, nil
}

// Schema returns the schema version this cache validates entries against.
func (c *Cache) Schema() string { return c.schema }

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

func (c *Cache) count(name string) {
	if c.Counters != nil {
		c.Counters.Add(name, 1)
	}
}

// Get returns the cached result JSON for key, compact: the bytes Put was
// given. A missing file, an entry written under a different schema, or a
// legacy entry without a result hash is a plain miss; an entry that fails
// content verification is quarantined (see Cache doc) and also reported as a
// miss.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	e, _, ok := c.getEntry(key)
	return e.Result, ok
}

// GetEnvelope returns the verified raw envelope bytes for key — what the
// cachehttp server ships to remote readers, who re-verify on their end.
// Miss/quarantine semantics are identical to Get.
func (c *Cache) GetEnvelope(key string) ([]byte, bool) {
	_, raw, ok := c.getEntry(key)
	return raw, ok
}

// getEntry reads and verifies the entry for key through
// cachestore.ReadEntry, returning both the verified envelope and its raw
// bytes.
func (c *Cache) getEntry(key string) (cachestore.Entry, []byte, bool) {
	if len(key) < 3 {
		return cachestore.Entry{}, nil, false
	}
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return cachestore.Entry{}, nil, false
	}
	e, out, _ := cachestore.ReadEntry(data, c.schema, key)
	switch out {
	case cachestore.Hit:
		return e, data, true
	case cachestore.Corrupt:
		// A torn write that atomic renames should make impossible, a
		// flipped bit, or a hand edit: preserve it, never silently
		// recompute over it.
		c.quarantine(path)
	}
	return cachestore.Entry{}, nil, false
}

// Stat reports whether an entry file exists for key, without reading or
// verifying it (verification happens on Get).
func (c *Cache) Stat(key string) bool {
	if len(key) < 3 {
		return false
	}
	_, err := os.Stat(c.path(key))
	return err == nil
}

// QuarantineKey moves the entry for key into <dir>/quarantine/, preserving
// it as corruption evidence. Used by remote readers whose end-to-end
// verification failed after transport. Best-effort; a missing entry is not
// an error.
func (c *Cache) QuarantineKey(key string) error {
	if len(key) < 3 {
		return fmt.Errorf("fsstore: cache key %q too short", key)
	}
	if _, err := os.Stat(c.path(key)); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	c.quarantine(c.path(key))
	return nil
}

// quarantine moves a corrupt entry file into <dir>/quarantine/ and counts
// it. Failures are best-effort: quarantine exists to preserve evidence, and
// a read that cannot quarantine still correctly reports a miss.
func (c *Cache) quarantine(path string) {
	qdir := filepath.Join(c.dir, cachestore.QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	//lint:ignore durability best-effort evidence move, not a publish; a crash-torn quarantine still reads as a cache miss
	if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
		return
	}
	c.count("runner.cache.quarantined")
}

// Put persists a finished trial atomically and durably through
// WriteFileAtomic into the entry's own shard, so readers see either the old
// entry, the new entry, or a miss (never a torn write), and a crash
// immediately after Put returns cannot lose the committed entry.
func (c *Cache) Put(key string, spec, result json.RawMessage) error {
	if len(key) < 3 {
		return fmt.Errorf("fsstore: cache key %q too short", key)
	}
	e, err := cachestore.NewEntry(c.schema, key, spec, result)
	if err != nil {
		return fmt.Errorf("fsstore: hashing cache result: %w", err)
	}
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return fmt.Errorf("fsstore: encoding cache entry: %w", err)
	}
	return WriteFileAtomic(c.path(key), "."+key[:8]+".tmp", data)
}

// WriteFileAtomic durably publishes data at path, creating its directory if
// needed: the bytes go to a temp file in that directory named tmpPrefix plus
// a random suffix, which is fsynced and renamed over path, and then the
// directory is fsynced — so readers see the old file, the new file, or none
// (never a torn write), and a crash after it returns cannot un-commit the
// rename. Cache entries, manifest shards and the daemon's campaign manifests
// all go through it.
func WriteFileAtomic(path, tmpPrefix string, data []byte) error {
	dir, name := filepath.Dir(path), filepath.Base(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fsstore: creating %s: %w", dir, err)
	}
	// CreateTemp appends its random suffix to a pattern without a "*".
	tmp, err := os.CreateTemp(dir, tmpPrefix)
	if err != nil {
		return fmt.Errorf("fsstore: creating temp file for %s: %w", name, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fsstore: writing %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fsstore: syncing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fsstore: closing %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fsstore: committing %s: %w", name, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that cannot sync directories (EINVAL/ENOTSUP from network or
// FUSE mounts) are tolerated: the rename is still atomic, only the
// crash-durability window widens. Every other Sync error is a real
// durability failure and propagates.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsstore: opening dir for sync: %w", err)
	}
	err = d.Sync()
	//lint:ignore durability read-only directory handle; Sync's error above is the durable signal
	d.Close()
	if err != nil && (errors.Is(err, fs.ErrInvalid) || errors.Is(err, errors.ErrUnsupported)) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fsstore: syncing dir: %w", err)
	}
	return nil
}

// Len walks the cache and counts valid-looking entry files (by name only;
// entries are fully validated on Get). The multi-process bookkeeping
// subtrees (per cachestore.IsBookkeeping) are not entries and are skipped.
// Intended for tooling and tests.
func (c *Cache) Len() int {
	n := 0
	_ = filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if cachestore.IsBookkeeping(d.Name()) && filepath.Dir(path) == c.dir {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}
