package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gurita/internal/cachestore"
)

// WorkerManifest is one worker process's account of a multi-process
// campaign: its share of the work, its failures, and a snapshot of its
// operational counters. Each worker writes its own shard under
// <cache>/manifests/ (named by owner and grid hash, so reruns overwrite
// rather than accumulate), and any process merges the shards into the
// campaign-wide view with MergeWorkerManifests.
type WorkerManifest struct {
	// Schema versions the manifest format and ties shards to the campaign
	// schema they ran under; merging rejects mixed schemas.
	Schema string `json:"schema"`
	// Owner is the worker's lease owner id.
	Owner string `json:"owner"`
	// Grid identifies the spec grid: GridHash over the trial keys. Shards
	// from different grids never merge.
	Grid string `json:"grid"`

	Total     int `json:"total"`
	Executed  int `json:"executed"`
	CacheHits int `json:"cacheHits"`
	DedupHits int `json:"dedupHits"`
	Retries   int `json:"retries"`
	Skipped   int `json:"skipped"`
	Reclaims  int `json:"reclaims"`
	LeaseLost int `json:"leaseLost"`

	// Failures is the worker's failure manifest (grid order).
	Failures []TrialFailure `json:"failures,omitempty"`
	// Counters is a snapshot of the worker's obs counters (lease.*,
	// runner.cache.*, …) at manifest-write time.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// NewWorkerManifest assembles a shard from a finished campaign's stats.
func NewWorkerManifest(schema, owner, grid string, stats Stats, counters map[string]int64) WorkerManifest {
	return WorkerManifest{
		Schema:    schema,
		Owner:     owner,
		Grid:      grid,
		Total:     stats.Total,
		Executed:  stats.Executed,
		CacheHits: stats.CacheHits,
		DedupHits: stats.DedupHits,
		Retries:   stats.Retries,
		Skipped:   stats.Skipped,
		Reclaims:  stats.Reclaims,
		LeaseLost: stats.LeaseLost,
		Failures:  stats.Failures,
		Counters:  counters,
	}
}

// GridHash is the content address of a spec grid: the hex SHA-256 over the
// ordered trial keys. Workers running the same grid under the same schema
// derive the same hash, which is what lets their shards find each other.
func GridHash(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// manifestDir is where shards live inside a cache root.
func manifestDir(cacheDir string) string {
	return filepath.Join(cacheDir, cachestore.ManifestSubdir)
}

// ManifestName is the canonical shard filename for an owner on a grid:
// <owner>-<grid[:8]>.json. Reruns by the same owner on the same grid
// overwrite their shard instead of accumulating.
func ManifestName(owner, grid string) string {
	if len(grid) > 8 {
		grid = grid[:8]
	}
	return fmt.Sprintf("%s-%s.json", owner, grid)
}

// EncodeWorkerManifest renders a shard's bytes, which callers publish under
// ManifestName through cachestore.ManifestStore.PutManifest.
func EncodeWorkerManifest(m WorkerManifest) ([]byte, error) {
	if m.Owner == "" || m.Grid == "" || m.Schema == "" {
		return nil, fmt.Errorf("runner: worker manifest needs owner, grid, and schema")
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return nil, fmt.Errorf("runner: encoding worker manifest: %w", err)
	}
	return data, nil
}

// LoadWorkerManifests reads every shard under <cacheDir>/manifests/ that
// matches the given schema and grid hash (empty grid matches all grids).
// Unparsable shards are skipped — a half-dead worker must not block the
// merged view. Shards come back sorted by owner for deterministic merging.
func LoadWorkerManifests(cacheDir, schema, grid string) ([]WorkerManifest, error) {
	entries, err := os.ReadDir(manifestDir(cacheDir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: reading manifest dir: %w", err)
	}
	var out []WorkerManifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(manifestDir(cacheDir), e.Name()))
		if rerr != nil {
			continue
		}
		var m WorkerManifest
		if json.Unmarshal(data, &m) != nil || m.Schema != schema {
			continue
		}
		if grid != "" && m.Grid != grid {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out, nil
}

// MergedFailure is one failed spec in the campaign-wide view: every
// worker's verdict on the same spec hash folded together.
type MergedFailure struct {
	// SpecHash identifies the spec (schema-independent).
	SpecHash string `json:"specHash"`
	// Key is the trial's cache key under the merged schema.
	Key string `json:"key,omitempty"`
	// Workers lists the owners that reported the failure, sorted.
	Workers []string `json:"workers"`
	// Attempts sums the execution attempts spent across all workers.
	Attempts int `json:"attempts"`
	// Panicked/TimedOut/Quarantined are true if any worker reported them.
	Panicked    bool `json:"panicked,omitempty"`
	TimedOut    bool `json:"timedOut,omitempty"`
	Quarantined bool `json:"quarantined,omitempty"`
	// Errs holds the distinct error texts reported, sorted.
	Errs []string `json:"errs"`
}

// MergedManifest is the campaign-wide aggregation of worker shards.
type MergedManifest struct {
	Schema  string   `json:"schema"`
	Grid    string   `json:"grid,omitempty"`
	Workers []string `json:"workers"`

	Total     int `json:"total"`
	Executed  int `json:"executed"`
	CacheHits int `json:"cacheHits"`
	DedupHits int `json:"dedupHits"`
	Retries   int `json:"retries"`
	Skipped   int `json:"skipped"`
	Reclaims  int `json:"reclaims"`
	LeaseLost int `json:"leaseLost"`

	// Failures aggregates by spec hash, sorted by spec hash: N workers
	// failing one trial is one campaign failure with N witnesses, not N
	// failures.
	Failures []MergedFailure `json:"failures,omitempty"`
	// Counters sums the workers' counter snapshots.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// MergeWorkerManifests folds worker shards into the campaign-wide view.
// Total is taken as the max across shards (every worker sees the whole
// grid); the per-outcome tallies sum (each trial's execution happened in
// exactly one worker, modulo harmless takeover duplicates which show up
// here as Executed+DedupHits exceeding Total — visible, not hidden).
// Shards must share one schema; mixed schemas are an error.
func MergeWorkerManifests(shards []WorkerManifest) (MergedManifest, error) {
	var out MergedManifest
	if len(shards) == 0 {
		return out, nil
	}
	out.Schema = shards[0].Schema
	out.Grid = shards[0].Grid
	out.Counters = map[string]int64{}
	byHash := map[string]*MergedFailure{}
	for _, s := range shards {
		if s.Schema != out.Schema {
			return MergedManifest{}, fmt.Errorf("runner: merging manifests across schemas (%q vs %q)", s.Schema, out.Schema)
		}
		if s.Grid != out.Grid {
			return MergedManifest{}, fmt.Errorf("runner: merging manifests across grids (%s vs %s)", shortKey(s.Grid), shortKey(out.Grid))
		}
		out.Workers = append(out.Workers, s.Owner)
		if s.Total > out.Total {
			out.Total = s.Total
		}
		out.Executed += s.Executed
		out.CacheHits += s.CacheHits
		out.DedupHits += s.DedupHits
		out.Retries += s.Retries
		out.Skipped += s.Skipped
		out.Reclaims += s.Reclaims
		out.LeaseLost += s.LeaseLost
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for _, f := range s.Failures {
			hash := f.SpecHash
			if hash == "" {
				// A failure without a spec hash (legacy shard) aggregates by
				// key so it is never silently dropped.
				hash = "key:" + f.Key
			}
			mf, ok := byHash[hash]
			if !ok {
				mf = &MergedFailure{SpecHash: f.SpecHash, Key: f.Key}
				byHash[hash] = mf
			}
			mf.Workers = append(mf.Workers, s.Owner)
			mf.Attempts += f.Attempts
			mf.Panicked = mf.Panicked || f.Panicked
			mf.TimedOut = mf.TimedOut || f.TimedOut
			mf.Quarantined = mf.Quarantined || f.Quarantined
			mf.Errs = append(mf.Errs, f.Err)
		}
	}
	sort.Strings(out.Workers)
	hashes := make([]string, 0, len(byHash))
	for hash := range byHash {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	for _, hash := range hashes {
		mf := byHash[hash]
		sort.Strings(mf.Workers)
		sort.Strings(mf.Errs)
		mf.Errs = dedupSorted(mf.Errs)
		out.Failures = append(out.Failures, *mf)
	}
	if len(out.Counters) == 0 {
		out.Counters = nil
	}
	return out, nil
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
