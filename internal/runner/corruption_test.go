package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
)

// corruptFile applies one of three seeded corruptions in place: truncation,
// a flipped byte, or wholesale garbage.
func corruptFile(t *testing.T, rng *rand.Rand, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	switch rng.Intn(3) {
	case 0: // truncate somewhere inside
		if len(data) > 1 {
			data = data[:1+rng.Intn(len(data)-1)]
		}
	case 1: // flip one byte
		if len(data) > 0 {
			i := rng.Intn(len(data))
			data[i] ^= byte(1 + rng.Intn(255))
		}
	default: // replace with garbage
		g := make([]byte, 16+rng.Intn(64))
		rng.Read(g)
		data = g
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeUnderCorruption is the property test for the crash-tolerance
// story end to end: a campaign is drained partway, its on-disk state (cache
// entries AND lease files) is randomly corrupted, and the resume must still
// complete with results identical to the reference run — every loss repaid
// by a verified re-execution, every corrupt entry quarantined and counted,
// and no lease files surviving.
func TestResumeUnderCorruption(t *testing.T) {
	specs := grid(16)
	exec := func(_ context.Context, s trial) (outcome, error) {
		return run(s), nil
	}
	reference := make([]outcome, len(specs))
	for i, s := range specs {
		reference[i] = run(s)
	}

	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()

			// Phase 1: run with a drain pulled after a few completions, so
			// the cache is partially populated — the state a killed worker
			// fleet leaves behind.
			drain := make(chan struct{})
			var once sync.Once
			var done atomic.Int64
			stopAfter := int64(3 + rng.Intn(8))
			w1 := leaseStore(t, dir, "w1")
			_, _, err := Run(context.Background(), specs, func(ctx context.Context, s trial) (outcome, error) {
				if done.Add(1) == stopAfter {
					once.Do(func() { close(drain) })
				}
				return run(s), nil
			}, Options{Workers: 2, Store: w1, StoreLeases: w1, Drain: drain})
			if err != nil && !errors.Is(err, ErrDrained) {
				t.Fatal(err)
			}

			// Phase 2: corrupt a random subset of cache entries and plant
			// mangled + stale lease files where the "killed" workers would
			// have left them.
			var entryPaths []string
			_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return nil
				}
				if strings.HasSuffix(path, ".json") && !strings.Contains(path, cachestore.LeaseSubdir) {
					entryPaths = append(entryPaths, path)
				}
				return nil
			})
			corrupted := 0
			for _, p := range entryPaths {
				if rng.Intn(2) == 0 {
					corruptFile(t, rng, p)
					corrupted++
				}
			}
			leaseDir := filepath.Join(dir, cachestore.LeaseSubdir)
			past := time.Now().Add(-time.Hour)
			for i := 0; i < 3; i++ {
				key := mustKey(t, "v1", specs[rng.Intn(len(specs))])
				lp := filepath.Join(leaseDir, key+".lease")
				var blob []byte
				if rng.Intn(2) == 0 {
					blob = []byte("{torn-lease")
				} else {
					blob = []byte(fmt.Sprintf(`{"schema":"v1","key":"%s","owner":"ghost%d","attempt":1}`, key, i))
				}
				if err := os.WriteFile(lp, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Chtimes(lp, past, past); err != nil {
					t.Fatal(err)
				}
			}

			// Phase 3: resume. The campaign must complete, re-executing
			// exactly what was lost, byte-identically.
			ctr := &countingCounters{}
			w2 := leaseStore(t, dir, "w2", func(c *fsstore.Config) { c.Counters = ctr })
			res, stats, err := Run(context.Background(), specs, exec, Options{
				Workers: 2, Store: w2, StoreLeases: w2,
			})
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			for i := range specs {
				if res[i] != reference[i] {
					t.Fatalf("trial %d = %+v, want %+v (resume not identical)", i, res[i], reference[i])
				}
			}
			if stats.Executed+stats.CacheHits+stats.DedupHits != len(specs) {
				t.Errorf("accounting hole: %+v", stats)
			}
			// Every corrupted-but-parsable-loss shows up either as a
			// quarantine (tamper) or as a plain re-execution (truncation
			// that killed the envelope → quarantined too, since it fails to
			// parse). Structural bound: quarantine dir matches the counter.
			q := quarantined(t, w2.Cache())
			if int64(len(q)) != ctr.get("runner.cache.quarantined") {
				t.Errorf("quarantine dir has %d files, counter says %d", len(q), ctr.get("runner.cache.quarantined"))
			}
			if corrupted > 0 && stats.Executed == 0 {
				t.Errorf("corrupted %d entries but nothing re-executed", corrupted)
			}
			// Stale ghost leases must have been reclaimed or swept: none left.
			if files := leaseFiles(t, dir); len(files) != 0 {
				t.Errorf("lease files left after resume: %v", files)
			}
			// Reclaims observed for ghost leases on trials that needed
			// re-execution are reflected in stats and counters identically.
			if int64(stats.Reclaims) != ctr.get("lease.reclaimed") {
				t.Errorf("stats.Reclaims = %d, counter = %d", stats.Reclaims, ctr.get("lease.reclaimed"))
			}
		})
	}
}
