package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/fsstore"
)

// countingCounters is a minimal Counters for asserting emission.
type countingCounters struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *countingCounters) Add(name string, d int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]int64{}
	}
	c.m[name] += d
}

func (c *countingCounters) get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// putTrial stores a valid entry for spec and returns its key and file path.
func putTrial(t *testing.T, c *fsstore.Cache, spec trial) (string, string) {
	t.Helper()
	key := mustKey(t, c.Schema(), spec)
	specJSON, _ := json.Marshal(spec)
	resultJSON, _ := json.Marshal(run(spec))
	if err := c.Put(key, specJSON, resultJSON); err != nil {
		t.Fatal(err)
	}
	return key, filepath.Join(c.Dir(), key[:2], key+".json")
}

func quarantined(t *testing.T, c *fsstore.Cache) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(c.Dir(), cachestore.QuarantineDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func TestCacheResultTamperQuarantined(t *testing.T) {
	c := openStore(t, t.TempDir(), "v1").Cache()
	ctr := &countingCounters{}
	c.Counters = ctr
	key, path := putTrial(t, c, trial{Name: "tamper", Seed: 4})

	// Flip the result payload without breaking JSON: the envelope still
	// parses, the schema and key still match — only the hash check can
	// catch it.
	data, _ := os.ReadFile(path)
	mangled := strings.Replace(string(data), `"value":`, `"value": 1e9, "x":`, 1)
	if mangled == string(data) {
		t.Fatal("test setup: result payload not found in envelope")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("tampered entry served as a hit")
	}
	if got := quarantined(t, c); len(got) != 1 || got[0] != key+".json" {
		t.Fatalf("quarantine dir = %v, want [%s.json]", got, key)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("tampered entry left in place")
	}
	if n := ctr.get("runner.cache.quarantined"); n != 1 {
		t.Errorf("quarantined counter = %d, want 1", n)
	}
	// A re-Put over the quarantined key works and reads back clean.
	key2, _ := putTrial(t, c, trial{Name: "tamper", Seed: 4})
	if key2 != key {
		t.Fatal("key changed")
	}
	if _, ok := c.Get(key); !ok {
		t.Error("recomputed entry missing after quarantine")
	}
}

func TestCacheSpecSwapQuarantined(t *testing.T) {
	c := openStore(t, t.TempDir(), "v1").Cache()
	ctr := &countingCounters{}
	c.Counters = ctr
	key, path := putTrial(t, c, trial{Name: "original", Seed: 1})

	// Swap the stored spec: recorded key and result hash still match, but
	// the key no longer re-derives from the spec — the entry lies about
	// what produced its result.
	data, _ := os.ReadFile(path)
	mangled := strings.Replace(string(data), `"original"`, `"replaced"`, 1)
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("spec-swapped entry served as a hit")
	}
	if n := ctr.get("runner.cache.quarantined"); n != 1 {
		t.Errorf("quarantined counter = %d, want 1", n)
	}
}

func TestCacheUnparsableQuarantined(t *testing.T) {
	c := openStore(t, t.TempDir(), "v1").Cache()
	ctr := &countingCounters{}
	c.Counters = ctr
	key, path := putTrial(t, c, trial{Name: "torn", Seed: 2})
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if got := quarantined(t, c); len(got) != 1 {
		t.Fatalf("quarantine dir = %v", got)
	}
	if n := ctr.get("runner.cache.quarantined"); n != 1 {
		t.Errorf("quarantined counter = %d, want 1", n)
	}
}

func TestCacheSchemaMismatchIsPlainMiss(t *testing.T) {
	dir := t.TempDir()
	v1 := openStore(t, dir, "v1").Cache()
	ctr := &countingCounters{}
	v1.Counters = ctr
	spec := trial{Name: "legacy", Seed: 3}
	putTrial(t, v1, spec)

	// The same entry under a v2 cache is stale, not corrupt: plain miss,
	// no quarantine. (The v2 key differs, so ask with the v1 key's file in
	// place under v2's view of that key — i.e. same filename lookup.)
	v2 := openStore(t, dir, "v2").Cache()
	v2.Counters = ctr
	v1Key := mustKey(t, "v1", spec)
	if _, ok := v2.Get(v1Key); ok {
		t.Fatal("foreign-schema entry served as a hit")
	}
	if got := quarantined(t, v2); len(got) != 0 {
		t.Fatalf("foreign-schema entry quarantined: %v", got)
	}
	if n := ctr.get("runner.cache.quarantined"); n != 0 {
		t.Errorf("quarantined counter = %d, want 0", n)
	}
	// And it is still a valid hit under its own schema.
	if _, ok := v1.Get(v1Key); !ok {
		t.Error("entry lost under its own schema")
	}
}

func TestCacheLegacyEntryWithoutHashIsPlainMiss(t *testing.T) {
	c := openStore(t, t.TempDir(), "v1").Cache()
	ctr := &countingCounters{}
	c.Counters = ctr
	spec := trial{Name: "old", Seed: 6}
	key := mustKey(t, "v1", spec)
	specJSON, _ := json.Marshal(spec)
	resultJSON, _ := json.Marshal(run(spec))
	// Hand-write a pre-hash-era envelope (no result_sha256).
	legacy, _ := json.MarshalIndent(cachestore.Entry{Schema: "v1", Key: key, Spec: specJSON, Result: resultJSON}, "", " ")
	if err := os.MkdirAll(filepath.Join(c.Dir(), key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), key[:2], key+".json"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("legacy unverifiable entry served as a hit")
	}
	if got := quarantined(t, c); len(got) != 0 {
		t.Fatalf("legacy entry quarantined: %v", got)
	}
}

// TestCacheEscapedSpecVerifies pins the canonical-JSON subtlety the key
// recomputation depends on: specs containing HTML-escapable characters
// ('<', '>', '&') must re-derive their key from the stored envelope.
func TestCacheEscapedSpecVerifies(t *testing.T) {
	c := openStore(t, t.TempDir(), "v1").Cache()
	spec := trial{Name: "a<b>&c", Seed: 8}
	key, _ := putTrial(t, c, spec)
	raw, ok := c.Get(key)
	if !ok {
		t.Fatal("escaped-spec entry missed (key recomputation broke on HTML escaping)")
	}
	var got outcome
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != run(spec) {
		t.Fatalf("result = %+v", got)
	}
}

func TestCacheLenSkipsBookkeepingSubtrees(t *testing.T) {
	c := openStore(t, t.TempDir(), "v1").Cache()
	putTrial(t, c, trial{Name: "one", Seed: 1})
	putTrial(t, c, trial{Name: "two", Seed: 2})
	for _, sub := range cachestore.BookkeepingSubdirs() {
		dir := filepath.Join(c.Dir(), sub)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "not-an-entry.json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2 (bookkeeping files counted as entries)", n)
	}
}
