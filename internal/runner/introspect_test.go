package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"gurita/internal/cachestore"
)

func fetchDoc(t *testing.T, addr, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	return doc
}

func TestIntrospectorServesProgress(t *testing.T) {
	in, err := NewIntrospector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// Before any update: zeroed snapshot, still valid JSON.
	doc := fetchDoc(t, in.Addr(), "/campaign")
	if doc["total"].(float64) != 0 {
		t.Fatalf("pre-update total = %v", doc["total"])
	}

	in.Update(Progress{
		Done: 5, Total: 10, CacheHits: 2, Failures: 1, Retries: 3,
		Elapsed: 2 * time.Second, ETA: 4 * time.Second,
	})
	doc = fetchDoc(t, in.Addr(), "/campaign")
	if doc["done"].(float64) != 5 || doc["total"].(float64) != 10 {
		t.Fatalf("progress: %v", doc)
	}
	if doc["cache_hit_rate"].(float64) != 0.4 {
		t.Fatalf("cache_hit_rate = %v, want 0.4", doc["cache_hit_rate"])
	}
	if doc["failures"].(float64) != 1 || doc["retries"].(float64) != 3 {
		t.Fatalf("failures/retries: %v", doc)
	}
	if doc["running"] != true {
		t.Fatalf("running = %v", doc["running"])
	}

	// Root path serves the same document.
	root := fetchDoc(t, in.Addr(), "/")
	if root["done"].(float64) != 5 {
		t.Fatalf("root path: %v", root)
	}

	in.Finish(Stats{Total: 10, Executed: 7, CacheHits: 2, Retries: 3,
		Failures: []TrialFailure{{Index: 4}}, Elapsed: 6 * time.Second})
	doc = fetchDoc(t, in.Addr(), "/campaign")
	if doc["running"] != false {
		t.Fatalf("finished campaign still running: %v", doc)
	}
	if doc["done"].(float64) != 10 {
		t.Fatalf("final done = %v", doc["done"])
	}
}

// TestIntrospectorConcurrentScrapes hammers the endpoint from several
// scraper goroutines while a campaign is publishing updates. Every scraped
// body must decode strictly as a ProgressDoc (unknown fields are schema
// drift), and every snapshot must be internally consistent — no torn reads.
// Run under -race, this is also the data-race proof for Update/Finish/handle.
func TestIntrospectorConcurrentScrapes(t *testing.T) {
	in, err := NewIntrospector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	const total = 40
	specs := make([]int, total)
	for i := range specs {
		specs[i] = i
	}

	stop := make(chan struct{})
	scrapeErr := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + in.Addr() + "/campaign")
				if err != nil {
					select {
					case scrapeErr <- err:
					default:
					}
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					continue // a scrape racing Close may be cut off; not a schema problem
				}
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				var doc ProgressDoc
				if err := dec.Decode(&doc); err != nil {
					select {
					case scrapeErr <- fmt.Errorf("scrape is not a strict ProgressDoc: %v\n%s", err, body):
					default:
					}
					return
				}
				if doc.Total != 0 && doc.Total != total {
					select {
					case scrapeErr <- fmt.Errorf("torn snapshot: total = %d", doc.Total):
					default:
					}
					return
				}
				if doc.Done < 0 || doc.Done > total || doc.CacheHits > doc.Done {
					select {
					case scrapeErr <- fmt.Errorf("inconsistent snapshot: %+v", doc):
					default:
					}
					return
				}
			}
		}()
	}

	_, stats, err := Run(context.Background(), specs, func(_ context.Context, s int) (int, error) {
		time.Sleep(200 * time.Microsecond) // keep the campaign alive across many scrapes
		return s, nil
	}, Options{Workers: 4, Progress: in.Update})
	if err != nil {
		t.Fatal(err)
	}
	in.Finish(stats)

	close(stop)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// The terminal snapshot reports the finished campaign.
	var final ProgressDoc
	resp, err := http.Get("http://" + in.Addr() + "/campaign")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	err = dec.Decode(&final)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if final.Running || final.Done != total || final.Total != total {
		t.Fatalf("final snapshot = %+v, want done=total=%d, running=false", final, total)
	}
}

func TestIntrospectorCloseIdempotent(t *testing.T) {
	in, err := NewIntrospector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Second close must not panic or hang.
	_ = in.Close()
	if _, err := http.Get("http://" + in.Addr() + "/"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func TestRunRecordsRetriesAndManifestIdentity(t *testing.T) {
	dir := t.TempDir()
	cache := openStore(t, dir, "manifest-test-v1")
	specs := []int{1, 2, 3}
	calls := map[int]int{}
	exec := func(_ context.Context, spec int) (int, error) {
		calls[spec]++
		switch spec {
		case 2:
			if calls[spec] < 2 {
				return 0, fmt.Errorf("transient hiccup")
			}
		case 3:
			return 0, fmt.Errorf("permanently broken")
		}
		return spec * 10, nil
	}
	var lastProgress Progress
	results, stats, err := Run(context.Background(), specs, exec, Options{
		Workers: 1, Store: cache, Retries: 2, RetryBackoff: time.Millisecond,
		Transient:       func(err error) bool { return err.Error() == "transient hiccup" },
		ContinueOnError: true,
		Progress:        func(p Progress) { lastProgress = p },
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != 10 || results[1] != 20 {
		t.Fatalf("results: %v", results)
	}
	// Spec 2 retried once; spec 3 failed on its first (non-transient) attempt.
	if stats.Retries != 1 {
		t.Fatalf("stats.Retries = %d, want 1", stats.Retries)
	}
	if lastProgress.Retries != 1 || lastProgress.Failures != 1 {
		t.Fatalf("final progress: %+v", lastProgress)
	}
	if len(stats.Failures) != 1 {
		t.Fatalf("failures: %+v", stats.Failures)
	}
	f := stats.Failures[0]
	if f.Schema != "manifest-test-v1" {
		t.Fatalf("failure schema = %q", f.Schema)
	}
	wantHash := cachestore.SpecHashJSON([]byte("3"))
	if f.SpecHash != wantHash {
		t.Fatalf("failure spec hash = %q, want %q", f.SpecHash, wantHash)
	}
	wantKey, err := Key("manifest-test-v1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Key != wantKey {
		t.Fatalf("failure key = %q, want %q", f.Key, wantKey)
	}
	// The spec hash is schema-independent, the key is not.
	otherKey, _ := Key("manifest-test-v2", 3)
	if otherKey == f.Key {
		t.Fatal("key did not change across schema bump")
	}
}
