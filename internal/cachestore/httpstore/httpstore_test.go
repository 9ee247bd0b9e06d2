package httpstore_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/conformancetest"
	"gurita/internal/cachestore/httpstore"
	"gurita/internal/serve/cachehttp"
)

func TestConformance(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) *conformancetest.Harness {
		const ttl = 300 * time.Millisecond
		dir := t.TempDir()
		srv, err := cachehttp.New(cachehttp.Config{Dir: dir, TTL: ttl, MaxAttempts: 2})
		if err != nil {
			t.Fatalf("cachehttp.New: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)

		h := &conformancetest.Harness{TTL: ttl, MaxAttempts: 2}
		h.Open = func(t *testing.T, owner string) conformancetest.Full {
			t.Helper()
			s, err := httpstore.Open(httpstore.Config{
				BaseURL: ts.URL,
				Schema:  "conformance-v1",
				Owner:   owner,
			})
			if err != nil {
				t.Fatalf("httpstore.Open: %v", err)
			}
			return s
		}
		h.Corrupt = func(t *testing.T, key string) {
			t.Helper()
			// Scribble on the daemon's disk behind its back; the server
			// detects it on the next read and quarantines, so the client
			// observes a clean miss.
			path := filepath.Join(dir, key[:2], key+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading entry to corrupt: %v", err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatalf("corrupting entry: %v", err)
			}
		}
		return h
	})
}

// TestDaemonRestart exercises the failure semantics the conformance suite
// cannot: the cache server dying mid-campaign and coming back on the same
// address. Reads must degrade to misses (re-execution is always correct),
// renewals must report the lease as lost, and after the restart the on-disk
// entries are served again while the in-memory lease table starts empty.
func TestDaemonRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	newServer := func() (*http.Server, string) {
		t.Helper()
		srv, err := cachehttp.New(cachehttp.Config{Dir: dir, TTL: 300 * time.Millisecond, MaxAttempts: 2})
		if err != nil {
			t.Fatalf("cachehttp.New: %v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return hs, ln.Addr().String()
	}
	hs, addr := newServer()

	open := func(owner string) *httpstore.Store {
		t.Helper()
		s, err := httpstore.Open(httpstore.Config{
			BaseURL: "http://" + addr,
			Schema:  "restart-v1",
			Owner:   owner,
			// Keep the outage budget short so degraded reads resolve fast.
			OutageBudget: 250 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("httpstore.Open: %v", err)
		}
		return s
	}
	w := open("worker-1")

	spec := json.RawMessage(`{"trial":1}`)
	key, err := cachestore.Key("restart-v1", spec)
	if err != nil {
		t.Fatal(err)
	}
	result := json.RawMessage(`{"metric":1}`)
	if err := w.Put(ctx, key, spec, result); err != nil {
		t.Fatalf("Put before restart: %v", err)
	}
	if _, ok := w.Get(ctx, key); !ok {
		t.Fatalf("Get before restart missed")
	}
	if l, err := w.Claim(ctx, key); err != nil || l.State != cachestore.LeaseAcquired {
		t.Fatalf("Claim before restart = (%+v, %v), want acquired", l, err)
	}

	// Kill the daemon. In-memory lease state dies with it; disk survives.
	hs.Close()

	// Reads degrade to misses past the outage budget instead of erroring:
	// re-executing a pure trial is always correct.
	if _, ok := w.Get(ctx, key); ok {
		t.Fatalf("Get during the outage returned a hit")
	}
	if w.Stat(ctx, key) {
		t.Fatalf("Stat during the outage reported an entry")
	}
	if n := w.Len(ctx); n != 0 {
		t.Fatalf("Len during the outage = %d, want the degraded 0", n)
	}
	// A renewal that cannot reach the authority must assume the worst: the
	// server may already have handed the lease to a peer.
	if err := w.Renew(ctx, key); !errors.Is(err, cachestore.ErrLeaseLost) {
		t.Fatalf("Renew during the outage = %v, want ErrLeaseLost", err)
	}
	// Writes do NOT degrade — losing a publish breaks convergence.
	spec2 := json.RawMessage(`{"trial":2}`)
	key2, err := cachestore.Key("restart-v1", spec2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(ctx, key2, spec2, json.RawMessage(`{"metric":2}`)); err == nil {
		t.Fatalf("Put during the outage reported success")
	}

	// Same address, same disk, fresh process.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	srv2, err := cachehttp.New(cachehttp.Config{Dir: dir, TTL: 300 * time.Millisecond, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(ln)
	t.Cleanup(func() { hs2.Close() })

	// Published entries came back; the lease table did not (workers simply
	// re-claim — duplicates publish identical bytes, so this is safe).
	got, ok := w.Get(ctx, key)
	if !ok {
		t.Fatalf("Get after restart missed the persisted entry")
	}
	var wantC, gotC bytes.Buffer
	if err := json.Compact(&wantC, result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&gotC, got); err != nil || !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
		t.Fatalf("Get after restart = %s, want the persisted result %s", got, result)
	}
	l, err := w.Claim(ctx, key)
	if err != nil || l.State != cachestore.LeaseAcquired {
		t.Fatalf("Claim after restart = (%+v, %v), want a fresh acquisition", l, err)
	}
	if l.Attempt != 1 || l.Reclaimed {
		t.Fatalf("post-restart lease = %+v, want attempt 1, not reclaimed", l)
	}
	if err := w.Put(ctx, key2, spec2, json.RawMessage(`{"metric":2}`)); err != nil {
		t.Fatalf("Put after restart: %v", err)
	}
}

// TestOpenValidation pins the config errors a bad wiring should hit early.
func TestOpenValidation(t *testing.T) {
	cases := []httpstore.Config{
		{BaseURL: "", Schema: "v1", Owner: "w"},
		{BaseURL: "not-a-url", Schema: "v1", Owner: "w"},
		{BaseURL: "ftp://host", Schema: "v1", Owner: "w"},
		{BaseURL: "http://host:7070", Schema: "", Owner: "w"},
		{BaseURL: "http://host:7070", Schema: "v1", Owner: ""},
	}
	for _, cfg := range cases {
		if _, err := httpstore.Open(cfg); err == nil {
			t.Errorf("Open(%+v) accepted an invalid config", cfg)
		}
	}
	if _, err := httpstore.Open(httpstore.Config{BaseURL: "http://host:7070/", Schema: "v1", Owner: "w"}); err != nil {
		t.Errorf("Open rejected a valid config: %v", err)
	}
}

// TestGetReactions pins httpstore's reaction to each cachestore.ReadEntry
// outcome on an envelope the server ships: a hit serves the bytes Put was
// given; a stale entry is a plain miss; a corrupt one is reported back for
// server-side quarantine, and counted on httpstore.get.verify_failed when it
// parsed but failed verification.
func TestGetReactions(t *testing.T) {
	const schema = "reactions-v1"
	for _, env := range conformancetest.Envelopes(t, schema) {
		t.Run(env.Name, func(t *testing.T) {
			var (
				mu          sync.Mutex
				quarantined []string
			)
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/cache/entries/{key}", func(w http.ResponseWriter, r *http.Request) {
				_, _ = w.Write(env.Data)
			})
			mux.HandleFunc("POST /v1/cache/entries/{key}/quarantine", func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				quarantined = append(quarantined, r.PathValue("key"))
				mu.Unlock()
				w.WriteHeader(http.StatusNoContent)
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()
			reg := &counters{}
			s, err := httpstore.Open(httpstore.Config{BaseURL: ts.URL, Schema: schema, Owner: "w1", Counters: reg})
			if err != nil {
				t.Fatal(err)
			}

			got, ok := s.Get(context.Background(), env.Key)
			if ok != (env.Outcome == cachestore.Hit) || !bytes.Equal(got, env.Result) {
				t.Fatalf("Get = %s, %v; want %s, %v", got, ok, env.Result, env.Outcome == cachestore.Hit)
			}
			mu.Lock()
			defer mu.Unlock()
			corrupt := env.Outcome == cachestore.Corrupt
			if corrupt != (len(quarantined) == 1 && quarantined[0] == env.Key) || len(quarantined) > 1 {
				t.Errorf("remote quarantine requests %v; want one for %s: %v", quarantined, env.Key[:8], corrupt)
			}
			want := int64(0)
			if corrupt && !errors.Is(env.Err, cachestore.ErrMalformed) {
				want = 1
			}
			if n := reg.get("httpstore.get.verify_failed"); n != want {
				t.Errorf("httpstore.get.verify_failed = %d, want %d", n, want)
			}
		})
	}
}

// counters is a minimal cachestore.Counters for asserting emission.
type counters struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *counters) Add(name string, d int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]int64{}
	}
	c.m[name] += d
}

func (c *counters) get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// BenchmarkHTTPStoreGet measures a verified remote cache hit: one HTTP round
// trip to the daemon plus client-side envelope re-verification (key
// recomputation and result-hash check). Pinned in BENCH_baseline.json
// (gated by cmd/benchgate).
func BenchmarkHTTPStoreGet(b *testing.B) {
	srv, err := cachehttp.New(cachehttp.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s, err := httpstore.Open(httpstore.Config{BaseURL: ts.URL, Schema: "bench-v1", Owner: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	spec := json.RawMessage(`{"trial":1}`)
	key, err := cachestore.Key("bench-v1", spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(ctx, key, spec, json.RawMessage(`{"metric":42,"rows":[1,2,3,4,5,6,7,8]}`)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(ctx, key); !ok {
			b.Fatal("benchmark entry missed")
		}
	}
}
