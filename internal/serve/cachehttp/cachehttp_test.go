package cachehttp_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gurita/internal/cachestore"
	"gurita/internal/cachestore/conformancetest"
	"gurita/internal/serve/cachehttp"
)

// TestPutEntryStatus pins the PUT handler's answer to each
// cachestore.ReadEntry outcome on an uploaded envelope: a verified one is
// committed (204) byte for byte as the writer produced it; one that is not
// an entry, or belongs to another schema, is a bad request (400); one that
// parses but fails verification, a legacy entry without a result hash
// included, is unprocessable (422) and counted on cachehttp.put.rejected.
// Nothing but the verified envelope reaches the disk.
func TestPutEntryStatus(t *testing.T) {
	const schema = "reactions-v1"
	for _, env := range conformancetest.Envelopes(t, schema) {
		t.Run(env.Name, func(t *testing.T) {
			dir := t.TempDir()
			reg := &counters{}
			srv, err := cachehttp.New(cachehttp.Config{Dir: dir, Counters: reg})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			u := ts.URL + "/v1/cache/entries/" + env.Key + "?schema=" + url.QueryEscape(schema)
			req, err := http.NewRequest(http.MethodPut, u, bytes.NewReader(env.Data))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			want := http.StatusNoContent
			switch {
			case env.Outcome == cachestore.Hit:
			case errors.Is(env.Err, cachestore.ErrMalformed), errors.Is(env.Err, cachestore.ErrOtherSchema):
				want = http.StatusBadRequest
			default:
				want = http.StatusUnprocessableEntity
			}
			if resp.StatusCode != want {
				t.Fatalf("PUT answered %d, want %d", resp.StatusCode, want)
			}
			rejected := int64(0)
			if want == http.StatusUnprocessableEntity {
				rejected = 1
			}
			if n := reg.get("cachehttp.put.rejected"); n != rejected {
				t.Errorf("cachehttp.put.rejected = %d, want %d", n, rejected)
			}
			stored, err := os.ReadFile(filepath.Join(dir, env.Key[:2], env.Key+".json"))
			if env.Outcome == cachestore.Hit {
				if err != nil || !bytes.Equal(stored, env.Data) {
					t.Errorf("committed entry (%v) differs from the uploaded envelope:\n%s\nwant\n%s", err, stored, env.Data)
				}
			} else if err == nil {
				t.Errorf("a rejected envelope reached the disk")
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
