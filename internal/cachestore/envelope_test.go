package cachestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

const testSchema = "envelope-v1"

// testSpec and testResult are shaped like a campaign trial's spec and
// result document.
type testSpec struct {
	Scheduler string             `json:"scheduler"`
	Scale     map[string]float64 `json:"scale"`
	Queues    int                `json:"queues"`
}

type testResult struct {
	Scheduler string           `json:"scheduler"`
	AvgJCT    float64          `json:"avg_jct"`
	Jobs      []map[string]any `json:"jobs"`
	Counters  map[string]int64 `json:"counters"`
}

// writerInputs returns a spec and result as the runner hands them to Put
// (json.Marshal output) and the spec's key.
func writerInputs(t testing.TB, scheduler string) (spec, result json.RawMessage, key string) {
	t.Helper()
	spec, err := json.Marshal(testSpec{Scheduler: scheduler, Scale: map[string]float64{"Seed": 3, "TraceTimeScale": 0.1}, Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	result, err = json.Marshal(testResult{
		Scheduler: scheduler,
		AvgJCT:    6.368621264980132,
		Jobs:      []map[string]any{{"id": 0, "jct": 0.3253077376000001, "category": "III <&> \"} \\"}, {"id": 1, "jct": 0.0018688895999999927}},
		Counters:  map[string]int64{"netmod_reallocs": 378, "stage_releases": 90},
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec, result, KeyJSON(testSchema, spec)
}

// writtenEnvelope is an envelope as fsstore and httpstore write it.
func writtenEnvelope(t testing.TB, e *Entry) []byte {
	t.Helper()
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReadEntryOutcomes(t *testing.T) {
	spec, result, key := writerInputs(t, "gurita")
	otherSpec, _, _ := writerInputs(t, "pfs")
	entry := func() *Entry {
		e, err := NewEntry(testSchema, key, spec, result)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	good := writtenEnvelope(t, entry())
	flipped := bytes.Replace(good, []byte("6.368621264980132"), []byte("6.368621264980133"), 1)
	if bytes.Equal(flipped, good) {
		t.Fatal("result byte flip did not apply")
	}

	cases := []struct {
		name    string
		data    []byte
		key     string
		want    Outcome
		wantErr error
	}{
		{name: "hit", data: good, want: Hit},
		{name: "hit, compact envelope", data: func() []byte { b, _ := json.Marshal(entry()); return b }(), want: Hit},
		{name: "another schema", data: func() []byte { e := entry(); e.Schema = "envelope-v0"; return writtenEnvelope(t, e) }(), want: Stale, wantErr: ErrOtherSchema},
		{name: "legacy entry without result_sha256", data: func() []byte { e := entry(); e.ResultSHA = ""; return writtenEnvelope(t, e) }(), want: Stale},
		{name: "key does not match address", data: good, key: KeyJSON(testSchema, otherSpec), want: Corrupt},
		{name: "spec swapped", data: func() []byte { e := entry(); e.Spec = otherSpec; return writtenEnvelope(t, e) }(), want: Corrupt},
		{name: "result byte flipped", data: flipped, want: Corrupt},
		{name: "null result", data: func() []byte { e := entry(); e.Result = json.RawMessage("null"); return writtenEnvelope(t, e) }(), want: Corrupt},
		{name: "truncated file", data: good[:len(good)/2], want: Corrupt, wantErr: ErrMalformed},
		{name: "top-level array", data: []byte(`[{"schema":"envelope-v1"}]`), want: Corrupt, wantErr: ErrMalformed},
		{name: "top-level string", data: []byte(`"envelope"`), want: Corrupt, wantErr: ErrMalformed},
		{name: "top-level null", data: []byte(`null`), want: Stale, wantErr: ErrOtherSchema},
		{name: "non-string key", data: bytes.Replace(good, []byte(`"key": "`+key+`"`), []byte(`"key": 7`), 1), want: Corrupt, wantErr: ErrMalformed},
		// encoding/json quirks the reader reproduces: member names match
		// case-insensitively and after unescaping, the last duplicate wins,
		// and a null string member leaves the field as it was.
		{name: "case-variant member names", data: bytes.Replace(bytes.Replace(good, []byte(`"key":`), []byte(`"KEY":`), 1), []byte(`"result":`), []byte(`"Result":`), 1), want: Hit},
		{name: "escaped member name", data: bytes.Replace(good, []byte(`"schema":`), []byte(`"sch\u0065ma":`), 1), want: Hit},
		{name: "duplicate key, last wins", data: bytes.Replace(good, []byte(`"key":`), []byte(`"key": "0000", "key":`), 1), want: Hit},
		{name: "duplicate key, last is wrong", data: bytes.Replace(good, []byte(`"spec":`), []byte(`"key": "0000", "spec":`), 1), want: Corrupt},
		{name: "null key after real one", data: bytes.Replace(good, []byte(`"spec":`), []byte(`"key": null, "spec":`), 1), want: Hit},
		{name: "absent spec keys as null", data: func() []byte {
			e, err := NewEntry(testSchema, KeyJSON(testSchema, []byte("null")), nil, result)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Replace(writtenEnvelope(t, e), []byte(`"spec": null,`), nil, 1)
		}(), key: KeyJSON(testSchema, []byte("null")), want: Hit},
		{name: "unknown members ignored", data: bytes.Replace(good, []byte(`"spec":`), []byte(`"note": {"a": [1, "}"]}, "spec":`), 1), want: Hit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := key
			if tc.key != "" {
				addr = tc.key
			}
			e, got, err := ReadEntry(tc.data, testSchema, addr)
			if got != tc.want {
				t.Fatalf("ReadEntry outcome = %d (%v), want %d", got, err, tc.want)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Errorf("ReadEntry error = %v, want %v", err, tc.wantErr)
			}
			if (err == nil) != (got == Hit) {
				t.Errorf("ReadEntry error = %v with outcome %d", err, got)
			}
			if _, ref := refReadEntry(tc.data, testSchema, addr); ref != got {
				t.Errorf("reference outcome = %d, ReadEntry's %d", ref, got)
			}
			if got == Hit && (!bytes.Equal(e.Result, result) || addr == key && !bytes.Equal(e.Spec, spec) || e.Key != addr || e.Schema != testSchema) {
				t.Errorf("hit returned spec %s result %s, want the Put bytes", e.Spec, e.Result)
			}
		})
	}
}

// TestReadEntryHTMLEscapedSpec: a spec holding characters json.Marshal
// escapes verifies, whether its envelope carries the escaped form (as every
// writer produces it) or a hand-edited unescaped one, as under
// json.Unmarshal plus the key recomputation.
func TestReadEntryHTMLEscapedSpec(t *testing.T) {
	spec, err := json.Marshal(map[string]string{"scheduler": "a<b>&c\u2028"})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyJSON(testSchema, spec)
	e, err := NewEntry(testSchema, key, spec, json.RawMessage(`{"ok":true}`))
	if err != nil {
		t.Fatal(err)
	}
	escaped := writtenEnvelope(t, e)
	unescaped := bytes.Replace(escaped, []byte(`a\u003cb\u003e\u0026c\u2028`), []byte("a<b>&c\u2028"), 1)
	if bytes.Equal(escaped, unescaped) {
		t.Fatal("unescaping the spec did not apply")
	}
	for _, data := range [][]byte{escaped, unescaped} {
		if _, out, err := ReadEntry(data, testSchema, key); out != Hit {
			t.Errorf("ReadEntry(%s) = %d, %v, want a hit", data, out, err)
		}
	}
}

// FuzzReadEntry holds ReadEntry to the decode-and-verify sequence it
// replaced (refReadEntry): it never serves an envelope the reference
// rejects, and what both serve is the same result, compact. Every envelope
// the writers produce from a fuzzed spec and result (NewEntry, then
// MarshalIndent as fsstore and httpstore write it, or json.Marshal) is a hit
// under both, serving the result bytes Put was given in json.Marshal's form.
func FuzzReadEntry(f *testing.F) {
	spec, result, key := writerInputs(f, "gurita")
	e, err := NewEntry(testSchema, key, spec, result)
	if err != nil {
		f.Fatal(err)
	}
	indented := writtenEnvelope(f, e)
	compact, err := json.Marshal(e)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		indented,
		compact,
		indented[:len(indented)-2],
		bytes.Replace(indented, []byte(testSchema), []byte("envelope-v0"), 1),
		bytes.Replace(indented, []byte(`"result_sha256"`), []byte(`"result_sha"`), 1),
		bytes.Replace(indented, []byte(`"gurita"`), []byte(`"pfs"`), 1),
		bytes.Replace(indented, []byte(`"key"`), []byte(`"Key"`), 1),
		bytes.Replace(compact, []byte(`"schema"`), []byte(`"sch\u0065ma"`), 1),
		bytes.Replace(compact, []byte(`"result":`), []byte(`"result":null,"result":`), 1),
		[]byte(`{"schema":"envelope-v1","key":"` + KeyJSON(testSchema, []byte("null")) + `","spec":null,"result":{},"result_sha256":"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"}`),
		[]byte(`null`),
		[]byte(`[1,2]`),
		[]byte(`{"a":"< >"}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		addrs := []string{key}
		var parsed Entry
		if json.Unmarshal(data, &parsed) == nil && parsed.Key != "" && parsed.Key != key {
			addrs = append(addrs, parsed.Key)
		}
		for _, addr := range addrs {
			got, out, err := ReadEntry(data, testSchema, addr)
			ref, refOut := refReadEntry(data, testSchema, addr)
			if out == Hit && refOut != Hit {
				t.Fatalf("ReadEntry served an envelope the reference rejects (%d)", refOut)
			}
			if out != Hit && refOut == Hit {
				// Not a contract violation, but ReadEntry is meant to be
				// exactly as permissive; record the envelope for DESIGN.md.
				t.Errorf("ReadEntry rejects (%d, %v) an envelope the reference serves", out, err)
			}
			if out == Hit && !bytes.Equal(got.Result, compactJSON(t, ref)) {
				t.Fatalf("ReadEntry result %s, reference result %s", got.Result, ref)
			}
		}

		// The writers, fed the fuzzed JSON as spec (in json.Marshal's form,
		// as the runner keys it) and as result (verbatim: Put accepts any
		// valid JSON, and serves it back in json.Marshal's form).
		specJSON, err := json.Marshal(json.RawMessage(data))
		if err != nil || string(specJSON) == "null" {
			return // not JSON, or a null result, which no trial produces
		}
		k := KeyJSON(testSchema, specJSON)
		e, err := NewEntry(testSchema, k, specJSON, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range []func(*Entry) ([]byte, error){
			func(e *Entry) ([]byte, error) { return json.MarshalIndent(e, "", " ") },
			func(e *Entry) ([]byte, error) { return json.Marshal(e) },
		} {
			b, err := env(e)
			if err != nil {
				t.Fatal(err)
			}
			got, out, err := ReadEntry(b, testSchema, k)
			ref, refOut := refReadEntry(b, testSchema, k)
			if out != Hit || refOut != Hit {
				t.Fatalf("written envelope: ReadEntry %d (%v), reference %d", out, err, refOut)
			}
			if !bytes.Equal(got.Result, specJSON) || !bytes.Equal(compactJSON(t, ref), specJSON) {
				t.Fatalf("written envelope served %s / %s, want the Put bytes %s", got.Result, ref, specJSON)
			}
		}
	})
}

func compactJSON(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
