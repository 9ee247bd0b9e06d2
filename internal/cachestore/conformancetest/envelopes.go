package conformancetest

import (
	"encoding/json"
	"testing"

	"gurita/internal/cachestore"
)

// Envelope is one stored envelope a reader fetches under Key, with what
// cachestore.ReadEntry makes of it: each backend's test stores it behind the
// API and checks that backend's reaction to the outcome.
type Envelope struct {
	Name string
	Key  string
	Data []byte
	// Outcome is ReadEntry's verdict; Err, when set, the sentinel its error
	// wraps (cachestore.ErrMalformed or cachestore.ErrOtherSchema).
	Outcome cachestore.Outcome
	Err     error
	// Result is what a hit serves: the bytes Put was given.
	Result json.RawMessage
}

// Envelopes returns, for a reader of schema, an entry as the writers store
// it and one variant per way a stored envelope can fail: another schema, a
// legacy entry without a result hash, an entry filed under another key's
// address, a swapped spec, a flipped result byte, a null result, a truncated
// file and a top-level non-object.
func Envelopes(t testing.TB, schema string) []Envelope {
	t.Helper()
	spec := json.RawMessage(`{"trial":1,"suite":"envelopes"}`)
	otherSpec := json.RawMessage(`{"trial":2,"suite":"envelopes"}`)
	result := json.RawMessage(`{"scheduler":"gurita","avg_jct":6.368621264980132,"jobs":[{"id":0,"jct":0.3253077376000001}]}`)
	flipped := json.RawMessage(`{"scheduler":"gurita","avg_jct":6.368621264980133,"jobs":[{"id":0,"jct":0.3253077376000001}]}`)
	key := cachestore.KeyJSON(schema, spec)
	otherKey := cachestore.KeyJSON(schema, otherSpec)

	write := func(mutate func(e *cachestore.Entry)) []byte {
		e, err := cachestore.NewEntry(schema, key, spec, result)
		if err != nil {
			t.Fatal(err)
		}
		mutate(e)
		data, err := json.MarshalIndent(e, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	good := write(func(*cachestore.Entry) {})
	return []Envelope{
		{Name: "hit", Key: key, Data: good, Outcome: cachestore.Hit, Result: result},
		{Name: "another schema", Key: key, Data: write(func(e *cachestore.Entry) { e.Schema += "-old" }),
			Outcome: cachestore.Stale, Err: cachestore.ErrOtherSchema},
		{Name: "legacy entry without result hash", Key: key, Data: write(func(e *cachestore.Entry) { e.ResultSHA = "" }),
			Outcome: cachestore.Stale},
		{Name: "filed under another address", Key: otherKey, Data: good, Outcome: cachestore.Corrupt},
		{Name: "spec swapped", Key: key, Data: write(func(e *cachestore.Entry) { e.Spec = otherSpec }), Outcome: cachestore.Corrupt},
		{Name: "result byte flipped", Key: key, Data: write(func(e *cachestore.Entry) { e.Result = flipped }), Outcome: cachestore.Corrupt},
		{Name: "null result", Key: key, Data: write(func(e *cachestore.Entry) { e.Result = json.RawMessage("null") }), Outcome: cachestore.Corrupt},
		{Name: "truncated file", Key: key, Data: good[:len(good)/2], Outcome: cachestore.Corrupt, Err: cachestore.ErrMalformed},
		{Name: "top-level non-object", Key: key, Data: []byte(`["schema","key"]`), Outcome: cachestore.Corrupt, Err: cachestore.ErrMalformed},
	}
}
