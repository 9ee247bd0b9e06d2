package cachestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// refReadEntry is the envelope decode-and-verify sequence fsstore's getEntry,
// httpstore's Get and cachehttp's PUT handler each ran before ReadEntry
// replaced it: json.Unmarshal into an Entry, the schema and legacy checks,
// then refVerify. It is the oracle of FuzzReadEntry and the envelope tests.
func refReadEntry(data []byte, schema, key string) (json.RawMessage, Outcome) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, Corrupt
	}
	if e.Schema != schema {
		return nil, Stale
	}
	if e.ResultSHA == "" {
		return nil, Stale
	}
	if refVerify(&e, key) != nil {
		return nil, Corrupt
	}
	return e.Result, Hit
}

// refVerify is the former Entry.Verify, verbatim but for the receiver.
func refVerify(e *Entry, key string) error {
	if e.Key != key {
		return fmt.Errorf("cachestore: entry key %s does not match address %s", shortKey(e.Key), shortKey(key))
	}
	if len(e.Result) == 0 || string(e.Result) == "null" {
		return errors.New("cachestore: entry has no result payload")
	}
	// Recompute the content address from the stored spec. json.Marshal of a
	// RawMessage compacts and HTML-escapes exactly like the original
	// json.Marshal of the spec value did, so a faithful entry always
	// re-derives its own key.
	recomputed, err := Key(e.Schema, e.Spec)
	if err != nil {
		return fmt.Errorf("cachestore: recomputing entry key: %w", err)
	}
	if recomputed != key {
		return fmt.Errorf("cachestore: entry spec rehashes to %s, not %s", shortKey(recomputed), shortKey(key))
	}
	sha, err := refResultSHA(e.Result)
	if err != nil {
		return fmt.Errorf("cachestore: hashing entry result: %w", err)
	}
	if sha != e.ResultSHA {
		return errors.New("cachestore: entry result bytes do not match recorded hash")
	}
	return nil
}

// refResultSHA is the hash the former Entry.Verify checked: the SHA-256 of
// the result as read back, compacted but not re-escaped.
func refResultSHA(result json.RawMessage) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, result); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
