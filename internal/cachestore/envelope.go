package cachestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf8"
)

// Outcome classifies what ReadEntry found in an envelope.
type Outcome int

const (
	// Hit: the envelope verified against the reader's schema and address.
	Hit Outcome = iota
	// Stale: an entry from another schema, or a legacy entry written before
	// result hashing, which cannot be verified. Not corruption: a plain miss,
	// recomputed and overwritten.
	Stale
	// Corrupt: the envelope does not parse as an entry or fails content
	// verification. It is evidence: the caller quarantines it and misses.
	Corrupt
)

var (
	// ErrMalformed marks a Corrupt envelope that is not an entry at all:
	// invalid JSON, a top-level value other than an object, or a schema, key
	// or result_sha256 member that is not a string.
	ErrMalformed = errors.New("cachestore: malformed entry envelope")
	// ErrOtherSchema marks a Stale entry written under another schema.
	ErrOtherSchema = errors.New("cachestore: entry written under another schema")
)

// ReadEntry parses and verifies the envelope data that a reader of schema
// fetched under key. It accepts exactly the envelopes that json.Unmarshal
// into an Entry followed by the schema, legacy and content checks accepts,
// but reads the result payload with encoding/json once instead of three
// times: one json.Compact validates the whole envelope and canonicalizes it,
// a walk over the valid compact bytes splits out its members, and the
// result's compact sub-slice is the very form the recorded hash covers.
//
// On a Hit the returned Entry's Spec and Result are compact: Result is byte
// for byte the payload Put was given (json.Marshal output round-trips
// through MarshalIndent and Compact unchanged). Checks run in this order:
// parse (Corrupt, ErrMalformed), schema (Stale, ErrOtherSchema), result hash
// present (Stale), recorded key equals the address, result present and not
// null, key recomputed from the stored spec equals the address (so a spec
// swap is caught), result hash matches (each Corrupt).
func ReadEntry(data []byte, schema, key string) (Entry, Outcome, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return Entry{}, Corrupt, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	var f envelopeFields
	if err := f.split(buf.Bytes()); err != nil {
		return Entry{}, Corrupt, err
	}
	if string(f.schema) != schema {
		return Entry{}, Stale, fmt.Errorf("%w: %q, not %q", ErrOtherSchema, f.schema, schema)
	}
	if len(f.resultSHA) == 0 {
		return Entry{}, Stale, errors.New("cachestore: legacy entry has no result hash")
	}
	if string(f.key) != key {
		return Entry{}, Corrupt, fmt.Errorf("cachestore: entry key %s does not match address %s", shortKey(string(f.key)), shortKey(key))
	}
	if len(f.result) == 0 || string(f.result) == "null" {
		return Entry{}, Corrupt, errors.New("cachestore: entry has no result payload")
	}
	// The writer keyed json.Marshal's encoding of the spec, which
	// HTML-escapes where Compact does not; an absent spec decodes to a nil
	// RawMessage, which marshals as null.
	spec := f.spec
	if spec == nil {
		spec = []byte("null")
	}
	if recomputed := KeyJSON(schema, htmlEscaped(spec)); recomputed != key {
		return Entry{}, Corrupt, fmt.Errorf("cachestore: entry spec rehashes to %s, not %s", shortKey(recomputed), shortKey(key))
	}
	sum := sha256.Sum256(f.result)
	var sha [2 * sha256.Size]byte
	hex.Encode(sha[:], sum[:])
	if string(sha[:]) != string(f.resultSHA) {
		return Entry{}, Corrupt, errors.New("cachestore: entry result bytes do not match recorded hash")
	}
	return Entry{Schema: schema, Key: key, Spec: spec, Result: f.result, ResultSHA: string(f.resultSHA)}, Hit, nil
}

// envelopeFields holds an envelope's members as sub-slices of its compact
// encoding (string members unquoted), with json.Unmarshal's semantics: the
// last of duplicate members wins, a null string member leaves the field as
// it was, and a null spec or result is the literal null.
type envelopeFields struct {
	schema, key, resultSHA []byte
	spec, result           []byte
}

// split fills f from c, the valid compact encoding of one JSON value.
func (f *envelopeFields) split(c []byte) error {
	if string(c) == "null" {
		// json.Unmarshal leaves the struct untouched on a top-level null.
		return nil
	}
	if c[0] != '{' {
		return fmt.Errorf("%w: not a JSON object", ErrMalformed)
	}
	if c[1] == '}' {
		return nil
	}
	for i := 1; ; {
		end := stringEnd(c, i)
		name, v := c[i:end], c[end+1:valueEnd(c, end+1)]
		if err := f.set(name, v); err != nil {
			return err
		}
		i = end + 1 + len(v)
		if c[i] == '}' {
			return nil
		}
		i++ // the ',' before the next member
	}
}

// set stores the member named by the quoted JSON string name. Like
// encoding/json it unescapes the name and matches it to a field
// case-insensitively.
func (f *envelopeFields) set(name, v []byte) error {
	s, ok := plainString(name)
	if !ok {
		var unquoted string
		if err := json.Unmarshal(name, &unquoted); err != nil {
			return fmt.Errorf("%w: member name %s: %v", ErrMalformed, name, err)
		}
		s = []byte(unquoted)
	}
	var err error
	switch {
	case bytes.EqualFold(s, []byte("schema")):
		err = setString(&f.schema, v)
	case bytes.EqualFold(s, []byte("key")):
		err = setString(&f.key, v)
	case bytes.EqualFold(s, []byte("result_sha256")):
		err = setString(&f.resultSHA, v)
	case bytes.EqualFold(s, []byte("spec")):
		f.spec = v
	case bytes.EqualFold(s, []byte("result")):
		f.result = v
	}
	if err != nil {
		return fmt.Errorf("%w: member %s: %v", ErrMalformed, name, err)
	}
	return nil
}

// setString stores the JSON string v, unquoted, in *dst; null leaves *dst
// as it is, and any other value is an error, as json.Unmarshal has it.
func setString(dst *[]byte, v []byte) error {
	if string(v) == "null" {
		return nil
	}
	if s, ok := plainString(v); ok {
		*dst = s
		return nil
	}
	var s string
	if err := json.Unmarshal(v, &s); err != nil {
		return err
	}
	*dst = []byte(s)
	return nil
}

// plainString returns the contents of the quoted JSON string q when
// unquoting is the identity on them: no escapes and valid UTF-8.
func plainString(q []byte) ([]byte, bool) {
	if len(q) < 2 || q[0] != '"' {
		return nil, false
	}
	s := q[1 : len(q)-1]
	if bytes.IndexByte(s, '\\') >= 0 || !utf8.Valid(s) {
		return nil, false
	}
	return s, true
}

// stringEnd returns the index just past the string literal opening at c[i]
// in valid JSON.
func stringEnd(c []byte, i int) int {
	for i++; ; i++ {
		i += bytes.IndexByte(c[i:], '"')
		backslashes := 0
		for c[i-1-backslashes] == '\\' {
			backslashes++
		}
		if backslashes%2 == 0 {
			return i + 1
		}
	}
}

// valueEnd returns the index just past the value starting at c[i] in valid
// compact JSON.
func valueEnd(c []byte, i int) int {
	switch c[i] {
	case '"':
		return stringEnd(c, i)
	case '{', '[':
		depth := 0
		for ; ; i++ {
			switch c[i] {
			case '"':
				i = stringEnd(c, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	for i < len(c) && c[i] != ',' && c[i] != '}' && c[i] != ']' {
		i++
	}
	return i
}

// htmlEscaped returns b as json.Marshal would re-encode it: with <, >, &,
// U+2028 and U+2029 escaped. It returns b itself when nothing needs
// escaping, which is always the case for bytes json.Marshal produced.
func htmlEscaped(b []byte) []byte {
	for i, c := range b {
		if c == '<' || c == '>' || c == '&' || c == 0xE2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xA8 {
			var buf bytes.Buffer
			json.HTMLEscape(&buf, b)
			return buf.Bytes()
		}
	}
	return b
}
