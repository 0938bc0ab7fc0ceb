package testutil

import (
	"encoding/json"
	"io"
	"testing"
)

// DecodeJSONL decodes a JSON Lines stream into values of type T, failing
// the test on malformed input.
func DecodeJSONL[T any](t testing.TB, r io.Reader) []T {
	t.Helper()
	var out []T
	dec := json.NewDecoder(r)
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("decoding JSON Lines: %v", err)
		}
		out = append(out, v)
	}
}
