package report

import (
	"encoding/json"
	"io"
)

// WriteJSON renders v as indented JSON — the one JSON-writing path for
// every reporting surface, so the on-disk shape stays uniform.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
