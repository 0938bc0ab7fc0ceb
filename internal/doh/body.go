package doh

import (
	"errors"
	"io"
)

// errBodyTooLarge reports a request or response body over the DNS message
// limit; callers map it to the transport-appropriate error.
var errBodyTooLarge = errors.New("doh: body exceeds DNS message limit")

// readAllInto reads r to EOF appending onto buf (typically a pooled
// buffer), failing with errBodyTooLarge once the total passes limit. It
// is io.ReadAll without the per-call allocation.
func readAllInto(buf []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
