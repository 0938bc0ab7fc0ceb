// Package dns53 implements conventional DNS transport (RFC 1035 §4.2):
// the client's half of a UDP exchange and of a two-octet length-framed
// stream exchange, which transport's attempt routine runs on the
// connections it dials, and a concurrent UDP/TCP server framework with a
// handler interface. The DoT and DoH packages layer their transports over
// the same Handler, so one resolver implementation can serve all three
// protocols — exactly how the measured public resolvers are deployed.
package dns53

import (
	"context"

	"encdns/internal/dnswire"
)

// Handler answers DNS queries. Implementations must be safe for concurrent
// use; the servers invoke ServeDNS from many goroutines.
type Handler interface {
	// ServeDNS produces the response for query. Returning nil or an error
	// makes the server answer SERVFAIL.
	ServeDNS(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error)
}

// ResponseAppender is the optional wire-template fast path a Handler may
// implement (internal/resolver's cache-backed handlers do): append the
// complete packed response for query onto dst without materializing
// records or re-packing. rawQuestion is the request's question section
// verbatim — implementations echo it so the client's 0x20 mixed-case
// spelling survives. minTTL is the minimum answer TTL in seconds (-1
// when the response has no answers; DoH turns it into Cache-Control).
// ok=false means "not on this query" — the server falls back to ServeDNS
// with no state to undo, so implementations must decline rather than
// answer approximately. Implementations must not panic: unlike ServeDNS,
// this path runs without the server's panic containment.
type ResponseAppender interface {
	AppendResponse(dst []byte, query *dnswire.Message, rawQuestion []byte) (out []byte, minTTL int64, ok bool)
}

// InMemory is the optional promise a Handler may make that ServeDNS never
// waits on I/O: it answers from memory, so the loop that read a query may
// run it to completion instead of handing it to a goroutine that may
// block (see answer.go). A handler that cannot keep the promise on every
// query must report false or not implement it.
type InMemory interface {
	InMemory() bool
}

// inMemory reports whether h made that promise.
func inMemory(h Handler) bool {
	m, ok := h.(InMemory)
	return ok && m.InMemory()
}
