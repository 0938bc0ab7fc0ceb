// Package transport is the shared client substrate under every consumer
// that exchanges DNS messages with a real server: the live measurement
// engine (live.Prober), the forwarding resolver, the recursive
// resolver and cluster peers when they leave the process, and the CLIs.
//
// Endpoints are scheme-addressed strings, mirroring the convention of
// dig-like measurement tools:
//
//	udp://9.9.9.9:53          conventional DNS over UDP (TCP fallback on TC)
//	tcp://9.9.9.9:53          conventional DNS over TCP
//	tls://dns.quad9.net:853   DNS over TLS (RFC 7858)
//	https://dns.quad9.net/dns-query   DNS over HTTPS (RFC 8484)
//
// A bare "host:port" (or bare host) defaults to udp, like dig. Default
// ports follow the IANA assignments: 53 for udp/tcp, 853 for tls, 443
// for https; an https endpoint with no path gets the RFC 8484
// conventional "/dns-query".
//
// Dial binds one endpoint to an Exchanger; Pool manages a lazily dialled
// Exchanger per endpoint and is the endpoint-addressed (Multi) surface
// that multi-upstream consumers use. Every scheme runs one attempt
// routine — dial, TLS handshake where the scheme has one, exchange, check
// — under one retry loop (exponential backoff, decorrelated jitter), one
// cancellation rule and one set of spans and counters; dns53 and doh
// supply only the bytes on an established connection. So every protocol
// is timed, retried and classified alike: a difference only one client
// had would skew exactly the cross-protocol comparison the paper makes
// (§3.1).
package transport

import (
	"context"

	"encdns/internal/dnswire"
)

// Exchanger performs DNS exchanges with the single endpoint bound at
// Dial time. Implementations must not mutate the query message: the
// recursive walk re-addresses one *dnswire.Message from exchange to
// exchange.
type Exchanger interface {
	// Exchange sends the query and returns the validated response.
	Exchange(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error)
	// Close releases the exchanger. Dial's hold no connection between
	// exchanges, so theirs return nil.
	Close() error
}

// Multi is the endpoint-addressed exchanger surface: one instance serves
// many endpoints. Pool implements it by dialling scheme-addressed
// exchangers on demand; authdns.Registry implements it in memory, which
// is how the recursive resolver runs hermetically in tests.
type Multi interface {
	Exchange(ctx context.Context, query *dnswire.Message, endpoint string) (*dnswire.Message, error)
}
