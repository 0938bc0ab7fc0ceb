// Package transport is the shared client substrate under every consumer
// that exchanges DNS messages with a real server: the live measurement
// engine (core.LiveProber), the forwarding resolver, the distribution
// layer's racing strategies, and the CLIs.
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
// that multi-upstream consumers use. Policy is middleware over
// Exchanger: WithRetry (exponential backoff, decorrelated jitter) and
// NewHedged (race the same query against several endpoints). The policy is written once here so every
// protocol gets the same behaviour — in the seed tree only Do53 retried,
// while DoT and DoH failed on the first error, skewing exactly the
// cross-protocol comparison the paper makes (§3.1).
package transport

import (
	"context"

	"encdns/internal/dnswire"
)

// Exchanger performs DNS exchanges with the single endpoint bound at
// Dial time. Implementations must not mutate the query message: hedged
// exchanges hand the same *dnswire.Message to several exchangers
// concurrently.
type Exchanger interface {
	// Exchange sends the query and returns the validated response.
	Exchange(ctx context.Context, query *dnswire.Message) (*dnswire.Message, error)
	// Close releases any pooled connections.
	Close() error
}

// Multi is the endpoint-addressed exchanger surface: one instance serves
// many endpoints. Pool implements it by dialling scheme-addressed
// exchangers on demand; authdns.Registry implements it in memory, which
// is how the recursive resolver runs hermetically in tests.
type Multi interface {
	Exchange(ctx context.Context, query *dnswire.Message, endpoint string) (*dnswire.Message, error)
}

// Wrapper is implemented by middleware so accessors like Stats can reach
// the wrapped exchanger.
type Wrapper interface {
	Unwrap() Exchanger
}

// PoolStats counts connection-pool activity for an exchanger that reuses
// connections (today the DoT client's cache; the DoH transport pools
// internally in net/http).
type PoolStats struct {
	// Hits counts exchanges served over a cached connection.
	Hits uint64
	// Misses counts exchanges that had to establish a connection.
	Misses uint64
	// Evictions counts cached connections dropped for staleness or bound.
	Evictions uint64
	// Idle is the number of currently cached connections.
	Idle int
}

// add accumulates counters across pooled exchangers.
func (s *PoolStats) add(o PoolStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Idle += o.Idle
}

// statser is implemented by exchangers that expose pool counters.
type statser interface {
	PoolStats() PoolStats
}

// Stats reports connection-pool counters for ex, unwrapping middleware
// until it finds an exchanger that exposes them. ok is false when none
// does (e.g. a udp exchanger, which pools nothing).
func Stats(ex Exchanger) (stats PoolStats, ok bool) {
	for ex != nil {
		if s, isStatser := ex.(statser); isStatser {
			return s.PoolStats(), true
		}
		w, isWrapper := ex.(Wrapper)
		if !isWrapper {
			break
		}
		ex = w.Unwrap()
	}
	return PoolStats{}, false
}
