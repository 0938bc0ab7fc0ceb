package transport

import (
	"context"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// Per-scheme exchange and dial instruments plus shared retry counters, all
// in the process-wide obs registry. The handles are registered once here
// so the Exchange hot path is an atomic add, never a registry lookup.
type schemeMetrics struct {
	exchanges    *obs.Counter
	errors       *obs.Counter
	latency      *obs.Histogram
	dialFailures *obs.Counter
}

var (
	schemeInstruments = func() map[string]schemeMetrics {
		reg := obs.Default()
		out := make(map[string]schemeMetrics, 4)
		for _, scheme := range []string{SchemeUDP, SchemeTCP, SchemeTLS, SchemeHTTPS} {
			out[scheme] = schemeMetrics{
				exchanges: reg.Counter("transport_exchanges_total",
					"Exchange attempts per endpoint scheme.", "scheme", scheme),
				errors: reg.Counter("transport_exchange_errors_total",
					"Failed exchange attempts per endpoint scheme.", "scheme", scheme),
				latency: reg.Histogram("transport_exchange_seconds",
					"Per-attempt exchange latency by endpoint scheme.", nil, "scheme", scheme),
				// A chain layer acts only once the base dial has returned a
				// connection, so a dial fails in the base dial alone.
				dialFailures: reg.Counter("transport_dial_failures_total",
					"Connection-establishment failures by endpoint scheme.", "scheme", scheme),
			}
		}
		return out
	}()

	retryAttempts = obs.Default().Counter("transport_retry_attempts_total",
		"Re-attempts issued by the shared retry middleware (first attempts excluded).")
	retryExhausted = obs.Default().Counter("transport_retry_exhausted_total",
		"Exchanges that failed every attempt of their retry budget.")
	poolEndpoints = obs.Default().Gauge("transport_pool_endpoints",
		"Endpoints with a dialled exchanger in transport.Pool instances.")
)

// instrument wraps a scheme-bound protocol exchanger so every attempt
// self-reports: a per-attempt trace span (the retry middleware above it
// calls once per attempt, so spans align with attempts), the per-scheme
// latency histogram, and exchange/error counters. It sits between the
// retry middleware and the protocol client.
func instrument(ex Exchanger, scheme string) Exchanger {
	m, ok := schemeInstruments[scheme]
	if !ok {
		return ex
	}
	return &instrumented{inner: ex, scheme: scheme, m: m}
}

type instrumented struct {
	inner  Exchanger
	scheme string
	m      schemeMetrics
}

func (e *instrumented) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	ctx, sp := obs.StartSpan(ctx, "attempt")
	sp.SetAttr("scheme", e.scheme)
	start := time.Now()
	resp, err := e.inner.Exchange(ctx, q)
	elapsed := time.Since(start)
	e.m.latency.ObserveDuration(elapsed)
	e.m.exchanges.Inc()
	if err != nil {
		e.m.errors.Inc()
		sp.Annotate("error: %v", err)
	}
	sp.End()
	return resp, err
}

func (e *instrumented) Close() error { return e.inner.Close() }
