package transport

import "encdns/internal/obs"

// Per-scheme exchange, dial and handshake instruments plus shared retry
// counters, all in the process-wide obs registry. The handles are
// registered once here so the Exchange hot path is an atomic add, never a
// registry lookup.
type schemeMetrics struct {
	exchanges    *obs.Counter
	errors       *obs.Counter
	latency      *obs.Histogram
	dialFailures *obs.Counter
	// The TLS handshakes of tls and https endpoints by resumption
	// outcome, under the series names of the DoT and DoH clients they
	// were first counted by; nil for udp and tcp.
	handshakesFull, handshakesResumed *obs.Counter
}

// handshakeSeries names and describes the handshake counters of the
// schemes that have a TLS handshake.
var handshakeSeries = map[string][2]string{
	SchemeTLS:   {"transport_dot_handshakes_total", "Completed DoT TLS handshakes by resumption outcome."},
	SchemeHTTPS: {"transport_doh_handshakes_total", "Completed DoH TLS handshakes by resumption outcome."},
}

var (
	schemeInstruments = func() map[string]schemeMetrics {
		reg := obs.Default()
		out := make(map[string]schemeMetrics, 4)
		for _, scheme := range []string{SchemeUDP, SchemeTCP, SchemeTLS, SchemeHTTPS} {
			m := schemeMetrics{
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
			if series, ok := handshakeSeries[scheme]; ok {
				m.handshakesFull = reg.Counter(series[0], series[1], "resumed", "false")
				m.handshakesResumed = reg.Counter(series[0], series[1], "resumed", "true")
			}
			out[scheme] = m
		}
		return out
	}()

	retryAttempts = obs.Default().Counter("transport_retry_attempts_total",
		"Re-attempts issued by the shared retry loop (first attempts excluded).")
	retryExhausted = obs.Default().Counter("transport_retry_exhausted_total",
		"Exchanges that failed every attempt of their retry budget.")
	poolEndpoints = obs.Default().Gauge("transport_pool_endpoints",
		"Endpoints with a dialled exchanger in transport.Pool instances.")
)
