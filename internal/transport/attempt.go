package transport

import (
	"context"
	"crypto/tls"
	"fmt"
	"net"
	"net/http/httptrace"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/obs"
)

// attemptTimeout bounds one attempt of each scheme when Options.Timeout
// is zero.
var attemptTimeout = map[string]time.Duration{
	SchemeUDP:   2 * time.Second,
	SchemeTCP:   2 * time.Second,
	SchemeTLS:   5 * time.Second,
	SchemeHTTPS: 5 * time.Second,
}

// noTrace stands in for a context without httptrace hooks.
var noTrace httptrace.ClientTrace

// exchanger is what Dial returns: every scheme's exchange is the same
// retry loop over the same attempt routine, and only the bytes on an
// established connection differ (dns53, doh). Each attempt dials a
// connection of its own.
type exchanger struct {
	scheme  string
	addr    string // host:port dialled
	dialer  *chainDialer
	timeout time.Duration // per round trip
	policy  RetryPolicy   // normalized
	m       schemeMetrics
	// tls is set for tls and https: the endpoint's probeTLS clone, whose
	// session cache resumes every handshake after the first.
	tls *tls.Config
	// authority and path address the https request.
	authority, path string
}

// Exchange makes up to policy.MaxAttempts attempts, sleeping a
// decorrelated-jitter backoff between them. Each call restarts the
// (seeded, deterministic) backoff sequence. A failure of every attempt
// returns the last attempt's error, wrapped when there were several.
func (e *exchanger) Exchange(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	var bo *Backoff
	for attempt := 1; ; attempt++ {
		resp, err := e.instrumented(ctx, q)
		if err == nil {
			return resp, nil
		}
		if e.policy.MaxAttempts == 1 {
			return nil, err
		}
		if attempt == e.policy.MaxAttempts || ctx.Err() != nil {
			return nil, e.exhausted(err)
		}
		if bo == nil {
			bo = NewBackoff(backoffBase, backoffMax, backoffSeed)
		}
		delay := bo.Next()
		retryAttempts.Inc()
		obs.Annotate(ctx, "retry: attempt %d after %s backoff", attempt+1, delay)
		if e.policy.Sleep(ctx, delay) != nil {
			return nil, e.exhausted(err) // cancelled while backing off
		}
	}
}

func (e *exchanger) exhausted(err error) error {
	retryExhausted.Inc()
	return fmt.Errorf("transport: %d attempt(s) failed: %w", e.policy.MaxAttempts, err)
}

// Close implements Exchanger; an exchanger holds no connection.
func (e *exchanger) Close() error { return nil }

// instrumented runs one attempt under its own trace span and feeds the
// scheme's counters and latency histogram.
func (e *exchanger) instrumented(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	ctx, sp := obs.StartSpan(ctx, "attempt")
	sp.SetAttr("scheme", e.scheme)
	start := time.Now()
	resp, err := e.attempt(ctx, q)
	e.m.latency.ObserveDuration(time.Since(start))
	e.m.exchanges.Inc()
	if err != nil {
		e.m.errors.Inc()
		sp.Annotate("error: %v", err)
	}
	sp.End()
	return resp, err
}

// attempt is one attempt of any scheme: the query packed once, then one
// round trip, and for a truncated udp answer a second over tcp (RFC 1035
// §4.2.2) with a bound of its own.
func (e *exchanger) attempt(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	wire, err := q.AppendPack((*bp)[:0])
	if err != nil {
		return nil, fmt.Errorf("transport: packing query: %w", err)
	}
	*bp = wire
	if e.scheme != SchemeUDP {
		return e.roundTrip(ctx, "tcp", wire, q)
	}
	resp, err := e.roundTrip(ctx, "udp", wire, q)
	if err != nil || !resp.Header.TC {
		return resp, err
	}
	return e.roundTrip(ctx, "tcp", wire, q)
}

// roundTrip dials one connection, handshakes TLS where the scheme has it,
// exchanges wire on it and checks the response against q. The round
// trip's bound is a deadline on the connection, and a caller's
// cancellation moves that deadline to now: the connection is never closed
// under a read, so an expired bound reads as a timeout whatever the
// connection was doing. An error once the bound or the caller's context
// is done is that context's.
func (e *exchanger) roundTrip(ctx context.Context, network string, wire []byte, q *dnswire.Message) (resp *dnswire.Message, err error) {
	ctx, cancel := context.WithTimeout(ctx, e.timeout)
	defer cancel()
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("transport: %s %s: %w", network, e.addr, ctx.Err())
		}
	}()
	sp := obs.SpanFromContext(ctx)
	dialSp := sp.Start("dial")
	raw, err := e.dialer.DialContext(ctx, network, e.addr)
	dialSp.End()
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s %s: %w", network, e.addr, err)
	}
	defer raw.Close()
	deadline, _ := ctx.Deadline()
	_ = raw.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { _ = raw.SetDeadline(time.Now()) })
	defer stop()

	trace := httptrace.ContextClientTrace(ctx)
	if trace == nil {
		trace = &noTrace
	}
	conn := raw
	var tconn *tls.Conn
	if e.tls != nil {
		if tconn, err = e.handshake(ctx, raw, trace); err != nil {
			return nil, err
		}
		defer tconn.Close() // close_notify, then raw's close
		conn = tconn
	}
	exSp := sp.Start("exchange")
	switch {
	case network == "udp":
		resp, err = dns53.ExchangeUDP(conn, q, wire)
	case e.scheme == SchemeHTTPS:
		resp, err = doh.ExchangeConn(tconn, trace, e.authority, e.path, wire)
	default:
		resp, err = dns53.ExchangeConn(conn, wire)
	}
	exSp.End()
	if err == nil {
		err = dns53.CheckResponse(q, resp)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// handshake runs the TLS handshake on conn, firing trace's TLS hooks as
// net/http would and counting the handshake by resumption outcome.
func (e *exchanger) handshake(ctx context.Context, conn net.Conn, trace *httptrace.ClientTrace) (*tls.Conn, error) {
	sp := obs.SpanFromContext(ctx).Start("tls-handshake")
	if trace.TLSHandshakeStart != nil {
		trace.TLSHandshakeStart()
	}
	tconn := tls.Client(conn, e.tls)
	err := tconn.Handshake()
	var state tls.ConnectionState
	if err == nil {
		state = tconn.ConnectionState()
	}
	if trace.TLSHandshakeDone != nil {
		trace.TLSHandshakeDone(state, err)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("transport: TLS handshake with %s: %w", e.addr, err)
	}
	if state.DidResume {
		e.m.handshakesResumed.Inc()
		sp.Annotate("abbreviated handshake (session resumed)")
	} else {
		e.m.handshakesFull.Inc()
	}
	return tconn, nil
}
