package doh

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/http/httptrace"
	"sync/atomic"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// HTTPError reports a non-200 DoH response; the measurement engine
// classifies it separately from transport failures.
type HTTPError struct {
	Status string // "503 Service Unavailable"
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("doh: server returned %s", e.Status)
}

// Client issues RFC 8484 DoH queries, each a POST of the wire-format
// message on a connection of its own, the paper's dig-style probe: dial,
// TLS handshake, one request and its response, close (fresh.go). TLS
// sessions resume from the client's session cache, so only its first
// connection to a server pays the full handshake. Build one with
// NewClient.
type Client struct {
	// Timeout bounds each query; zero means 5s.
	Timeout time.Duration

	tls    *tls.Config // NewClient's clone: ALPN and the session cache
	dialer dns53.ContextDialer
	last   atomic.Pointer[freshTarget] // a client mostly asks one endpoint
}

// Handshake-outcome counters, labelled like the DoT pair so dashboards
// can compare resumption rates across encrypted transports.
var (
	handshakesResumed = obs.Default().Counter("transport_doh_handshakes_total",
		"Completed DoH TLS handshakes by resumption outcome.", "resumed", "true")
	handshakesFull = obs.Default().Counter("transport_doh_handshakes_total",
		"Completed DoH TLS handshakes by resumption outcome.", "resumed", "false")
)

// NewClient builds a client configured from tlsCfg and dialer (either may
// be nil). Session tickets are cached: probes then measure the abbreviated
// handshake on repeat targets, matching how stub resolvers behave after
// their first contact with a server. Probes that need a guaranteed full
// handshake should pass a tlsCfg whose ClientSessionCache they control.
func NewClient(tlsCfg *tls.Config, dialer dns53.ContextDialer) *Client {
	if tlsCfg == nil {
		tlsCfg = &tls.Config{}
	} else {
		tlsCfg = tlsCfg.Clone()
	}
	if tlsCfg.ClientSessionCache == nil {
		tlsCfg.ClientSessionCache = tls.NewLRUClientSessionCache(32)
	}
	tlsCfg.NextProtos = []string{"h2", "http/1.1"}
	if dialer == nil {
		dialer = &net.Dialer{}
	}
	return &Client{tls: tlsCfg, dialer: dialer}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

// Exchange sends the query to the endpoint URL (e.g.
// "https://dns.example/dns-query") and parses the response.
func (c *Client) Exchange(ctx context.Context, query *dnswire.Message, endpoint string) (*dnswire.Message, error) {
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	wire, err := query.AppendPack((*bp)[:0])
	if err != nil {
		return nil, fmt.Errorf("doh: packing query: %w", err)
	}
	*bp = wire
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	return c.exchangeFresh(withClientTrace(ctx), wire, query, endpoint)
}

// bodyErr is the error of a response whose body could not be read.
func bodyErr(err error) error {
	if err == errBodyTooLarge {
		return errors.New("doh: response exceeds DNS message limit")
	}
	return fmt.Errorf("doh: reading response: %w", err)
}

// unpackResponse parses a 200 response's body, which must answer query
// (dns53.CheckResponse).
func unpackResponse(raw []byte, query *dnswire.Message) (*dnswire.Message, error) {
	resp, err := dnswire.Unpack(raw)
	if err != nil {
		return nil, fmt.Errorf("doh: parsing response: %w", err)
	}
	if err := dns53.CheckResponse(query, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// withClientTrace attaches an httptrace hook that records dial, TLS
// handshake, and first-byte spans on the context's current obs span, and
// counts handshake resumption outcomes. Untraced queries still count
// handshakes (the counters are process-wide); everything else costs
// nothing without a span in ctx. One exchange invokes the callbacks
// sequentially on its own goroutine (the dial's among them, from the net
// package), so the captured span variables need no locking.
func withClientTrace(ctx context.Context) context.Context {
	sp := obs.SpanFromContext(ctx)
	countHandshake := func(cs tls.ConnectionState, err error) {
		if err != nil {
			return
		}
		if cs.DidResume {
			handshakesResumed.Inc()
		} else {
			handshakesFull.Inc()
		}
	}
	if sp == nil {
		return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			TLSHandshakeDone: countHandshake,
		})
	}
	var dialSp, tlsSp, fbSp *obs.Span
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		ConnectStart:      func(_, _ string) { dialSp = sp.Start("dial") },
		ConnectDone:       func(_, _ string, _ error) { dialSp.End() },
		TLSHandshakeStart: func() { tlsSp = sp.Start("tls-handshake") },
		TLSHandshakeDone: func(cs tls.ConnectionState, err error) {
			tlsSp.End()
			countHandshake(cs, err)
			if err == nil && cs.DidResume {
				sp.Annotate("doh: abbreviated handshake (session resumed)")
			}
		},
		WroteRequest:         func(_ httptrace.WroteRequestInfo) { fbSp = sp.Start("first-byte") },
		GotFirstResponseByte: func() { fbSp.End() },
	})
}
