package doh

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// Method selects how the client sends queries (RFC 8484 allows both).
type Method int

// Methods. GET is cache-friendly; POST is smaller and the common default.
const (
	MethodPOST Method = iota
	MethodGET
)

// HTTPError reports a non-200 DoH response; the measurement engine
// classifies it separately from transport failures.
type HTTPError struct {
	StatusCode int
	Status     string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("doh: server returned %s", e.Status)
}

// Client issues RFC 8484 DoH queries.
type Client struct {
	// HTTP, when set, carries every query: a pooled client from
	// NewClient, or one a caller injects (drain its idle pool with
	// CloseIdle to make the next query pay connection set-up). A client
	// from NewClient with reuse off leaves it nil and runs each query on a
	// connection of its own, the paper's dig-style probe, with no pool to
	// drain. Either way TLS sessions resume from the session cache: only a
	// client's first connection to a server pays the full handshake. A nil
	// HTTP on a Client built by hand uses a private default.
	HTTP *http.Client
	// Method selects GET or POST; default POST.
	Method Method
	// Timeout bounds each query; zero means 5s.
	Timeout time.Duration
	// UserAgent is sent on requests when non-empty.
	UserAgent string

	fresh *freshConfig // NewClient's, with reuse off
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
// be nil). With reuse it pools keep-alive connections in a net/http
// transport of its own; without, every query dials, handshakes and asks on
// a connection that is closed after its one answer (see fresh.go). Session
// tickets are cached either way: fresh-connection probes then measure the
// abbreviated handshake on repeat targets, matching how stub resolvers
// behave after their first contact with a server. Probes that need a
// guaranteed full handshake should pass a tlsCfg whose ClientSessionCache
// they control.
func NewClient(tlsCfg *tls.Config, dialer dns53.ContextDialer, reuse bool) *Client {
	if tlsCfg == nil {
		tlsCfg = &tls.Config{}
	} else {
		tlsCfg = tlsCfg.Clone()
	}
	if tlsCfg.ClientSessionCache == nil {
		tlsCfg.ClientSessionCache = tls.NewLRUClientSessionCache(32)
	}
	if !reuse {
		tlsCfg.NextProtos = []string{"h2", "http/1.1"}
		if dialer == nil {
			dialer = &net.Dialer{}
		}
		return &Client{fresh: &freshConfig{tls: tlsCfg, dialer: dialer}}
	}
	tr := &http.Transport{
		TLSClientConfig:   tlsCfg,
		ForceAttemptHTTP2: true,
		MaxIdleConns:      16,
		IdleConnTimeout:   60 * time.Second,
	}
	if dialer != nil {
		tr.DialContext = dialer.DialContext
	}
	return &Client{HTTP: &http.Client{Transport: tr}}
}

func (c *Client) http() *http.Client {
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	return c.HTTP
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

// oneShot reports whether queries run on connections of their own.
func (c *Client) oneShot() bool { return c.HTTP == nil && c.fresh != nil }

// CloseIdle drops pooled connections, forcing the next query to pay the
// full TCP+TLS establishment cost. A fresh-connection client pools none.
func (c *Client) CloseIdle() {
	if !c.oneShot() {
		c.http().CloseIdleConnections()
	}
}

// Query exchanges a single question with the DoH endpoint URL (e.g.
// "https://dns.example/dns-query").
func (c *Client) Query(ctx context.Context, endpoint, name string, t dnswire.Type) (*dnswire.Message, error) {
	// RFC 8484 recommends ID 0 for cacheability of GETs; the TLS channel
	// provides the anti-spoofing the ID used to.
	id := uint16(0)
	if c.Method == MethodPOST {
		id = dns53.NewID()
	}
	q := dnswire.NewQuery(id, name, t)
	q.SetEDNS(dnswire.MaxEDNSSize, false)
	return c.Exchange(ctx, q, endpoint)
}

// Exchange sends the query to the endpoint and parses the response.
func (c *Client) Exchange(ctx context.Context, query *dnswire.Message, endpoint string) (*dnswire.Message, error) {
	bp := bufpool.Get()
	wire, err := query.AppendPack((*bp)[:0])
	if err != nil {
		bufpool.Put(bp)
		return nil, fmt.Errorf("doh: packing query: %w", err)
	}
	*bp = wire
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	ctx = withClientTrace(ctx)
	if c.oneShot() {
		defer bufpool.Put(bp)
		return c.exchangeFresh(ctx, wire, query, endpoint)
	}

	body := newPooledBody(bp)
	var req *http.Request
	if c.Method == MethodGET {
		// The wire bytes are dead once base64-encoded into the URL, so the
		// buffer can be released when this function returns.
		defer body.Close()
		u, err := url.Parse(endpoint)
		if err != nil {
			return nil, fmt.Errorf("doh: endpoint: %w", err)
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, withDNSParam(*u, wire).String(), nil)
		if err != nil {
			return nil, fmt.Errorf("doh: building request: %w", err)
		}
	} else {
		// For POST the transport owns body until the request write loop
		// finishes; body.Close (called by the transport) recycles it.
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, endpoint, body)
		if err != nil {
			body.Close()
			return nil, fmt.Errorf("doh: building request: %w", err)
		}
		req.ContentLength = int64(len(wire))
		req.Header.Set("Content-Type", ContentType)
	}
	req.Header.Set("Accept", ContentType)
	if c.UserAgent != "" {
		req.Header.Set("User-Agent", c.UserAgent)
	}

	httpResp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("doh: request: %w", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(httpResp.Body, 4096))
		return nil, &HTTPError{StatusCode: httpResp.StatusCode, Status: httpResp.Status}
	}
	// The response wire lives in a pooled buffer only as long as Unpack
	// needs it: plain Unpack fully copies into the returned Message.
	rbp := bufpool.Get()
	defer bufpool.Put(rbp)
	raw, err := readAllInto((*rbp)[:0], httpResp.Body, dnswire.MaxMessageSize)
	*rbp = raw
	if err != nil {
		return nil, bodyErr(err)
	}
	return unpackResponse(raw, query)
}

// withDNSParam returns u with the dns parameter of an RFC 8484 GET set to
// wire.
func withDNSParam(u url.URL, wire []byte) *url.URL {
	qs := u.Query()
	qs.Set("dns", base64.RawURLEncoding.EncodeToString(wire))
	u.RawQuery = qs.Encode()
	return &u
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
// nothing without a span in ctx. The HTTP transport invokes the callbacks
// sequentially for a single request, so the captured span variables need
// no locking.
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
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				sp.Annotate("doh: reused pooled connection")
			}
		},
		WroteRequest:         func(_ httptrace.WroteRequestInfo) { fbSp = sp.Start("first-byte") },
		GotFirstResponseByte: func() { fbSp.End() },
	})
}
