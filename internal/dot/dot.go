// Package dot implements DNS-over-TLS (RFC 7858): a client that asks each
// query on a connection of its own and a server that terminates TLS and
// dispatches to the shared dns53 handler/framing machinery. DoT runs the
// RFC 1035 TCP framing over a TLS session on its dedicated port 853 — the
// design that makes it easy for networks to block wholesale, which is why
// the paper's measured resolvers overwhelmingly deploy DoH alongside or
// instead.
package dot

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// Handshake-outcome counters at /metrics, labelled like the DoH pair.
var (
	handshakesResumed = obs.Default().Counter("transport_dot_handshakes_total",
		"Completed DoT TLS handshakes by resumption outcome.", "resumed", "true")
	handshakesFull = obs.Default().Counter("transport_dot_handshakes_total",
		"Completed DoT TLS handshakes by resumption outcome.", "resumed", "false")
)

// Client issues DNS queries over TLS, each on a connection of its own: the
// paper's dig-style probe. TLS sessions resume from the client's session
// cache, so only its first connection to a server pays the full handshake.
type Client struct {
	// TLS configures certificate verification; nil uses the system roots
	// with the server name inferred from the address.
	TLS *tls.Config
	// Timeout bounds dial+handshake+exchange per query; zero means 5s.
	Timeout time.Duration
	// Dialer provides the underlying TCP connection; nil uses net.Dialer.
	Dialer dns53.ContextDialer

	mu       sync.Mutex
	sessions tls.ClientSessionCache // lazily created, shared across dials
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 5 * time.Second
}

func (c *Client) dialer() dns53.ContextDialer {
	if c.Dialer != nil {
		return c.Dialer
	}
	return &net.Dialer{}
}

// Exchange sends query to server ("host:port") over a new TLS connection
// and returns the response.
func (c *Client) Exchange(ctx context.Context, query *dnswire.Message, server string) (*dnswire.Message, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	conn, err := c.dial(ctx, server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	exSp := obs.SpanFromContext(ctx).Start("exchange")
	defer exSp.End()
	return exchangeOn(ctx, conn, query)
}

// dial establishes and handshakes a TLS connection.
func (c *Client) dial(ctx context.Context, server string) (*tls.Conn, error) {
	dialSp := obs.SpanFromContext(ctx).Start("dial")
	raw, err := c.dialer().DialContext(ctx, "tcp", server)
	dialSp.End()
	if err != nil {
		return nil, fmt.Errorf("dot: dial %s: %w", server, err)
	}
	cfg := c.TLS
	if cfg == nil {
		cfg = &tls.Config{}
	} else {
		cfg = cfg.Clone()
	}
	if cfg.ServerName == "" {
		host, _, err := net.SplitHostPort(server)
		if err != nil {
			host = server
		}
		cfg.ServerName = host
	}
	if cfg.ClientSessionCache == nil {
		cfg.ClientSessionCache = c.sessionCache()
	}
	conn := tls.Client(raw, cfg)
	hsSp := obs.SpanFromContext(ctx).Start("tls-handshake")
	if err := conn.HandshakeContext(ctx); err != nil {
		hsSp.End()
		raw.Close()
		return nil, fmt.Errorf("dot: TLS handshake with %s: %w", server, err)
	}
	hsSp.End()
	// Session-ticket resumption skips the certificate exchange on repeat
	// dials (abbreviated handshake): the saving a fresh connection per
	// query still gets.
	if conn.ConnectionState().DidResume {
		handshakesResumed.Inc()
		obs.Annotate(ctx, "dot: abbreviated handshake (session resumed) with %s", server)
	} else {
		handshakesFull.Inc()
	}
	return conn, nil
}

// sessionCache returns the client's TLS session-ticket cache, creating it
// on first use. Sharing one cache across dials is what lets a fresh
// connection to a previously-seen server resume instead of paying the
// full handshake.
func (c *Client) sessionCache() tls.ClientSessionCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sessions == nil {
		c.sessions = tls.NewLRUClientSessionCache(32)
	}
	return c.sessions
}

// exchangeOn runs one framed exchange on an established connection,
// honouring the context deadline.
func exchangeOn(ctx context.Context, conn net.Conn, query *dnswire.Message) (*dnswire.Message, error) {
	if d, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(d)
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	wire, err := query.AppendPack((*bp)[:0])
	if err != nil {
		return nil, fmt.Errorf("dot: packing query: %w", err)
	}
	*bp = wire
	return dns53.ExchangeConn(conn, query, wire)
}

// Server terminates DoT connections and hands them to a dns53.Server: TLS
// is a listener wrapped around its stream loop, so accept handling,
// connection tracking, Shutdown and the run-to-completion serving (every
// query pipelined into one TLS record answered in one TLS record, in
// order; see dns53.Server) are that server's.
type Server struct {
	DNS *dns53.Server
	TLS *tls.Config
}

// Serve accepts TLS connections from ln until it is closed or DNS is shut
// down, which closes ln and makes Serve return nil. Pass a plain TCP
// listener; Serve wraps it with the server's TLS config.
func (s *Server) Serve(ln net.Listener) error {
	if s.TLS == nil {
		return errors.New("dot: server needs a TLS config")
	}
	return s.DNS.ServeTCP(tls.NewListener(ln, s.TLS))
}
