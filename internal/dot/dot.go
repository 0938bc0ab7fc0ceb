// Package dot implements DNS-over-TLS (RFC 7858): a client with optional
// connection reuse and a server that terminates TLS and dispatches to the
// shared dns53 handler/framing machinery. DoT runs the RFC 1035 TCP
// framing over a TLS session on its dedicated port 853 — the design that
// makes it easy for networks to block wholesale, which is why the paper's
// measured resolvers overwhelmingly deploy DoH alongside or instead.
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

// Process-wide pool instruments: the DoT connection cache at /metrics.
var (
	poolHits = obs.Default().Counter("transport_dot_pool_hits_total",
		"DoT exchanges served over a cached TLS session.")
	poolMisses = obs.Default().Counter("transport_dot_pool_misses_total",
		"DoT exchanges that had to dial and handshake.")
	poolEvictions = obs.Default().Counter("transport_dot_pool_evictions_total",
		"Cached DoT sessions dropped: stale, over the bound, or dead when reused.")
	poolIdle = obs.Default().Gauge("transport_dot_pool_idle",
		"Currently cached DoT sessions across clients.")
	handshakesResumed = obs.Default().Counter("transport_dot_handshakes_total",
		"Completed DoT TLS handshakes by resumption outcome.", "resumed", "true")
	handshakesFull = obs.Default().Counter("transport_dot_handshakes_total",
		"Completed DoT TLS handshakes by resumption outcome.", "resumed", "false")
)

// Client issues DNS queries over TLS.
type Client struct {
	// TLS configures certificate verification; nil uses the system roots
	// with the server name inferred from the address.
	TLS *tls.Config
	// Timeout bounds dial+handshake+exchange per query; zero means 5s.
	Timeout time.Duration
	// Dialer provides the underlying TCP connection; nil uses net.Dialer.
	Dialer dns53.ContextDialer
	// Reuse keeps TLS sessions open between queries. The paper's
	// related work (Zhu et al., Böttger et al.) found connection reuse
	// amortises most of the encryption overhead.
	Reuse bool

	mu       sync.Mutex
	conns    map[string]*idleConn   // cached connections when Reuse is set
	sessions tls.ClientSessionCache // lazily created, shared across dials
	now      func() time.Time       // test hook; nil means time.Now
}

// idleConn is one cached TLS session and when it was last used.
type idleConn struct {
	conn *tls.Conn
	last time.Time
}

// The connection cache's bounds: at most maxIdleConns connections across
// servers, the least recently used evicted when full, and none idle longer
// than idleTimeout (the DoH transport's idle timeout).
const (
	maxIdleConns = 4
	idleTimeout  = 60 * time.Second
)

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

func (c *Client) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

// Exchange sends query to server ("host:port") over TLS and returns the
// response.
func (c *Client) Exchange(ctx context.Context, query *dnswire.Message, server string) (*dnswire.Message, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()

	if c.Reuse {
		if resp, err := c.exchangeCached(ctx, query, server); err == nil {
			return resp, nil
		}
		// Cached path failed (no connection, or a stale one); fall
		// through to a fresh dial — exactly what stub resolvers do.
	}
	if c.Reuse {
		poolMisses.Inc()
	}
	conn, err := c.dial(ctx, server)
	if err != nil {
		return nil, err
	}
	exSp := obs.SpanFromContext(ctx).Start("exchange")
	resp, err := exchangeOn(ctx, conn, query)
	exSp.End()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if c.Reuse {
		c.store(conn, server)
	} else {
		conn.Close()
	}
	return resp, nil
}

// exchangeCached tries the cached connection for server, evicting stale
// entries first. Only an exchange that succeeds on it counts as a hit; a
// connection that turns out dead is an eviction.
func (c *Client) exchangeCached(ctx context.Context, query *dnswire.Message, server string) (*dnswire.Message, error) {
	c.mu.Lock()
	c.evictStaleLocked()
	ic := c.conns[server]
	if ic == nil {
		c.mu.Unlock()
		return nil, errors.New("dot: no cached connection")
	}
	delete(c.conns, server) // claim it; returned on success
	poolIdle.Dec()
	c.mu.Unlock()
	obs.Annotate(ctx, "dot: reusing cached session to %s", server)
	resp, err := exchangeOn(ctx, ic.conn, query)
	if err != nil {
		ic.conn.Close()
		poolEvictions.Inc()
		return nil, err
	}
	poolHits.Inc()
	c.store(ic.conn, server)
	return resp, nil
}

// store caches conn for server, enforcing the idle bound.
func (c *Client) store(conn *tls.Conn, server string) {
	var closing []*tls.Conn
	c.mu.Lock()
	if c.conns == nil {
		c.conns = make(map[string]*idleConn)
	}
	if old := c.conns[server]; old != nil && old.conn != conn {
		// Replacement: the idle count is unchanged (one out, one in).
		closing = append(closing, old.conn)
		poolEvictions.Inc()
	} else if old == nil {
		poolIdle.Inc()
	}
	c.conns[server] = &idleConn{conn: conn, last: c.clock()}
	// Over the bound: evict the least recently used other entry.
	for len(c.conns) > maxIdleConns {
		var oldestKey string
		var oldest *idleConn
		for k, ic := range c.conns {
			if k == server {
				continue
			}
			if oldest == nil || ic.last.Before(oldest.last) {
				oldestKey, oldest = k, ic
			}
		}
		if oldest == nil {
			break
		}
		delete(c.conns, oldestKey)
		closing = append(closing, oldest.conn)
		poolEvictions.Inc()
		poolIdle.Dec()
	}
	c.mu.Unlock()
	for _, cc := range closing {
		cc.Close()
	}
}

// evictStaleLocked drops connections idle past idleTimeout. Callers hold
// c.mu.
func (c *Client) evictStaleLocked() {
	cutoff := c.clock().Add(-idleTimeout)
	for k, ic := range c.conns {
		if ic.last.Before(cutoff) {
			delete(c.conns, k)
			ic.conn.Close()
			poolEvictions.Inc()
			poolIdle.Dec()
		}
	}
}

// Close drops every cached connection.
func (c *Client) Close() error {
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	poolIdle.Add(-int64(len(conns)))
	c.mu.Unlock()
	var firstErr error
	for _, ic := range conns {
		if err := ic.conn.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
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
	// dials (abbreviated handshake) — the second-biggest encrypted-DNS
	// latency saving after connection reuse itself, and the one that still
	// applies when a middlebox or NAT rebinding kills the cached TCP
	// connection.
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
