// Package serve composes the resolver dohserver runs: one caching
// resolver (recursive over the built-in authoritative hierarchy, or
// forwarding to an upstream), routed through a cluster node when peers
// are given, and served over Do53 (UDP and TCP), DoT and DoH, with
// /metrics and /debug/ on the DoH listener. The binary, its tests and the
// examples all start this one stack.
package serve

import (
	"cmp"
	"context"
	"crypto/tls"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/cluster"
	"encdns/internal/dns53"
	"encdns/internal/doh"
	"encdns/internal/dot"
	"encdns/internal/obs"
	"encdns/internal/obshttp"
	"encdns/internal/resolver"
	"encdns/internal/transport"
)

// Config is the stack dohserver's flags describe.
type Config struct {
	// Do53, DoT and DoH are listen addresses; "" leaves the frontend out
	// and port 0 binds a free port. Do53 binds UDP and TCP separately, so
	// with port 0 the two get ports of their own.
	Do53, DoT, DoH string
	// Forward is an upstream Do53 server to forward to; "" recurses over
	// the built-in hierarchy.
	Forward string
	// Cache is the resolver's cache size in entries.
	Cache int
	// MaxConns caps concurrent connections per stream listener (Do53/TCP,
	// DoT, DoH); 0 is unlimited.
	MaxConns int
	// IdleTimeout disconnects stream clients idle this long.
	IdleTimeout time.Duration
	// Peers lists the other cluster members' Do53 endpoints, comma
	// separated; "" runs no cluster. A node's own ID is its Do53 address
	// as written here, so every member must spell it as its peers do.
	Peers string
	// ClusterID is carried on forwarded queries and must match on every
	// member.
	ClusterID string
	// Logger receives the listening and cluster notices and the servers'
	// own; nil discards them.
	Logger *slog.Logger
}

// Stack is a started Config.
type Stack struct {
	// UDP, TCP, DoT and DoH are the bound addresses, "" for a frontend the
	// Config left out.
	UDP, TCP, DoT, DoH string
	// CA signed the DoT and DoH certificate; clients trust it.
	CA *certs.CA

	cancel   context.CancelFunc
	cache    *resolver.Cache
	upstream *transport.Pool // the forwarder's; nil when recursing
	peerPool *transport.Pool
	node     *cluster.Node
	dns      *dns53.Server
	http     *http.Server
	errs     chan error // one slot per serve loop: UDP, TCP, DoT, DoH
}

// Start builds the resolver and binds every frontend cfg names. The node's
// peer probes run until ctx ends or Shutdown.
func Start(ctx context.Context, cfg Config) (_ *Stack, err error) {
	logger := cmp.Or(cfg.Logger, slog.New(slog.DiscardHandler))
	ctx, cancel := context.WithCancel(ctx)
	s := &Stack{cancel: cancel, cache: resolver.NewCache(cfg.Cache, nil), errs: make(chan error, 4)}
	defer func() {
		if err != nil {
			s.Shutdown()
		}
	}()
	var handler dns53.Handler
	if cfg.Forward != "" {
		s.upstream = transport.NewPool(transport.Options{})
		handler = &resolver.Forwarder{Exchange: s.upstream, Upstreams: []string{cfg.Forward}, Cache: s.cache}
	} else {
		h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
		handler = &resolver.Recursive{Exchange: h.Registry, Roots: h.RootServers, Cache: s.cache}
	}

	if cfg.Peers != "" {
		// The node's ID is its own Do53 endpoint as peers dial it, so every
		// member derives the same ring from the same peer endpoints.
		if cfg.Do53 == "" {
			return nil, fmt.Errorf("cluster mode needs -do53 (peers forward over Do53)")
		}
		self, err := cluster.PeerID(cfg.Do53)
		if err != nil {
			return nil, fmt.Errorf("-do53: %w", err)
		}
		remotes, err := cluster.PeerIDs(cfg.Peers)
		if err != nil {
			return nil, fmt.Errorf("-peers: %w", err)
		}
		// A hop is one attempt: a lost datagram has already spent the
		// node's forward timeout, and a failed hop falls back to Local.
		noRetry := transport.NoRetry()
		s.peerPool = transport.NewPool(transport.Options{Retry: &noRetry})
		s.node = &cluster.Node{Self: self, Peers: remotes, Local: handler, Forward: s.peerPool, ClusterID: cfg.ClusterID}
		handler = s.node
		logger.Info("cluster mode", "self", self, "peers", len(remotes), "cluster-id", cfg.ClusterID)
	}

	s.dns = &dns53.Server{
		Handler:     handler,
		Logger:      logger,
		ReadTimeout: cfg.IdleTimeout, // doubles as the per-read stream idle timeout
	}
	if s.CA, err = certs.NewCA(0); err != nil {
		return nil, err
	}
	tlsCfg, err := s.CA.ServerConfig([]string{"localhost"}, []net.IP{net.ParseIP("127.0.0.1"), net.ParseIP("::1")})
	if err != nil {
		return nil, err
	}
	if s.node != nil {
		// Active probing is what re-admits a Down peer: no forwards are
		// routed to it, so only probes can observe it healthy again.
		go s.node.ProbeLoop(ctx)
	}

	if cfg.Do53 != "" {
		pc, err := net.ListenPacket("udp", cfg.Do53)
		if err != nil {
			return nil, fmt.Errorf("do53 udp: %w", err)
		}
		go s.serve(func() error { return s.dns.ServeUDP(pc) })
		ln, err := net.Listen("tcp", cfg.Do53)
		if err != nil {
			return nil, fmt.Errorf("do53 tcp: %w", err)
		}
		go s.serve(func() error { return s.dns.ServeTCP(transport.LimitListener(ln, cfg.MaxConns, "do53-tcp")) })
		s.UDP, s.TCP = pc.LocalAddr().String(), ln.Addr().String()
		logger.Info("do53 listening", "udp", s.UDP, "tcp", s.TCP)
	}
	if cfg.DoT != "" {
		ln, err := net.Listen("tcp", cfg.DoT)
		if err != nil {
			return nil, fmt.Errorf("dot: %w", err)
		}
		srv := &dot.Server{DNS: s.dns, TLS: tlsCfg}
		// The conn cap rejects fast at the TCP layer; idle disconnects come
		// from the dns53 read deadline.
		go s.serve(func() error { return srv.Serve(transport.LimitListener(ln, cfg.MaxConns, "dot")) })
		s.DoT = ln.Addr().String()
		logger.Info("dot listening", "addr", s.DoT)
	}
	if cfg.DoH != "" {
		mux := http.NewServeMux()
		dohHandler := &doh.Handler{DNS: handler}
		mux.Handle(doh.DefaultPath, dohHandler)
		// Introspection rides the same mux: /metrics (Prometheus text),
		// /debug/obs (JSON snapshot), and /debug/pprof (profiles).
		obs.RegisterRuntimeMetrics(obs.Default())
		introspection := obshttp.NewHandler(obs.Default(), nil)
		mux.Handle("/metrics", introspection)
		mux.Handle("/debug/", introspection)
		ln, err := net.Listen("tcp", cfg.DoH)
		if err != nil {
			return nil, fmt.Errorf("doh: %w", err)
		}
		s.http = &http.Server{
			Handler:     mux,
			TLSConfig:   tlsCfg.Clone(),
			IdleTimeout: cfg.IdleTimeout,
			// HTTP/2 connections go to the DoH burst loop, which answers
			// cache hits itself and hands everything else to the mux;
			// HTTP/1.1 and all connection management stay net/http's.
			TLSNextProto: map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": dohHandler.ServeH2},
		}
		go s.serve(func() error { return s.http.ServeTLS(transport.LimitListener(ln, cfg.MaxConns, "doh"), "", "") })
		s.DoH = ln.Addr().String()
		logger.Info("doh listening", "addr", s.DoH, "path", doh.DefaultPath)
	}
	return s, nil
}

// serve runs one frontend's accept or receive loop and reports how it
// ended to Wait.
func (s *Stack) serve(loop func() error) {
	if err := loop(); err != nil {
		select {
		case s.errs <- err:
		default:
		}
	}
}

// Wait blocks until ctx ends, which returns nil, or a frontend stops
// serving, which returns why.
func (s *Stack) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return nil
	case err := <-s.errs:
		return err
	}
}

// Shutdown drains the stack in order: stop accepting (the frontends),
// finish what is in flight (UDP misses and stream connections, which
// includes queries blocked on peer forwards), drain the node's own work
// (forwards, probes), and only then tear down the peer transport, so
// nothing in flight loses its dependencies.
func (s *Stack) Shutdown() {
	if s.http != nil {
		_ = s.http.Close()
	}
	if s.dns != nil {
		s.dns.Shutdown()
	}
	if s.node != nil {
		s.node.Close()
	}
	s.cancel()
	if s.peerPool != nil {
		_ = s.peerPool.Close()
	}
	if s.upstream != nil {
		_ = s.upstream.Close()
	}
	s.cache.Close()
}
