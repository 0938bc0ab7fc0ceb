// Command dohserver runs a complete encrypted-DNS resolver: one caching
// recursive resolver (iterating over a built-in authoritative hierarchy
// for the measurement domains, or forwarding to an upstream) exposed over
// three frontends at once — Do53 (UDP+TCP), DoT, and DoH. It is the
// server-side substrate of the reproduction and a live target for
// dnsmeasure -mode live.
//
// On startup it writes its self-signed CA certificate to -ca-out so
// clients can trust the TLS endpoints:
//
//	dohserver -do53 127.0.0.1:5353 -dot 127.0.0.1:8853 -doh 127.0.0.1:8443
//	curl --cacert /tmp/dohserver-ca.pem "https://127.0.0.1:8443/dns-query?name=google.com&type=A"
package main

import (
	"context"
	"crypto/tls"
	"encoding/pem"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/cluster"
	"encdns/internal/dns53"
	"encdns/internal/doh"
	"encdns/internal/dot"
	"encdns/internal/obs"
	"encdns/internal/resolver"
	"encdns/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dohserver:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		do53Addr = flag.String("do53", "127.0.0.1:5353", "Do53 listen address (UDP+TCP); empty disables")
		dotAddr  = flag.String("dot", "127.0.0.1:8853", "DoT listen address; empty disables")
		dohAddr  = flag.String("doh", "127.0.0.1:8443", "DoH listen address; empty disables")
		caOut    = flag.String("ca-out", "/tmp/dohserver-ca.pem", "write the CA certificate here")
		upstream = flag.String("forward", "", "forward to this upstream Do53 server instead of recursing locally")
		zoneFile = flag.String("zone", "", "serve this RFC 1035 zone file authoritatively instead of resolving")
		zoneOrig = flag.String("zone-origin", ".", "origin of -zone")
		cacheN   = flag.Int("cache", 65536, "cache entries")
		prefetch = flag.Float64("prefetch", 0, "accepted for old command lines: refresh-ahead was removed, and 0 is the only value")
		verbose  = flag.Bool("v", false, "debug-level logging")

		maxConns = flag.Int("max-conns", 4096, "max concurrent connections per stream listener (Do53/TCP, DoT, DoH); 0 unlimited")
		idleTO   = flag.Duration("idle-timeout", 60*time.Second, "disconnect stream clients idle this long")

		peers     = flag.String("peers", "", "comma-separated remote peer endpoints (e.g. udp://127.0.0.1:5302,udp://127.0.0.1:5303); enables cluster mode")
		clusterID = flag.String("cluster-id", "encdns", "cluster identity carried on forwarded queries; must match on every peer")
	)
	flag.Parse()
	if *prefetch != 0 {
		return fmt.Errorf("refresh-ahead was removed; -prefetch accepts only 0")
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cache := resolver.NewCache(*cacheN, nil)
	defer cache.Close()
	handler, err := buildHandler(*upstream, *zoneFile, *zoneOrig, cache)
	if err != nil {
		return err
	}

	// Cluster mode: wrap the local resolver in a ring-routing node. This
	// instance's cluster ID is its own Do53 endpoint as peers dial it, so
	// every member derives the same ring from the same peer endpoints.
	var node *cluster.Node
	var peerPool *transport.Pool
	if *peers != "" {
		if *do53Addr == "" {
			return fmt.Errorf("cluster mode needs -do53 (peers forward over Do53)")
		}
		selfID, err := cluster.PeerID(*do53Addr)
		if err != nil {
			return fmt.Errorf("-do53: %w", err)
		}
		remotes, err := cluster.PeerIDs(*peers)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		// A hop is one attempt: a lost datagram has already spent the
		// node's forward timeout, and a failed hop falls back to Local.
		noRetry := transport.NoRetry()
		peerPool = transport.NewPool(transport.Options{Retry: &noRetry})
		node = &cluster.Node{
			Self:      selfID,
			Peers:     remotes,
			Local:     handler,
			Forward:   peerPool,
			ClusterID: *clusterID,
		}
		handler = node
		logger.Info("cluster mode", "self", selfID, "peers", len(remotes),
			"cluster-id", *clusterID)
	}

	inner := &dns53.Server{
		Handler:     handler,
		Logger:      logger,
		ReadTimeout: *idleTO, // doubles as the per-read stream idle timeout
	}

	ca, err := certs.NewCA(0)
	if err != nil {
		return err
	}
	if *caOut != "" {
		pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Cert.Raw})
		if err := os.WriteFile(*caOut, pemBytes, 0o644); err != nil {
			return fmt.Errorf("writing CA: %w", err)
		}
		logger.Info("wrote CA certificate", "path", *caOut)
	}
	tlsCfg, err := ca.ServerConfig([]string{"localhost"}, []net.IP{net.ParseIP("127.0.0.1"), net.ParseIP("::1")})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 4)

	if node != nil {
		// Active probing is what re-admits a Down peer: no forwards are
		// routed to it, so only probes can observe it healthy again.
		go node.ProbeLoop(ctx)
	}

	if *do53Addr != "" {
		pc, err := net.ListenPacket("udp", *do53Addr)
		if err != nil {
			return fmt.Errorf("do53 udp: %w", err)
		}
		ln, err := net.Listen("tcp", *do53Addr)
		if err != nil {
			return fmt.Errorf("do53 tcp: %w", err)
		}
		go func() { errCh <- inner.ServeUDP(pc) }()
		go func() { errCh <- inner.ServeTCP(transport.LimitListener(ln, *maxConns, "do53-tcp")) }()
		logger.Info("do53 listening", "addr", *do53Addr)
	}
	if *dotAddr != "" {
		ln, err := net.Listen("tcp", *dotAddr)
		if err != nil {
			return fmt.Errorf("dot: %w", err)
		}
		defer ln.Close()
		srv := &dot.Server{DNS: inner, TLS: tlsCfg}
		// The conn cap rejects fast at the TCP layer; idle disconnects come
		// from the dns53 read deadline.
		go func() { errCh <- srv.Serve(transport.LimitListener(ln, *maxConns, "dot")) }()
		logger.Info("dot listening", "addr", *dotAddr)
	}
	var httpSrv *http.Server
	if *dohAddr != "" {
		mux := http.NewServeMux()
		dohHandler := &doh.Handler{DNS: handler}
		mux.Handle(doh.DefaultPath, dohHandler)
		// Introspection rides the same mux: /metrics (Prometheus text),
		// /debug/obs (JSON snapshot), and /debug/pprof (profiles).
		obs.RegisterRuntimeMetrics(obs.Default())
		introspection := obs.NewHTTPHandler(obs.Default(), nil)
		mux.Handle("/metrics", introspection)
		mux.Handle("/debug/", introspection)
		httpSrv = &http.Server{
			Handler:     mux,
			TLSConfig:   tlsCfg.Clone(),
			IdleTimeout: *idleTO,
			// HTTP/2 connections go to the DoH burst loop, which answers
			// cache hits itself and hands everything else to the mux;
			// HTTP/1.1 and all connection management stay net/http's.
			TLSNextProto: map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": dohHandler.ServeH2},
		}
		ln, err := net.Listen("tcp", *dohAddr)
		if err != nil {
			return fmt.Errorf("doh: %w", err)
		}
		go func() { errCh <- httpSrv.ServeTLS(transport.LimitListener(ln, *maxConns, "doh"), "", "") }()
		logger.Info("doh listening", "addr", *dohAddr, "path", doh.DefaultPath)
	}

	select {
	case <-ctx.Done():
		// Ordered drain, extending the dns53 shutdown sequence across the
		// cluster layer: stop accepting (front ends), finish what is in
		// flight (UDP misses and stream connections, which includes queries
		// blocked on peer forwards), drain the node's own work (forwards,
		// probes), and only then tear down the peer transport so nothing in
		// flight loses its dependencies.
		logger.Info("shutting down")
		if httpSrv != nil {
			_ = httpSrv.Close()
		}
		inner.Shutdown()
		if node != nil {
			node.Close()
		}
		if peerPool != nil {
			_ = peerPool.Close()
		}
		return nil
	case err := <-errCh:
		if err != nil {
			return err
		}
		return nil
	}
}

// buildHandler assembles the resolver over cache: an authoritative zone
// when -zone is given (a zone caches nothing, so cache goes unused), a
// forwarder when -forward is given, otherwise a recursive resolver over
// the built-in hierarchy.
func buildHandler(upstream, zoneFile, zoneOrigin string, cache *resolver.Cache) (dns53.Handler, error) {
	if zoneFile != "" {
		f, err := os.Open(zoneFile)
		if err != nil {
			return nil, fmt.Errorf("opening zone: %w", err)
		}
		defer f.Close()
		return authdns.ParseZone(zoneOrigin, f)
	}
	if upstream != "" {
		return &resolver.Forwarder{
			Exchange:  transport.NewPool(transport.Options{}),
			Upstreams: []string{upstream},
			Cache:     cache,
		}, nil
	}
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	return &resolver.Recursive{
		Exchange: h.Registry,
		Roots:    h.RootServers,
		Cache:    cache,
	}, nil
}
