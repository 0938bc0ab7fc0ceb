// Command dohserver runs a complete encrypted-DNS resolver: one caching
// recursive resolver (iterating over a built-in authoritative hierarchy
// for the measurement domains, or forwarding to an upstream) exposed over
// three frontends at once — Do53 (UDP+TCP), DoT, and DoH. It is the
// server-side substrate of the reproduction and a live target for
// dnsmeasure -mode live. The stack itself is internal/serve's.
//
// On startup it writes its self-signed CA certificate to -ca-out so
// clients can trust the TLS endpoints:
//
//	dohserver -do53 127.0.0.1:5353 -dot 127.0.0.1:8853 -doh 127.0.0.1:8443
//	curl --cacert /tmp/dohserver-ca.pem "https://127.0.0.1:8443/dns-query?name=google.com&type=A"
package main

import (
	"context"
	"encoding/pem"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"encdns/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dohserver:", err)
		os.Exit(1)
	}
}

// run serves the stack args describe until ctx ends or a frontend fails.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dohserver", flag.ContinueOnError)
	var cfg serve.Config
	fs.StringVar(&cfg.Do53, "do53", "127.0.0.1:5353", "Do53 listen address (UDP+TCP); empty disables")
	fs.StringVar(&cfg.DoT, "dot", "127.0.0.1:8853", "DoT listen address; empty disables")
	fs.StringVar(&cfg.DoH, "doh", "127.0.0.1:8443", "DoH listen address; empty disables")
	caOut := fs.String("ca-out", "/tmp/dohserver-ca.pem", "write the CA certificate here")
	fs.StringVar(&cfg.Forward, "forward", "", "forward to this upstream Do53 server instead of recursing locally")
	fs.IntVar(&cfg.Cache, "cache", 65536, "cache entries")
	prefetch := fs.Float64("prefetch", 0, "accepted for old command lines: refresh-ahead was removed, and 0 is the only value")
	verbose := fs.Bool("v", false, "debug-level logging")
	fs.IntVar(&cfg.MaxConns, "max-conns", 4096, "max concurrent connections per stream listener (Do53/TCP, DoT, DoH); 0 unlimited")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 60*time.Second, "disconnect stream clients idle this long")
	fs.StringVar(&cfg.Peers, "peers", "", "comma-separated remote peer endpoints (e.g. udp://127.0.0.1:5302,udp://127.0.0.1:5303); enables cluster mode")
	fs.StringVar(&cfg.ClusterID, "cluster-id", "encdns", "cluster identity carried on forwarded queries; must match on every peer")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *prefetch != 0 {
		return fmt.Errorf("refresh-ahead was removed; -prefetch accepts only 0")
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	st, err := serve.Start(ctx, cfg)
	if err != nil {
		return err
	}
	defer func() {
		cfg.Logger.Info("shutting down")
		st.Shutdown()
	}()
	if *caOut != "" {
		pemBytes := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: st.CA.Cert.Raw})
		if err := os.WriteFile(*caOut, pemBytes, 0o644); err != nil {
			return fmt.Errorf("writing CA: %w", err)
		}
		cfg.Logger.Info("wrote CA certificate", "path", *caOut)
	}
	return st.Wait(ctx)
}
