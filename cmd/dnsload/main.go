// Command dnsload generates DNS load against scheme-addressed resolver
// endpoints and reports coordinated-omission-safe latency: dnsmeasure
// asks "how fast does a resolver answer one probe", dnsload "what
// latency and error rate does a resolver show under this offered load".
//
// Open loop (default) paces arrivals on a constant or Poisson schedule
// and measures every query from its *intended* start, so a stalling
// server shows up as tail latency instead of quietly slowing the
// client down. Closed loop runs N request→response→think workers.
//
//	dnsload -targets udp://127.0.0.1:53 -rate 500 -duration 10s
//	dnsload -targets 'udp://10.0.0.1=3,https://10.0.0.1/dns-query=1' -rate 1000 -json
//	dnsload -mode closed -workers 32 -targets tls://127.0.0.1:853 -insecure
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"encdns/internal/loadgen"
	"encdns/internal/monitor"
	"encdns/internal/obs"
	"encdns/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsload:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dnsload", flag.ContinueOnError)
	var (
		targets = fs.String("targets", "", "weighted endpoint mix: target[=weight],... (udp://, tcp://, tls://, https://; bare hosts follow -proto)")
		proto   = fs.String("proto", "", "scheme for bare -targets entries: do53/udp (default), tcp, dot/tls, doh/https")
		mode    = fs.String("mode", "open", "generation discipline: open (scheduled arrivals) or closed (workers)")
		rate    = fs.Float64("rate", 100, "open-loop offered load, queries/second")
		arrive  = fs.String("arrivals", "poisson", "open-loop arrival process: constant or poisson")
		workers = fs.Int("workers", 8, "closed-loop worker count")
		think   = fs.Duration("think", 0, "closed-loop pause between a response and the worker's next query")
		dur     = fs.Duration("duration", 10*time.Second, "run length")
		timeout = fs.Duration("timeout", 2*time.Second, "per-query timeout")
		inFlt   = fs.Int("max-inflight", 4096, "open-loop in-flight bound; arrivals beyond it are dropped, not queued")
		seed    = fs.Uint64("seed", 1, "RNG seed for arrivals and the query mix (same seed, same workload)")
		qtypes  = fs.String("qtypes", "A", "weighted QTYPE mix: TYPE[=weight],... e.g. A=10,AAAA=3,HTTPS=1")
		zipfS   = fs.Float64("zipf", loadgen.DefaultZipfS, "Zipf popularity exponent over the domain list; <=1 draws uniformly")
		domains = fs.String("domains", "", "comma-separated query names (default: the paper's measurement domains)")

		metrics  = fs.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/obs, /debug/watch, and /debug/pprof on this address during the run")
		jsonOut  = fs.Bool("json", false, "write the result as JSON")
		csvOut   = fs.Bool("csv", false, "write the per-second timeline as CSV")
		caCert   = fs.String("cacert", "", "PEM file with a CA to trust for TLS transports")
		insecure = fs.Bool("insecure", false, "skip TLS certificate verification")
		reuse    = fs.Bool("reuse", true, "keep connections between exchanges (load tests measure steady state, not handshakes)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tlsCfg, err := tlsConfig(*caCert, *insecure)
	if err != nil {
		return err
	}

	mix := &loadgen.Mix{ZipfS: *zipfS}
	if *domains != "" {
		for _, d := range strings.Split(*domains, ",") {
			if d = strings.TrimSpace(d); d != "" {
				mix.Domains = append(mix.Domains, d)
			}
		}
	}
	if mix.QTypes, err = loadgen.ParseQTypeMix(*qtypes); err != nil {
		return err
	}

	if *targets == "" {
		return fmt.Errorf("need -targets")
	}
	if mix.Endpoints, err = loadgen.ParseTargetMix(*targets, *proto); err != nil {
		return err
	}

	topts := transport.Options{
		Timeout: *timeout,
		TLS:     tlsCfg,
		Reuse:   *reuse,
	}
	if *metrics != "" {
		// Per-endpoint health and windowed latency during the load run:
		// the transport outcome hook feeds a watchtower tracker served
		// next to the scrape endpoint. One-second buckets match load-test
		// cadence (dnsmeasure's default 10s suits probing cadence).
		obs.RegisterRuntimeMetrics(obs.Default())
		tracker := monitor.New(monitor.Config{Interval: time.Second})
		topts.OnOutcome = func(endpoint string, rtt time.Duration, err error) {
			class := ""
			if err != nil {
				class = transport.Classify(err).String()
			}
			tracker.ObserveProbe(endpoint, err == nil, rtt, class)
		}
		bound, shutdown, err := obs.ServeHandler(*metrics,
			obs.NewHTTPHandler(obs.Default(), obs.WithWatch(tracker)))
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "introspection: http://%s (/metrics /debug/obs /debug/watch /debug/pprof)\n", bound)
	}
	sender := loadgen.NewSender(topts)
	defer sender.Close()

	cfg := loadgen.Config{
		Rate:        *rate,
		Workers:     *workers,
		Think:       *think,
		Duration:    *dur,
		Timeout:     *timeout,
		MaxInFlight: *inFlt,
		Seed:        *seed,
		Mix:         mix,
	}
	switch *mode {
	case "open":
		cfg.Mode = loadgen.OpenLoop
	case "closed":
		cfg.Mode = loadgen.ClosedLoop
	default:
		return fmt.Errorf("unknown -mode %q (want open or closed)", *mode)
	}
	switch *arrive {
	case "constant":
		cfg.Arrivals = loadgen.ArrivalConstant
	case "poisson":
		cfg.Arrivals = loadgen.ArrivalPoisson
	default:
		return fmt.Errorf("unknown -arrivals %q (want constant or poisson)", *arrive)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	res, err := loadgen.Run(ctx, sender.Send, cfg)
	if err != nil && res == nil {
		return err
	}
	switch {
	case *jsonOut:
		return loadgen.WriteJSON(w, res)
	case *csvOut:
		return loadgen.TimelineTable(res).WriteCSV(w)
	default:
		s := loadgen.Summarize(res)
		fmt.Fprintf(w, "%s loop, %.1fs: offered %d, sent %d, received %d, errors %d, dropped %d\n",
			s.Mode, s.Duration, s.Offered, s.Sent, s.Received, s.Errors, s.Dropped)
		fmt.Fprintf(w, "throughput %.0f qps, error rate %.2f%%\n", s.ActualQPS, s.ErrorRate*100)
		fmt.Fprintf(w, "latency p50 %.2fms p90 %.2fms p99 %.2fms p999 %.2fms mean %.2fms max %.2fms\n",
			s.P50Ms, s.P90Ms, s.P99Ms, s.P999Ms, s.MeanMs, s.MaxMs)
		return loadgen.TimelineTable(res).Render(w)
	}
}

func tlsConfig(caCert string, insecure bool) (*tls.Config, error) {
	if caCert == "" && !insecure {
		return nil, nil
	}
	cfg := &tls.Config{InsecureSkipVerify: insecure}
	if caCert != "" {
		pemBytes, err := os.ReadFile(caCert)
		if err != nil {
			return nil, fmt.Errorf("reading CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemBytes) {
			return nil, fmt.Errorf("no certificates in %s", caCert)
		}
		cfg.RootCAs = pool
	}
	return cfg, nil
}
