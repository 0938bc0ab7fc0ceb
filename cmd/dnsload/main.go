// Command dnsload generates DNS load against scheme-addressed resolver
// endpoints and reports coordinated-omission-safe latency. It is the
// capacity half of the measurement story: dnsmeasure asks "how fast does
// a resolver answer one probe", dnsload asks "how much offered load can
// a resolver absorb before its tail latency or error rate breaks".
//
// Open loop (default) paces arrivals on a constant or Poisson schedule
// and measures every query from its *intended* start, so a stalling
// server shows up as tail latency instead of quietly slowing the
// client down. Closed loop runs N request→response→think workers.
//
//	dnsload -targets udp://127.0.0.1:53 -rate 500 -duration 10s
//	dnsload -targets 'udp://10.0.0.1=3,https://10.0.0.1/dns-query=1' -rate 1000 -json
//	dnsload -mode closed -workers 32 -targets tls://127.0.0.1:853 -insecure
//	dnsload -capacity -ramp-start 500 -ramp-max 20000 -ramp-step 500 -targets udp://127.0.0.1:53
//	dnsload -self do53 -capacity -json          # benchmark the in-process Do53 server
//	dnsload -self doh -duration 2s -rate 200    # smoke the in-process DoH stack
//	dnsload -self recursive -capacity -json     # capacity of the full recursive resolver
//
// -self spins up an in-process server (do53 over loopback UDP, doh over
// loopback TLS with an ephemeral CA, recursive = the caching recursive
// resolver with SRTT selection/hedging/prefetch over the in-memory
// authoritative hierarchy) and aims the generator at it: the repo
// measuring its own server stack end to end through real sockets.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/doh"
	"encdns/internal/loadgen"
	"encdns/internal/monitor"
	"encdns/internal/obs"
	"encdns/internal/resolver"
	"encdns/internal/transport"
	"encdns/internal/udpbatch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsload:", err)
		os.Exit(1)
	}
}

// selfDomain is the name the -self servers answer; the default mix asks
// it when -self is active so every query resolves.
const selfDomain = "bench.example."

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

		capacity = fs.Bool("capacity", false, "ramp offered load and report the max rate where the SLO holds")
		rStart   = fs.Float64("ramp-start", 500, "capacity ramp: first offered rate, qps")
		rMax     = fs.Float64("ramp-max", 20000, "capacity ramp: last offered rate, qps")
		rStep    = fs.Float64("ramp-step", 500, "capacity ramp: rate increment, qps")
		stepDur  = fs.Duration("step-duration", 2*time.Second, "capacity ramp: how long each rate is offered")
		cooldown = fs.Duration("cooldown", 200*time.Millisecond, "capacity ramp: pause between steps so backlogs drain")
		sloP99   = fs.Duration("slo-p99", 50*time.Millisecond, "SLO: p99 latency bound; 0 disables")
		sloErr   = fs.Float64("slo-errors", 0.01, "SLO: max (errors+drops)/offered")

		metrics  = fs.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/obs, /debug/watch, and /debug/pprof on this address during the run")
		jsonOut  = fs.Bool("json", false, "write the result as JSON")
		csvOut   = fs.Bool("csv", false, "write the per-second timeline (or ramp steps) as CSV")
		caCert   = fs.String("cacert", "", "PEM file with a CA to trust for TLS transports")
		insecure = fs.Bool("insecure", false, "skip TLS certificate verification")
		reuse    = fs.Bool("reuse", true, "keep connections between exchanges (load tests measure steady state, not handshakes)")
		self     = fs.String("self", "", "serve an in-process target and load it: do53, doh, or recursive (ignores -targets)")

		selfSockets = fs.Int("self-udp-sockets", 1, "-self do53/recursive: SO_REUSEPORT UDP sockets (Linux)")
		selfWorkers = fs.Int("self-udp-workers", 0, "-self do53/recursive: UDP worker-pool size; 0 means 32*GOMAXPROCS (min 64)")
		selfBatch   = fs.Int("self-udp-batch", 0, "-self do53/recursive: max datagrams per batched read/write; 0 means 32, 1 disables batching")
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

	switch *self {
	case "":
		if *targets == "" {
			return fmt.Errorf("need -targets (or -self do53|doh)")
		}
		if mix.Endpoints, err = loadgen.ParseTargetMix(*targets, *proto); err != nil {
			return err
		}
	case "do53", "doh", "recursive":
		endpoint, clientTLS, stop, err := startSelf(*self, selfOptions{
			sockets: *selfSockets, workers: *selfWorkers, batch: *selfBatch,
		})
		if err != nil {
			return err
		}
		defer stop()
		tlsCfg = clientTLS
		mix.Endpoints = []loadgen.WeightedEndpoint{{Endpoint: endpoint, Weight: 1}}
		if len(mix.Domains) == 0 && *self != "recursive" {
			// The static self servers only answer selfDomain; the recursive
			// target serves the full in-memory hierarchy, so the default
			// measurement-domain mix exercises real referral walks.
			mix.Domains = []string{selfDomain}
		}
		if !*jsonOut && !*csvOut {
			fmt.Fprintf(w, "# self target: %s\n", endpoint)
		}
	default:
		return fmt.Errorf("unknown -self %q (want do53, doh, or recursive)", *self)
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

	if *capacity {
		ramp := loadgen.Ramp{Start: *rStart, Max: *rMax, Step: *rStep, StepDuration: *stepDur, Cooldown: *cooldown}
		slo := loadgen.SLO{P99: *sloP99, MaxErrorRate: *sloErr}
		cr, err := loadgen.SearchCapacity(ctx, sender.Send, cfg, ramp, slo)
		if err != nil {
			return err
		}
		switch {
		case *jsonOut:
			return loadgen.WriteCapacityJSON(w, cr)
		case *csvOut:
			return loadgen.CapacityTable(cr).WriteCSV(w)
		default:
			if err := loadgen.CapacityTable(cr).Render(w); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "\nmax sustainable: %.0f qps (achieved %.0f qps) under p99<%s errors<%.1f%%\n",
				cr.MaxSustainableQPS, cr.Achieved, *sloP99, *sloErr*100)
			return err
		}
	}

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

// selfOptions tunes the -self UDP frontends: listener socket count
// (SO_REUSEPORT fan-out), worker-pool size and batch depth.
type selfOptions struct {
	sockets, workers, batch int
}

// serveSelfUDP binds the configured number of reuseport sockets on a
// fresh loopback port and serves each on srv, returning the shared
// endpoint address.
func serveSelfUDP(srv *dns53.Server, opts selfOptions) (string, error) {
	pcs, err := udpbatch.Listen("udp", "127.0.0.1:0", opts.sockets)
	if err != nil {
		return "", err
	}
	for _, pc := range pcs {
		go srv.ServeUDP(pc)
	}
	return pcs[0].LocalAddr().String(), nil
}

// startSelf boots an in-process server over real loopback sockets and
// returns the endpoint to load, the client TLS config that trusts it
// (doh only), and a stop function.
func startSelf(kind string, opts selfOptions) (endpoint string, clientTLS *tls.Config, stop func(), err error) {
	handler := dns53.Static(map[string][]net.IP{
		selfDomain: {net.ParseIP("192.0.2.1")},
	})
	switch kind {
	case "do53":
		srv := &dns53.Server{Handler: handler, UDPWorkers: opts.workers, UDPBatch: opts.batch}
		addr, err := serveSelfUDP(srv, opts)
		if err != nil {
			return "", nil, nil, err
		}
		return "udp://" + addr, nil, srv.Shutdown, nil
	case "recursive":
		// The full resolver stack: a caching recursive resolver with SRTT
		// selection, hedging, and refresh-ahead over the in-memory
		// authoritative hierarchy, fronted by a real loopback UDP server —
		// the capacity baseline recorded in BENCH_pr5.json.
		h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
		rec := &resolver.Recursive{
			Exchange:         h.Registry,
			Roots:            h.RootServers,
			Cache:            resolver.NewCache(65536, nil),
			Infra:            resolver.NewInfra(nil),
			Hedge:            true,
			PrefetchFraction: 0.1,
		}
		srv := &dns53.Server{Handler: rec, UDPWorkers: opts.workers, UDPBatch: opts.batch}
		addr, err := serveSelfUDP(srv, opts)
		if err != nil {
			return "", nil, nil, err
		}
		stop = func() {
			srv.Shutdown()
			rec.Close()
		}
		return "udp://" + addr, nil, stop, nil
	case "doh":
		ca, err := certs.NewCA(0)
		if err != nil {
			return "", nil, nil, err
		}
		serverTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
		if err != nil {
			return "", nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, nil, err
		}
		mux := http.NewServeMux()
		mux.Handle(doh.DefaultPath, &doh.Handler{DNS: handler})
		hs := &http.Server{Handler: mux, TLSConfig: serverTLS}
		go hs.ServeTLS(ln, "", "")
		endpoint := "https://" + ln.Addr().String() + doh.DefaultPath
		return endpoint, ca.ClientConfig("127.0.0.1"), func() { hs.Close() }, nil
	}
	return "", nil, nil, fmt.Errorf("unknown self target %q", kind)
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
