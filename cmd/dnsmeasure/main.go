// Command dnsmeasure is the encrypted-DNS measurement tool: it issues
// DoH/DoT/Do53 queries (and ICMP pings, when available) to a list of
// resolvers, continuously, and writes per-query JSON records — the
// open-source tool the paper describes in §3.1.
//
// Two transports are available:
//
//   - -mode sim (default): measurements run against the calibrated model
//     of the global internet, from any of the paper's vantage points.
//     Deterministic under -seed; completes instantly.
//   - -mode live: measurements are real — the tool dials the resolver
//     endpoints with fresh connections per query and wall-clock timing.
//     (Requires network reachability to the targets.)
//
// Examples:
//
// Live targets are scheme-addressed transport endpoints (udp://, tcp://,
// tls://, https://); bare dataset hostnames pick their endpoint from the
// -proto flag.
//
//	dnsmeasure -resolvers mainstream -vantage ec2-seoul -rounds 50
//	dnsmeasure -resolvers dns.google,ordns.he.net -domains google.com -o out.jsonl
//	dnsmeasure -mode live -resolvers https://127.0.0.1:8443/dns-query -rounds 3
//	dnsmeasure -mode live -resolvers tls://127.0.0.1:8853,udp://127.0.0.1:5353 -rounds 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"encdns/internal/core"
	"encdns/internal/dataset"
	"encdns/internal/live"
	"encdns/internal/monitor"
	"encdns/internal/netsim"
	"encdns/internal/obs"
	"encdns/internal/obshttp"
	"encdns/internal/report"
	"encdns/internal/stats"
	"encdns/internal/transport"

	// Registered for the -metrics-addr series set: the resolver cache
	// gauges show up on every scrape, zeroed until a resolver runs in
	// this process.
	_ "encdns/internal/resolver"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsmeasure:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("dnsmeasure", flag.ContinueOnError)
	var (
		resolvers = fs.String("resolvers", "all", "comma-separated resolver hosts/URLs, or 'all'/'mainstream'")
		domains   = fs.String("domains", strings.Join(dataset.Domains, ","), "comma-separated query names")
		mode      = fs.String("mode", "sim", "'sim' (network model) or 'live' (real network)")
		proto     = fs.String("proto", "doh", "query transport: doh, dot, or do53")
		vantage   = fs.String("vantage", dataset.VantageOhio, "vantage point name (sim mode); see -list-vantages")
		rounds    = fs.Int("rounds", 20, "measurement rounds")
		interval  = fs.Duration("interval", 8*time.Hour, "time between rounds (virtual in sim mode)")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		output    = fs.String("o", "", "write JSON Lines records to this file")
		summarize = fs.Bool("summary", true, "print per-resolver summary table")
		listV     = fs.Bool("list-vantages", false, "list vantage point names and exit")
		listR     = fs.Bool("list-resolvers", false, "list known resolver hosts and exit")
		reach     = fs.Bool("reachability", false, "run the middlebox-vantage reachability scenario (deterministic, in-process) and print the per-vantage classification")
		confPath  = fs.String("config", "", "JSON config file (flags override its values)")
		metrics   = fs.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/obs, /debug/watch, and /debug/pprof on this address during the run")
		watch     = fs.Bool("watch", false, "continuous watchtower mode: probe forever, tracking per-target health, SLO burn alerts, and a live dashboard at /debug/watch/ui (interval defaults to 10s and must be at least 1s; stop with ^C)")
		watchPace = fs.Duration("watch-pace", 0, "real-time floor between watch rounds (sim mode: virtual time still advances one -interval per round)")
		verbose   = fs.Bool("v", false, "debug-level logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if *confPath != "" {
		conf, err := LoadConfig(*confPath)
		if err != nil {
			return err
		}
		conf.apply(set, resolvers, domains, vantage, mode, output, rounds, interval, seed)
	}

	if *listV {
		for _, v := range dataset.Vantages() {
			fmt.Fprintf(stdout, "%-18s %-11s (%.2f, %.2f)\n", v.Name, v.Access, v.Coord.Lat, v.Coord.Lon)
		}
		return nil
	}
	if *listR {
		for _, r := range dataset.Resolvers() {
			tag := ""
			if r.Mainstream {
				tag = " [mainstream]"
			}
			fmt.Fprintf(stdout, "%-42s %s%s\n", r.Host, r.Region, tag)
		}
		return nil
	}

	if *reach {
		return runReachability(stdout)
	}

	targets, err := parseTargets(*resolvers)
	if err != nil {
		return err
	}
	domainList := splitNonEmpty(*domains)
	if len(domainList) == 0 {
		return fmt.Errorf("no domains given")
	}

	protocol, err := parseProto(*proto)
	if err != nil {
		return err
	}
	var prober core.Prober
	var vantages []netsim.Vantage
	var clock netsim.Clock
	switch *mode {
	case "sim":
		v, ok := dataset.VantageByName(*vantage)
		if !ok {
			return fmt.Errorf("unknown vantage %q (try -list-vantages)", *vantage)
		}
		vantages = []netsim.Vantage{v}
		prober = &core.SimProber{
			Net:      netsim.New(netsim.Config{Seed: *seed}),
			Protocol: protocol,
		}
		clock = netsim.NewVirtualClock(netsim.CampaignEpoch)
	case "live":
		vantages = []netsim.Vantage{{Name: "local"}}
		// One scheme-addressed transport pool serves every protocol;
		// fresh connections per query, like the paper's dig runs. The
		// -proto flag picks each dataset target's endpoint scheme.
		targets = liveEndpoints(targets, *proto)
		prober = &live.Prober{
			Proto:     protocol,
			Transport: transport.NewPool(transport.Options{}),
		}
		clock = netsim.WallClock{}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	// Watch mode: probe continuously at a monitoring cadence (10s unless
	// -interval is explicit), feed a monitor.Tracker, and always serve
	// the introspection endpoints — that surface IS the output.
	var tracker *monitor.Tracker
	if *watch {
		if !set["interval"] {
			*interval = 10 * time.Second
		}
		// Every probe scans windows up to 6h long, so its cost grows as
		// 6h over the interval.
		if *interval < time.Second {
			return fmt.Errorf("-watch needs an -interval of at least 1s, not %s", *interval)
		}
		if *metrics == "" {
			*metrics = "127.0.0.1:0"
		}
		tracker = monitor.New(monitor.Config{
			Now:      netsim.NowFunc(clock),
			Interval: *interval,
		})
	}

	if *metrics != "" {
		obs.RegisterRuntimeMetrics(obs.Default())
		var watch obs.WatchSource // a nil *Tracker would not compare nil
		if tracker != nil {
			watch = tracker
		}
		bound, shutdown, err := obshttp.Serve(*metrics, obshttp.NewHandler(obs.Default(), watch))
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer shutdown()
		logger.Info("serving introspection endpoints", "addr", bound,
			"paths", "/metrics,/debug/obs,/debug/watch,/debug/pprof")
		if tracker != nil {
			fmt.Fprintf(os.Stderr, "watchtower dashboard: http://%s/debug/watch/ui\n", bound)
		}
	}
	logger.Debug("campaign configured", "mode", *mode, "targets", len(targets),
		"domains", len(domainList), "rounds", *rounds, "watch", *watch)

	cfg := core.CampaignConfig{
		Vantages: vantages,
		Targets:  targets,
		Domains:  domainList,
		Rounds:   *rounds,
		// -watch runs forever unless -rounds was given explicitly (a
		// bounded watch, useful for smoke tests).
		Continuous: *watch && !set["rounds"],
		Pace:       *watchPace,
		Interval:   *interval,
		Clock:      clock,
		Progress: func(round, total int) {
			logger.Debug("round complete", "round", round, "total", total)
			if total >= 10 && round%(total/10) == 0 {
				fmt.Fprintf(os.Stderr, "round %d/%d\n", round, total)
			}
		},
	}
	if tracker != nil {
		cfg.Observer = tracker
	}
	var stream *os.File
	if *watch && *output != "" {
		// An unbounded run cannot buffer records: stream them as JSON
		// Lines instead.
		if stream, err = os.Create(*output); err != nil {
			return err
		}
		defer stream.Close() // the early returns; the run's end checks Close
		cfg.Sink = core.JSONLSink(stream)
		cfg.DiscardResults = true
	}
	campaign, err := core.NewCampaign(cfg, prober)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, runErr := campaign.Run(ctx)
	if runErr != nil && !(*watch && errors.Is(runErr, context.Canceled)) {
		fmt.Fprintf(os.Stderr, "campaign interrupted: %v (reporting partial results)\n", runErr)
	}

	if *watch {
		rep := tracker.WatchReport()
		fmt.Fprintf(stdout, "watch stopped: %d targets tracked, %d journal events\n",
			len(rep.Targets), tracker.Journal().Len())
		if stream != nil {
			if err := stream.Close(); err != nil {
				return fmt.Errorf("closing %s: %w", *output, err)
			}
			fmt.Fprintf(stdout, "streamed records to %s\n", *output)
		}
		return nil
	}

	if *output != "" {
		if err := results.WriteJSONFile(*output); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d records to %s\n", results.Len(), *output)
	}
	if *summarize {
		if err := printSummary(stdout, results, vantages[0].Name, targets); err != nil {
			return err
		}
	}
	return nil
}

// parseTargets resolves the -resolvers flag: known hostnames come from the
// dataset (with their model parameters); scheme-prefixed endpoints
// (udp://, tcp://, tls://, https://) become ad-hoc live targets, each
// named by its canonical endpoint string so two endpoints on one host
// stay two resolvers in the records, counters and summary.
func parseTargets(spec string) ([]core.Target, error) {
	switch spec {
	case "all":
		return targetsOf(dataset.Resolvers()), nil
	case "mainstream":
		return targetsOf(dataset.Mainstream()), nil
	}
	var out []core.Target
	for _, item := range splitNonEmpty(spec) {
		if strings.Contains(item, "://") {
			// Shared target grammar (transport.ParseTarget): the same
			// endpoint spelling works in dnsdig -server and here.
			ep, err := transport.ParseTarget(item, "")
			if err != nil {
				return nil, err
			}
			name := ep.String()
			out = append(out, core.Target{Host: name, Endpoint: name})
			continue
		}
		r, ok := dataset.ResolverByHost(item)
		if !ok {
			return nil, fmt.Errorf("unknown resolver %q (try -list-resolvers, or pass a scheme-prefixed endpoint like udp://, tls://, or https://)", item)
		}
		out = append(out, core.Target{Host: r.Host, Endpoint: r.Endpoint, Net: r.Net})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no resolvers given")
	}
	return out, nil
}

// liveEndpoints rewrites dataset targets' endpoints for the selected
// protocol: dataset entries carry the RFC 8484 URL, so DoT and Do53 runs
// derive tls:// and udp:// endpoints for the URL's host (IANA ports via
// the shared transport.ParseTarget grammar). Endpoints that already carry
// a non-https scheme (ad-hoc targets) pass through.
func liveEndpoints(targets []core.Target, proto string) []core.Target {
	out := make([]core.Target, len(targets))
	for i, t := range targets {
		if strings.Contains(t.Endpoint, "://") && !strings.HasPrefix(t.Endpoint, "https://") {
			out[i] = t
			continue
		}
		if proto != "doh" {
			if u, err := transport.ParseEndpoint(t.Endpoint); err == nil {
				if ep, err := transport.ParseTarget(u.Host, proto); err == nil {
					t.Endpoint = ep.String()
				}
			}
		}
		out[i] = t
	}
	return out
}

// parseProto maps the -proto flag to a transport.
func parseProto(s string) (netsim.Protocol, error) {
	switch s {
	case "doh":
		return netsim.ProtoDoH, nil
	case "dot":
		return netsim.ProtoDoT, nil
	case "do53":
		return netsim.ProtoDo53, nil
	}
	return 0, fmt.Errorf("unknown proto %q (want doh, dot, or do53)", s)
}

func targetsOf(rs []dataset.Resolver) []core.Target {
	out := make([]core.Target, 0, len(rs))
	for _, r := range rs {
		out = append(out, core.Target{Host: r.Host, Endpoint: r.Endpoint, Net: r.Net})
	}
	return out
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func printSummary(w *os.File, rs *core.ResultSet, vantage string, targets []core.Target) error {
	t := &report.Table{
		Title:   fmt.Sprintf("Response times from %s", vantage),
		Headers: []string{"Resolver", "N", "Median (ms)", "P90 (ms)", "Ping (ms)", "Errors"},
	}
	av := rs.Availability()
	for _, target := range targets {
		samples := rs.QuerySamples(vantage, target.Host)
		pings := rs.PingSamples(vantage, target.Host)
		med, p90, ping := "-", "-", "-"
		if len(samples) > 0 {
			med = fmt.Sprintf("%.1f", stats.Median(samples))
			p90 = fmt.Sprintf("%.1f", stats.Quantile(samples, 0.9))
		}
		if len(pings) > 0 {
			ping = fmt.Sprintf("%.1f", stats.Median(pings))
		}
		t.AddRow(target.Host, fmt.Sprintf("%d", len(samples)), med, p90, ping,
			fmt.Sprintf("%d", av.ByResolver[target.Host]))
	}
	return t.Render(w)
}
