package live

import (
	"context"
	"fmt"
	"io"
	"time"

	"encdns/internal/dialer"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/netsim"
	"encdns/internal/report"
	"encdns/internal/transport"
)

// The middlebox-vantage reachability scenario: the paper measures "does
// this encrypted resolver answer from here", and on interfered networks
// the answer depends on how the connection is dialed. This scenario
// probes every endpoint from every simulated vantage — plain first, then
// each evasion chain — and classifies the pair:
//
//	reachable-plain    an ordinary dial works; chains are unnecessary
//	reachable-evasion  only a dialer chain gets through (censored path)
//	unreachable        nothing works (blackholed or hard-filtered)
//
// Probes run over dialer's byte-level VirtualNet, so a vantage's verdict
// is a property of the actual TLS bytes the client stack emits —
// deterministic, not sampled.

// ReachClass classifies one (vantage, endpoint) pair.
type ReachClass int

// Reachability classes, ordered from healthy to dead.
const (
	ReachPlain ReachClass = iota
	ReachEvasion
	Unreachable
)

// String names the class the way the report table prints it.
func (c ReachClass) String() string {
	switch c {
	case ReachPlain:
		return "reachable-plain"
	case ReachEvasion:
		return "reachable-evasion"
	default:
		return "unreachable"
	}
}

// VantagePolicy is one simulated vantage: a name and the middleboxes on
// its path to every endpoint. An empty Middleboxes slice is an
// uninterfered network.
type VantagePolicy struct {
	Name        string
	Middleboxes []dialer.Middlebox
}

// ReachabilityResult is the classification of one endpoint from one
// vantage.
type ReachabilityResult struct {
	Vantage  string
	Endpoint string
	Class    ReachClass
	// Chain is the evasion chain that succeeded (empty for
	// reachable-plain and unreachable).
	Chain string
	// PlainErr is the plain dial's error class when it failed.
	PlainErr netsim.ErrClass
}

// DefaultEvasionChains is the chain ladder the scenario climbs when the
// plain dial fails, cheapest evasion first.
func DefaultEvasionChains() []string {
	return []string{"tlsfrag:sni", "split:3"}
}

// ReachabilityConfig configures RunReachability.
type ReachabilityConfig struct {
	// Net is the VirtualNet hosting the endpoints.
	Net *dialer.VirtualNet
	// Vantages are the simulated vantage policies to probe from.
	Vantages []VantagePolicy
	// Endpoints are chainless endpoint specs ("tls://host:853").
	Endpoints []string
	// Options is the base transport configuration (TLS roots for the
	// in-process CAs, etc.). Dialer and Retry are overwritten per probe.
	Options transport.Options
	// Timeout bounds each probe; zero means 500ms — far beyond any
	// in-process handshake, short enough that stranded dials (the drop
	// and blackhole middleboxes) settle quickly.
	Timeout time.Duration
}

// reachDomain is the name every reachability probe asks for.
const reachDomain = "example.com"

// RunReachability probes every endpoint from every vantage, climbing the
// DefaultEvasionChains ladder where the plain dial fails, and returns the
// classification grid, vantage-major in input order.
func RunReachability(ctx context.Context, cfg ReachabilityConfig) ([]ReachabilityResult, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("live: reachability needs a VirtualNet")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	var out []ReachabilityResult
	for _, vp := range cfg.Vantages {
		opts := cfg.Options
		opts.Dialer = cfg.Net.Path(vp.Middleboxes...)
		noRetry := transport.NoRetry()
		opts.Retry = &noRetry
		opts.Timeout = timeout
		for _, ep := range cfg.Endpoints {
			r := ReachabilityResult{Vantage: vp.Name, Endpoint: ep, Class: Unreachable}
			err := probe(ctx, ep, timeout, opts)
			if err == nil {
				r.Class = ReachPlain
				out = append(out, r)
				continue
			}
			r.PlainErr = transport.Classify(err)
			for _, chain := range DefaultEvasionChains() {
				if probe(ctx, chain+"|"+ep, timeout, opts) == nil {
					r.Class = ReachEvasion
					r.Chain = chain
					break
				}
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// probe performs one exchange against a (possibly chained) endpoint.
func probe(ctx context.Context, endpoint string, timeout time.Duration, opts transport.Options) error {
	ex, err := transport.Dial(endpoint, opts)
	if err != nil {
		return err
	}
	defer ex.Close()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	_, err = ex.Exchange(ctx, dnswire.NewQuery(dns53.NewID(), reachDomain, dnswire.TypeA))
	return err
}

// RenderReachability writes the per-vantage classification table the
// campaign report embeds.
func RenderReachability(w io.Writer, results []ReachabilityResult) error {
	t := &report.Table{
		Title:   "Reachability by vantage (plain dial vs. evasion chains)",
		Headers: []string{"vantage", "endpoint", "class", "chain", "plain error"},
	}
	for _, r := range results {
		plainErr := ""
		if r.Class != ReachPlain {
			plainErr = r.PlainErr.String()
		}
		t.AddRow(r.Vantage, r.Endpoint, r.Class.String(), r.Chain, plainErr)
	}
	return t.Render(w)
}
