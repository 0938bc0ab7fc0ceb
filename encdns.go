// Package encdns is the public facade of the encrypted-DNS measurement
// library — the open-source tool released with "Global Measurements of the
// Availability and Response Times of Public Encrypted DNS Resolvers"
// (Sharma & Feamster). It measures DNS query response times and ICMP
// latency for DoH, DoT, and Do53 resolvers from one or many vantage
// points, continuously, and writes per-query JSON records.
//
// The facade re-exports the library's stable surface:
//
//   - Measuring: Campaign, CampaignConfig, Prober, SimProber, LiveProber,
//     Target, Record, ResultSet.
//   - The transport substrate: DialEndpoint and NewTransportPool, the one
//     way to the DoH/DoT/Do53 clients, addressed by endpoint scheme.
//   - The measurement population and vantage points of the paper under
//     Resolvers/Vantages.
//   - Reporting: BuildChart plus the report.BoxChart/Table renderers.
//
// Quickstart (simulated campaign over the paper's population):
//
//	runner := encdns.NewRunner(1, 0)
//	chart, _ := runner.Figure(encdns.Fig1)
//	chart.Render(os.Stdout)
//
// Live measurement of one real resolver (endpoints are scheme-addressed:
// udp://, tcp://, tls://, https://):
//
//	pool := encdns.NewTransportPool(encdns.TransportOptions{})
//	prober := &encdns.LiveProber{Transport: pool}
//	cfg := encdns.CampaignConfig{
//	    Vantages: []encdns.Vantage{{Name: "here"}},
//	    Targets:  []encdns.Target{{Host: "dns.example", Endpoint: "https://dns.example/dns-query"}},
//	    Domains:  encdns.Domains,
//	    Rounds:   10,
//	    Clock:    encdns.WallClock{},
//	}
//	campaign, _ := encdns.NewCampaign(cfg, prober)
//	results, _ := campaign.Run(ctx)
//	results.WriteJSONFile("results.jsonl")
package encdns

import (
	"encdns/internal/core"
	"encdns/internal/dataset"
	"encdns/internal/experiment"
	"encdns/internal/live"
	"encdns/internal/netsim"
	"encdns/internal/report"
	"encdns/internal/transport"
)

// Transport-layer surface: the scheme-addressed exchanger substrate that
// every live consumer (prober, forwarder, CLIs) shares.
type (
	// Exchanger performs DNS exchanges with one dialled endpoint.
	Exchanger = transport.Exchanger
	// TransportOptions configures DialEndpoint/NewTransportPool.
	TransportOptions = transport.Options
	// TransportPool lazily dials one Exchanger per endpoint.
	TransportPool = transport.Pool
	// RetryPolicy is the shared retry/backoff policy.
	RetryPolicy = transport.RetryPolicy
)

// DialEndpoint binds an Exchanger to a scheme-addressed endpoint
// (udp://host:port, tcp://host:port, tls://host:853,
// https://host/dns-query) under the shared retry policy.
func DialEndpoint(endpoint string, opts TransportOptions) (Exchanger, error) {
	return transport.Dial(endpoint, opts)
}

// NewTransportPool builds the endpoint-addressed transport pool that
// LiveProber and the forwarder consume.
func NewTransportPool(opts TransportOptions) *TransportPool { return transport.NewPool(opts) }

// Measurement engine surface.
type (
	// Campaign executes measurement rounds; see NewCampaign.
	Campaign = core.Campaign
	// CampaignConfig configures a Campaign.
	CampaignConfig = core.CampaignConfig
	// Prober abstracts how queries and pings are issued.
	Prober = core.Prober
	// SimProber probes the simulated internet.
	SimProber = core.SimProber
	// LiveProber probes real resolvers with the real protocol clients.
	LiveProber = live.Prober
	// Target identifies one resolver to probe.
	Target = core.Target
	// Record is one measurement outcome.
	Record = core.Record
	// ResultSet accumulates records and answers analysis queries.
	ResultSet = core.ResultSet
	// Availability is the success/error tally of a result set.
	Availability = core.Availability
)

// Network-model surface.
type (
	// Vantage is a measurement client location.
	Vantage = netsim.Vantage
	// Endpoint parameterises a resolver in the network model.
	Endpoint = netsim.Endpoint
	// NetConfig configures the simulated internet.
	NetConfig = netsim.Config
	// Net is the simulated internet.
	Net = netsim.Net
	// Clock abstracts time for campaigns.
	Clock = netsim.Clock
	// VirtualClock is a manually advanced clock for simulations.
	VirtualClock = netsim.VirtualClock
	// WallClock is the real-time clock for live measurements.
	WallClock = netsim.WallClock
)

// Dataset surface.
type (
	// Resolver is one entry of the paper's measurement population.
	Resolver = dataset.Resolver
)

// Reporting and reproduction surface.
type (
	// Runner reproduces the paper's experiments.
	Runner = experiment.Runner
	// FigureID names one of the paper's figure panels.
	FigureID = experiment.FigureID
	// BoxChart is a renderable figure.
	BoxChart = report.BoxChart
	// Table is a renderable table.
	Table = report.Table
)

// Figure panels, re-exported from the experiment package.
const (
	Fig1  = experiment.Fig1
	Fig2a = experiment.Fig2a
	Fig2b = experiment.Fig2b
	Fig2c = experiment.Fig2c
	Fig2d = experiment.Fig2d
	Fig3a = experiment.Fig3a
	Fig3b = experiment.Fig3b
	Fig3c = experiment.Fig3c
	Fig3d = experiment.Fig3d
	Fig4a = experiment.Fig4a
	Fig4b = experiment.Fig4b
	Fig4c = experiment.Fig4c
	Fig4d = experiment.Fig4d
)

// Domains are the paper's three query names.
var Domains = dataset.Domains

// NewCampaign validates the configuration and builds a campaign.
func NewCampaign(cfg CampaignConfig, p Prober) (*Campaign, error) {
	return core.NewCampaign(cfg, p)
}

// NewRunner builds a reproduction runner; rounds <= 0 selects the default.
func NewRunner(seed uint64, rounds int) *Runner { return experiment.New(seed, rounds) }

// NewNet builds the simulated internet, filling defaults.
func NewNet(cfg NetConfig) *Net { return netsim.New(cfg) }

// Resolvers returns the paper's measurement population (Appendix A.2).
func Resolvers() []Resolver { return dataset.Resolvers() }

// Vantages returns the paper's seven measurement clients.
func Vantages() []Vantage { return dataset.Vantages() }

// Targets converts resolvers into campaign targets.
func Targets(rs []Resolver) []Target { return experiment.Targets(rs) }

// BuildChart assembles a figure-style chart from any result set.
func BuildChart(rs *ResultSet, title string, group []Resolver, vantage string) *BoxChart {
	return experiment.BuildChart(rs, title, group, vantage)
}
