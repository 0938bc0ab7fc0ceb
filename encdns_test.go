package encdns_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"encdns"
	"encdns/internal/authdns"
	"encdns/internal/doh"
	"encdns/internal/resolver"
)

// TestFacadeSimCampaign drives the public API end to end in sim mode, the
// README quickstart path.
func TestFacadeSimCampaign(t *testing.T) {
	var targets []encdns.Target
	for _, r := range encdns.Resolvers() {
		if r.Host == "dns.google" || r.Host == "ordns.he.net" {
			targets = append(targets, encdns.Targets([]encdns.Resolver{r})...)
		}
	}
	if len(targets) != 2 {
		t.Fatalf("targets = %d", len(targets))
	}
	var seoul encdns.Vantage
	for _, v := range encdns.Vantages() {
		if v.Name == "ec2-seoul" {
			seoul = v
		}
	}
	cfg := encdns.CampaignConfig{
		Vantages: []encdns.Vantage{seoul},
		Targets:  targets,
		Domains:  encdns.Domains,
		Rounds:   10,
		Interval: time.Hour,
	}
	prober := &encdns.SimProber{Net: encdns.NewNet(encdns.NetConfig{Seed: 1})}
	campaign, err := encdns.NewCampaign(cfg, prober)
	if err != nil {
		t.Fatal(err)
	}
	results, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results.Len() != 10*2*4 {
		t.Errorf("records = %d", results.Len())
	}
	chart := encdns.BuildChart(results, "facade", encdns.Resolvers()[:0], seoul.Name)
	if chart == nil {
		t.Fatal("nil chart")
	}
}

// TestFacadeLiveClients runs a live campaign through the public transport
// pool against a real in-process DoH server, on the one-shot client.
func TestFacadeLiveClients(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	rec := &resolver.Recursive{
		Exchange: h.Registry, Roots: h.RootServers,
		Cache: resolver.NewCache(1024, nil), RNGSeed: 1,
	}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: rec})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()

	prober := &encdns.LiveProber{Transport: encdns.NewTransportPool(
		encdns.TransportOptions{TLS: ts.Client().Transport.(*http.Transport).TLSClientConfig})}
	cfg := encdns.CampaignConfig{
		Vantages: []encdns.Vantage{{Name: "local"}},
		Targets:  []encdns.Target{{Host: "t", Endpoint: ts.URL + doh.DefaultPath}},
		Domains:  []string{"google.com"},
		Rounds:   2,
		Interval: time.Nanosecond,
		Clock:    encdns.WallClock{},
		SkipPing: true,
	}
	campaign, err := encdns.NewCampaign(cfg, prober)
	if err != nil {
		t.Fatal(err)
	}
	results, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	av := results.Availability()
	if av.Errors != 0 || av.Successes != 2 {
		t.Errorf("availability = %+v", av)
	}
}

// TestFacadeRunner reproduces a figure through the public Runner.
func TestFacadeRunner(t *testing.T) {
	r := encdns.NewRunner(1, 10)
	chart, err := r.Figure(encdns.Fig4d)
	if err != nil {
		t.Fatal(err)
	}
	if len(chart.Rows) != 18 {
		t.Errorf("fig4d rows = %d", len(chart.Rows))
	}
}
