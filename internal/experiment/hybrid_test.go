package experiment

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/core"
	"encdns/internal/dataset"
	"encdns/internal/doh"
	"encdns/internal/live"
	"encdns/internal/netsim"
	"encdns/internal/resolver"
	"encdns/internal/stats"
	"encdns/internal/transport"
)

// latencyDialer delays every new connection by half the configured RTT on
// dial (the SYN leg) — a cheap but honest way to make a loopback server
// look d milliseconds away for fresh-connection measurements.
type latencyDialer struct {
	oneWay time.Duration
	inner  net.Dialer
	dials  atomic.Int64
}

func (d *latencyDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	d.dials.Add(1)
	// A fresh TCP+TLS1.3+HTTP exchange costs ~3 RTTs; emulate the whole
	// path cost at dial time (per-segment delays would need a full pacer).
	select {
	case <-time.After(6 * d.oneWay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.inner.DialContext(ctx, network, address)
}

// TestLiveVsSimAgreement is the hybrid validation DESIGN.md promises: the
// same resolver measured (a) live — real DoH client, real TLS server,
// real recursive resolver, with the model's base path latency injected at
// the transport — and (b) through the transaction model. The medians must
// agree within tolerance, demonstrating that the analysis pipeline's two
// probers are interchangeable.
func TestLiveVsSimAgreement(t *testing.T) {
	res, ok := dataset.ResolverByHost("doh.la.ahadns.net") // single-site, no anycast ambiguity
	if !ok {
		t.Fatal("resolver missing")
	}
	v, _ := dataset.VantageByName(dataset.VantageOhio)
	simNet := netsim.New(netsim.Config{Seed: 4})

	// --- sim measurement ---
	simProber := &core.SimProber{Net: simNet}
	simCfg := core.CampaignConfig{
		Vantages: []netsim.Vantage{v},
		Targets:  []core.Target{{Host: res.Host, Endpoint: res.Endpoint, Net: res.Net}},
		Domains:  dataset.Domains,
		Rounds:   60,
		SkipPing: true,
	}
	simCampaign, err := core.NewCampaign(simCfg, simProber)
	if err != nil {
		t.Fatal(err)
	}
	simRS, err := simCampaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	simMedian := simRS.MedianResponse(v.Name, res.Host)

	// --- live measurement with the model's base delay injected ---
	site, _ := simNet.SiteFor(v, &res.Net)
	oneWayMs := simNet.BaseOWDMs(v, site)

	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	rec := &resolver.Recursive{Exchange: h.Registry, Roots: h.RootServers,
		Cache: resolver.NewCache(1024, nil), RNGSeed: 1}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: rec})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()

	ld := &latencyDialer{oneWay: time.Duration(oneWayMs * float64(time.Millisecond))}
	// Fresh connections through the one-shot client dnsmeasure runs.
	liveProber := &live.Prober{
		Transport: transport.NewPool(transport.Options{
			TLS:     ts.Client().Transport.(*http.Transport).TLSClientConfig,
			Dialer:  ld,
			Timeout: 10 * time.Second,
			Retry:   &transport.RetryPolicy{MaxAttempts: 1},
		}),
	}
	liveCfg := core.CampaignConfig{
		Vantages: []netsim.Vantage{{Name: v.Name}},
		Targets:  []core.Target{{Host: res.Host, Endpoint: ts.URL + doh.DefaultPath}},
		Domains:  dataset.Domains,
		Rounds:   12, // live rounds sleep for real; keep the test quick
		Interval: time.Millisecond,
		Clock:    netsim.WallClock{},
		SkipPing: true,
	}
	liveCampaign, err := core.NewCampaign(liveCfg, liveProber)
	if err != nil {
		t.Fatal(err)
	}
	liveRS, err := liveCampaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	liveMedian := liveRS.MedianResponse(v.Name, res.Host)
	if ld.dials.Load() == 0 {
		t.Fatal("latency dialer unused")
	}

	// Agreement: both stacks measure the same path. The sim adds jitter,
	// processing, and loss the live loop lacks; the live loop adds real
	// TLS compute the sim lacks. A 35% band is meaningful — swapping in
	// the wrong latency (e.g. forgetting the 3-RTT handshake) misses by
	// 2-3x.
	ratio := liveMedian / simMedian
	if ratio < 0.65 || ratio > 1.35 {
		t.Errorf("live median %.1f ms vs sim median %.1f ms (ratio %.2f): probers disagree",
			liveMedian, simMedian, ratio)
	}
	t.Logf("live %.1f ms vs sim %.1f ms (ratio %.2f) over a %.1f ms one-way path",
		liveMedian, simMedian, ratio, oneWayMs)

	// The analysis pipeline treats both identically: merge and chart.
	merged := core.NewResultSet()
	merged.Merge(simRS)
	merged.Merge(liveRS)
	if merged.Len() != simRS.Len()+liveRS.Len() {
		t.Error("merge lost records")
	}
	all := merged.QuerySamples(v.Name, res.Host)
	if len(all) == 0 || stats.Median(all) <= 0 {
		t.Error("merged analysis failed")
	}
}
