package main

import (
	"context"
	"crypto/tls"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"time"

	"encdns/benchmark/wire"
	"encdns/internal/core"
	"encdns/internal/dataset"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/experiment"
	"encdns/internal/netsim"
	"encdns/internal/stats"
	"encdns/internal/transport"
)

// probeRungs measures the client stack the way dnsmeasure -mode live
// uses it: transport.Dial with Reuse off, so every exchange pays TCP,
// TLS and HTTP set-up against an in-process DoH server on loopback. The
// spans come from net/http's own client trace hooks — the events the doh
// client hangs its obs spans on, read here at nanosecond resolution.
func (b *bench) probeRungs(d time.Duration) (map[string]float64, error) {
	s := newStack(b.rec, false)
	defer s.close()
	ts := httptest.NewUnstartedServer(&doh.Handler{DNS: s.resolver})
	ts.EnableHTTP2 = true
	ts.StartTLS()
	defer ts.Close()
	noRetry := transport.NoRetry()
	ex, err := transport.Dial(ts.URL+doh.DefaultPath, transport.Options{
		TLS:   ts.Client().Transport.(*http.Transport).TLSClientConfig,
		Retry: &noRetry,
	})
	if err != nil {
		return nil, err
	}
	defer ex.Close()

	var dial, handshake, request int32
	hooks := &httptrace.ClientTrace{
		ConnectStart:      func(_, _ string) { dial = b.rec.begin("dial") },
		ConnectDone:       func(_, _ string, _ error) { b.rec.end(dial) },
		TLSHandshakeStart: func() { handshake = b.rec.begin("tls-handshake") },
		TLSHandshakeDone: func(tls.ConnectionState, error) {
			b.rec.end(handshake)
			request = b.rec.begin("request")
		},
		GotFirstResponseByte: func() { b.rec.end(request) },
	}
	ctx := httptrace.WithClientTrace(context.Background(), hooks)
	src := wire.NewQuerySource(b.seed, false)
	var exp wire.Expectation
	var qbuf []byte
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	var id uint16
	res, err := b.runChainFunc("transport-fresh", d, func() error {
		id++
		qbuf = src.Next(qbuf[:0], id, &exp)
		if err := msg.Unpack(qbuf); err != nil {
			return err
		}
		span := b.rec.begin("exchange")
		resp, err := ex.Exchange(ctx, msg)
		b.rec.end(span)
		if err != nil {
			return err
		}
		out, err := resp.Pack()
		if err != nil {
			return err
		}
		return wire.Validate(out, &exp)
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"transport.dial_ns":          res.selfNS("dial"),
		"transport.tls_handshake_ns": res.selfNS("tls-handshake"),
		"transport.request_ns":       res.selfNS("request"),
		"transport.self_ns":          res.selfNS("exchange"),
		"trace.overhead_ratio":       res.tracedNS / res.untracedNS,
	}, nil
}

// runChainFunc is runChain for chains that build their own requests: op
// runs closed-loop for d, half traced and half with no-op shims.
func (b *bench) runChainFunc(chain string, d time.Duration, op func() error) (chainResult, error) {
	var res chainResult
	pass := func(traced bool) (int, float64, error) {
		b.rec.reset(traced)
		ops := 0
		start := time.Now()
		for deadline := start.Add(d / 2); time.Now().Before(deadline) && b.rec.newReq(); ops++ {
			if err := op(); err != nil {
				return 0, 0, err
			}
		}
		return ops, float64(time.Since(start)) / float64(max(ops, 1)), nil
	}
	var err error
	if res.ops, res.tracedNS, err = pass(true); err != nil {
		return res, err
	}
	res.spans = b.rec.aggregate()
	b.trace.keep(b.workload, chain, b.rec)
	_, res.untracedNS, err = pass(false)
	return res, err
}

// proberShim records a span around every probe the campaign issues: the
// seam between core and netsim.
type proberShim struct {
	inner core.Prober
	rec   *recorder
}

func (p *proberShim) Query(ctx context.Context, v netsim.Vantage, t core.Target, domain string, round int) core.QueryOutcome {
	id := p.rec.begin("netsim.query")
	out := p.inner.Query(ctx, v, t, domain, round)
	p.rec.end(id)
	return out
}

func (p *proberShim) Ping(ctx context.Context, v netsim.Vantage, t core.Target, round int) core.PingOutcome {
	id := p.rec.begin("netsim.query")
	out := p.inner.Ping(ctx, v, t, round)
	p.rec.end(id)
	return out
}

// simRounds keeps one traced campaign (2100 probes a round) well inside
// the span buffer.
const simRounds = 2

// simRungs measures the reproduction pipeline: the campaign as
// experiment.Runner configures it with a span around every probe, then
// the analysis stages as leaf calls on its result set.
func (b *bench) simRungs(d time.Duration) (map[string]float64, error) {
	var results *core.ResultSet
	res, err := b.runChainFunc("campaign", d/2, func() error {
		prober := &proberShim{inner: &core.SimProber{Net: netsim.New(netsim.Config{Seed: b.seed})}, rec: b.rec}
		c, err := core.NewCampaign(core.CampaignConfig{
			Vantages: dataset.Vantages(),
			Targets:  experiment.Targets(dataset.Resolvers()),
			Domains:  dataset.Domains,
			Rounds:   simRounds,
			Interval: 8 * time.Hour,
		}, prober)
		if err != nil {
			return err
		}
		span := b.rec.begin("core.campaign")
		results, err = c.Run(context.Background())
		b.rec.end(span)
		return err
	})
	if err != nil {
		return nil, err
	}
	probes := float64(max(res.spans["netsim.query"].count, 1))
	rungs := map[string]float64{
		"netsim.query_ns":            float64(res.spans["netsim.query"].total) / probes,
		"core.campaign_ns_per_probe": float64(res.spans["core.campaign"].self) / probes,
		"trace.overhead_ratio":       res.tracedNS / res.untracedNS,
	}

	var samples [][]float64
	for _, v := range dataset.Vantages() {
		for _, r := range dataset.Resolvers() {
			if s := results.QuerySamples(v.Name, r.Host); len(s) > 0 {
				samples = append(samples, s)
			}
		}
	}
	rungs["stats.summarize_ns"], _ = timeLeaf(leafN, func(i int) {
		_, _ = stats.Summarize(samples[i%len(samples)])
	})

	runner := experiment.New(b.seed, simRounds)
	if _, err := runner.Results(); err != nil { // the campaign is cached from here on
		return nil, err
	}
	figures := experiment.AllFigures()
	var figErr error
	rungs["experiment.figure_ns"], _ = timeLeaf(200, func(i int) {
		if _, err := runner.Figure(figures[i%len(figures)]); err != nil {
			figErr = err
		}
	})
	if figErr != nil {
		return nil, figErr
	}
	chart, err := runner.Figure(figures[0])
	if err != nil {
		return nil, err
	}
	rungs["report.render_ns"], _ = timeLeaf(200, func(int) {
		if err := chart.Render(io.Discard); err != nil {
			figErr = err
		}
	})
	return rungs, figErr
}
