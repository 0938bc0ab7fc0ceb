package netsim

import (
	"math/rand/v2"
	"testing"
	"time"

	"encdns/internal/geo"
	"encdns/internal/stats"
)

// The reference below is Query and Ping as they were before the serving
// site's base one-way delay was hoisted out of the draws: every draw asks
// SiteFor and BaseOWDMs again. TestHoistedPathMatchesPerDrawReference holds
// the hoisted code to it bit for bit.

func refOWD(n *Net, rng *rand.Rand, v Vantage, e *Endpoint) float64 {
	site, _ := n.SiteFor(v, e)
	sigma := n.cfg.JitterSigma
	if v.Access == AccessHome {
		sigma = n.cfg.HomeJitterSigma
	}
	return stats.LogNormalByMedian(rng, n.BaseOWDMs(v, site), sigma)
}

func refRTT(n *Net, rng *rand.Rand, v Vantage, e *Endpoint) float64 {
	rtt := refOWD(n, rng, v, e) + refOWD(n, rng, v, e)
	if stats.Bernoulli(rng, n.cfg.LossP) {
		rtt += stats.Pareto(rng, 1.2, 180, 1200)
	}
	return rtt
}

func refQuery(n *Net, v Vantage, e *Endpoint, p Protocol, reuse bool, round int, domain string) QueryResult {
	rng := n.rng("query", v.Name, e.Name, p.String(), domain, itoa(round))
	site, _ := n.SiteFor(v, e)
	res := QueryResult{Site: site}
	if e.Down {
		res.Err = ErrConnect
		res.Duration = msToDur(n.cfg.ConnTimeoutMs)
		return res
	}
	failP := e.FailP
	if e.FlakyP > 0 {
		if stats.Bernoulli(n.rng("window", e.Name, itoa(round)), e.FlakyP) {
			failP = 0.85
		}
	}
	if stats.Bernoulli(rng, failP) {
		switch u := rng.Float64(); {
		case u < 0.78:
			res.Err = ErrConnect
			if stats.Bernoulli(rng, 0.7) {
				res.Duration = msToDur(refRTT(n, rng, v, e))
			} else {
				res.Duration = msToDur(n.cfg.ConnTimeoutMs)
			}
		case u < 0.88:
			res.Err = ErrTimeout
			res.Duration = msToDur(n.cfg.QueryTimeoutMs)
		case u < 0.95 && p == ProtoDoH:
			res.Err = ErrHTTP
			var ms float64
			for i := 0; i < roundTrips(p, e, reuse); i++ {
				ms += refRTT(n, rng, v, e)
			}
			res.Duration = msToDur(ms)
		default:
			res.Err = ErrTLS
			res.Duration = msToDur(refRTT(n, rng, v, e) + refRTT(n, rng, v, e))
		}
		return res
	}
	var totalMs float64
	for i := 0; i < roundTrips(p, e, reuse)+e.ExtraRTT; i++ {
		totalMs += refRTT(n, rng, v, e)
	}
	res.CacheHit = stats.Bernoulli(rng, e.CacheHitP)
	proc := stats.LogNormalByMedian(rng, e.ProcMs, e.ProcSigma)
	if !res.CacheHit {
		proc += stats.LogNormalByMedian(rng, e.RecurseMs, 0.45)
	}
	totalMs += proc
	if totalMs > n.cfg.QueryTimeoutMs {
		res.Err = ErrTimeout
		res.Duration = msToDur(n.cfg.QueryTimeoutMs)
		return res
	}
	res.Duration = msToDur(totalMs)
	return res
}

func refPing(n *Net, v Vantage, e *Endpoint, round int) (time.Duration, bool) {
	if e.Down || !e.ICMPResponds {
		return 0, false
	}
	rng := n.rng("ping", v.Name, e.Name, itoa(round))
	for attempt := 0; attempt < 3; attempt++ {
		if stats.Bernoulli(rng, n.cfg.LossP) {
			continue
		}
		return msToDur(refOWD(n, rng, v, e) + refOWD(n, rng, v, e)), true
	}
	return 0, false
}

func TestHoistedPathMatchesPerDrawReference(t *testing.T) {
	n := New(Config{Seed: 11, LossP: 0.05}) // enough loss to reach the retransmission and ping-retry draws
	vantages := []Vantage{
		{Name: "home-chicago", Coord: geo.Chicago, Access: AccessHome},
		dcVantage("ohio", geo.Ohio),
		dcVantage("frankfurt", geo.Frankfurt),
		dcVantage("seoul", geo.Seoul),
	}
	global := []geo.Coord{geo.Ashburn, geo.Chicago, geo.Fremont, geo.Frankfurt, geo.London,
		geo.Stockholm, geo.Seoul, geo.Tokyo, geo.Singapore, geo.Sydney}
	flaky := func(e *Endpoint) *Endpoint { e.FailP, e.FlakyP = 0.25, 0.1; return e }
	endpoints := []*Endpoint{
		flaky(goodEndpoint("global", global...)),
		flaky(goodEndpoint("regional", geo.Frankfurt, geo.London, geo.NewYork)),
		flaky(goodEndpoint("single", geo.Jakarta)),
		// Two deployments under one name: what a cache keyed by (vantage,
		// endpoint name) would confuse, and why the delay is hoisted per
		// call rather than memoised.
		flaky(goodEndpoint("twin", geo.Tokyo)),
		flaky(goodEndpoint("twin", geo.Dallas, geo.Amsterdam)),
		{Name: "tls12-relay", Sites: []geo.Coord{geo.Nuremberg}, ICMPResponds: true, TLS12: true,
			ExtraRTT: 1, ProcMs: 48, ProcSigma: 0.35, CacheHitP: 0.5, RecurseMs: 45, FailP: 0.3},
		{Name: "down", Sites: global, Down: true},
		{Name: "nowhere", ICMPResponds: true, ProcMs: 2, ProcSigma: 0.3, CacheHitP: 0.9, RecurseMs: 40},
	}
	probes, classes := 0, map[ErrClass]int{}
	for _, v := range vantages {
		for _, e := range endpoints {
			for round := 0; round < 40; round++ {
				for _, p := range []Protocol{ProtoDoH, ProtoDoT, ProtoDo53} {
					for _, reuse := range []bool{false, true} {
						got := n.Query(v, e, p, reuse, round, "google.com")
						if want := refQuery(n, v, e, p, reuse, round, "google.com"); got != want {
							t.Fatalf("Query(%s, %s, %v, reuse=%v, round %d) = %+v, reference %+v",
								v.Name, e.Name, p, reuse, round, got, want)
						}
						classes[got.Err]++
						probes++
					}
				}
				d, ok := n.Ping(v, e, round)
				if wd, wok := refPing(n, v, e, round); d != wd || ok != wok {
					t.Fatalf("Ping(%s, %s, round %d) = %v %v, reference %v %v",
						v.Name, e.Name, round, d, ok, wd, wok)
				}
				probes++
			}
		}
	}
	// The comparison means something only if every branch that draws a
	// delay was taken.
	for _, c := range []ErrClass{OK, ErrConnect, ErrTimeout, ErrTLS, ErrHTTP} {
		if classes[c] == 0 {
			t.Errorf("no %v outcome among %d probes", c, probes)
		}
	}
	a := n.Query(vantages[1], endpoints[3], ProtoDoH, false, 0, "google.com")
	b := n.Query(vantages[1], endpoints[4], ProtoDoH, false, 0, "google.com")
	if a.Site == b.Site {
		t.Errorf("same-named endpoints served from one site %v", a.Site)
	}
}
