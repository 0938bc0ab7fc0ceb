package netsim

import (
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"encdns/internal/geo"
	"encdns/internal/stats"
)

// The reference below is Query and Ping as they were before the serving
// site's base one-way delay was hoisted out of the draws and memoised per
// path: every draw asks SiteFor and BaseOWDMs again, and every stream is
// seeded through a hash/fnv object. TestHoistedPathMatchesPerDrawReference
// holds the memoised code to it bit for bit.

// refRNG is the stream derivation through hash/fnv that Net.rng inlines.
func refRNG(n *Net, keys ...string) *rand.Rand {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(n.cfg.Seed >> (8 * i))
	}
	h.Write(b[:])
	for _, k := range keys {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	s1 := h.Sum64()
	h.Write([]byte{0xA5})
	s2 := h.Sum64()
	return rand.New(rand.NewPCG(s1, s2))
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		b[p] = '-'
	}
	return string(b[p:])
}

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
	rng := refRNG(n, "query", v.Name, e.Name, p.String(), domain, itoa(round))
	var res QueryResult
	if e.Down {
		res.Err = ErrConnect
		res.Duration = msToDur(n.cfg.ConnTimeoutMs)
		return res
	}
	failP := e.FailP
	if e.FlakyP > 0 {
		if stats.Bernoulli(refRNG(n, "window", e.Name, itoa(round)), e.FlakyP) {
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
	for i := 0; i < roundTrips(p, e, reuse); i++ {
		totalMs += refRTT(n, rng, v, e)
	}
	res.CacheHit = stats.Bernoulli(rng, cacheHitP)
	proc := stats.LogNormalByMedian(rng, e.ProcMs, e.ProcSigma)
	if !res.CacheHit {
		proc += stats.LogNormalByMedian(rng, recurseMs, 0.45)
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
	rng := refRNG(n, "ping", v.Name, e.Name, itoa(round))
	for attempt := 0; attempt < 3; attempt++ {
		if stats.Bernoulli(rng, n.cfg.LossP) {
			continue
		}
		return msToDur(refOWD(n, rng, v, e) + refOWD(n, rng, v, e)), true
	}
	return 0, false
}

// pathFixture is a Net with enough loss to reach the retransmission and
// ping-retry draws, and the vantages and endpoints the memo must keep
// apart.
func pathFixture() (*Net, []Vantage, []*Endpoint) {
	n := New(Config{Seed: 11, LossP: 0.05})
	vantages := []Vantage{
		{Name: "home-chicago", Coord: geo.Chicago, Access: AccessHome},
		dcVantage("ohio", geo.Ohio),
		dcVantage("frankfurt", geo.Frankfurt),
		dcVantage("seoul", geo.Seoul),
		// One name that moves and changes access class: the memo must
		// notice either.
		dcVantage("ohio", geo.Seoul),
		{Name: "ohio", Coord: geo.Seoul, Access: AccessHome},
	}
	global := []geo.Coord{geo.Ashburn, geo.Chicago, geo.Fremont, geo.Frankfurt, geo.London,
		geo.Stockholm, geo.Seoul, geo.Tokyo, geo.Singapore, geo.Sydney}
	flaky := func(e *Endpoint) *Endpoint { e.FailP, e.FlakyP = 0.25, 0.1; return e }
	endpoints := []*Endpoint{
		flaky(goodEndpoint("global", global...)),
		flaky(goodEndpoint("regional", geo.Frankfurt, geo.London, geo.NewYork)),
		flaky(goodEndpoint("single", geo.Jakarta)),
		// Two deployments under one name: the memo must tell them apart
		// by their Sites.
		flaky(goodEndpoint("twin", geo.Tokyo)),
		flaky(goodEndpoint("twin", geo.Dallas, geo.Amsterdam)),
		{Name: "tls12-relay", Sites: []geo.Coord{geo.Nuremberg}, ICMPResponds: true, TLS12: true,
			ProcMs: 48, ProcSigma: 0.35, FailP: 0.3},
		{Name: "down", Sites: global, Down: true},
		{Name: "nowhere", ICMPResponds: true, ProcMs: 2, ProcSigma: 0.3},
	}
	return n, vantages, endpoints
}

// matchReference probes every protocol and connection mode plus one ping
// from v to e in one round and fails unless each result equals the
// reference's; classes tallies the query outcomes.
func matchReference(t *testing.T, n *Net, v Vantage, e *Endpoint, round int, classes map[ErrClass]int) {
	t.Helper()
	for _, p := range []Protocol{ProtoDoH, ProtoDoT, ProtoDo53} {
		for _, reuse := range []bool{false, true} {
			got := n.Query(v, e, p, reuse, round, "google.com")
			if want := refQuery(n, v, e, p, reuse, round, "google.com"); got != want {
				t.Errorf("Query(%+v, %s %v, %v, reuse=%v, round %d) = %+v, reference %+v",
					v, e.Name, e.Sites, p, reuse, round, got, want)
				return
			}
			if classes != nil {
				classes[got.Err]++
			}
		}
	}
	d, ok := n.Ping(v, e, round)
	if wd, wok := refPing(n, v, e, round); d != wd || ok != wok {
		t.Errorf("Ping(%+v, %s %v, round %d) = %v %v, reference %v %v",
			v, e.Name, e.Sites, round, d, ok, wd, wok)
	}
}

func TestHoistedPathMatchesPerDrawReference(t *testing.T) {
	n, vantages, endpoints := pathFixture()
	classes := map[ErrClass]int{}
	for _, v := range vantages {
		for _, e := range endpoints {
			for round := 0; round < 40; round++ {
				matchReference(t, n, v, e, round, classes)
			}
		}
	}
	// Alternate the same-named vantages and endpoints probe by probe, so
	// every lookup finds the other one's entry.
	for round := 0; round < 40; round++ {
		for _, v := range vantages[1:] {
			for _, e := range endpoints[3:5] {
				matchReference(t, n, v, e, round, classes)
			}
		}
	}
	// An endpoint whose Sites change in place, behind the memo's back.
	e := endpoints[2]
	matchReference(t, n, vantages[3], e, 0, classes)
	e.Sites[0] = geo.Seoul
	matchReference(t, n, vantages[3], e, 0, classes)
	if t.Failed() {
		return
	}
	// The comparison means something only if every branch that draws a
	// delay was taken.
	for _, c := range []ErrClass{OK, ErrConnect, ErrTimeout, ErrTLS, ErrHTTP} {
		if classes[c] == 0 {
			t.Errorf("no %v outcome among %v", c, classes)
		}
	}
	if a, b := n.path(vantages[1], endpoints[3]), n.path(vantages[1], endpoints[4]); a == b {
		t.Errorf("same-named endpoints share one path: base %v ms", a)
	}
}

// TestPathMemoConcurrent probes one Net from a goroutine per vantage; run
// it under -race.
func TestPathMemoConcurrent(t *testing.T) {
	n, vantages, endpoints := pathFixture()
	var wg sync.WaitGroup
	for _, v := range vantages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for _, e := range endpoints {
					matchReference(t, n, v, e, round, nil)
				}
			}
		}()
	}
	wg.Wait()
}

func TestStreamSeedsMatchReference(t *testing.T) {
	src := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		n := New(Config{Seed: src.Uint64()})
		keys := make([]string, src.IntN(7))
		for j := range keys {
			b := make([]byte, src.IntN(13))
			for k := range b {
				b[k] = byte(src.Uint32())
			}
			keys[j] = string(b)
		}
		index := src.IntN(2_000_000_000) - 1_000_000
		got, want := n.rng(index, keys...), refRNG(n, append(keys, itoa(index))...)
		for d := 0; d < 4; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, keys %q, index %d: draw %d = %#x, reference %#x",
					n.cfg.Seed, keys, index, d, g, w)
			}
		}
	}
}

// TestQueryAllocs pins a memoised path's allocations: one per RNG stream,
// and a flaky endpoint draws two streams a query.
func TestQueryAllocs(t *testing.T) {
	n, vantages, endpoints := pathFixture()
	v, flaky, steady := vantages[1], endpoints[0], endpoints[5]
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"query", 1, func() { n.Query(v, steady, ProtoDoH, false, 12, "google.com") }},
		{"flaky query", 2, func() { n.Query(v, flaky, ProtoDoH, false, 12, "google.com") }},
		{"ping", 1, func() { n.Ping(v, flaky, 12) }},
	} {
		if got := testing.AllocsPerRun(200, c.run); got > c.want {
			t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.want)
		}
	}
}
