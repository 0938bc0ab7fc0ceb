package netsim

import (
	"math"
	"testing"
	"time"

	"encdns/internal/geo"
	"encdns/internal/stats"
)

func testNet() *Net { return New(Config{Seed: 42}) }

func dcVantage(name string, c geo.Coord) Vantage {
	return Vantage{Name: name, Coord: c, Access: AccessDatacenter}
}

func goodEndpoint(name string, sites ...geo.Coord) *Endpoint {
	return &Endpoint{
		Name: name, Sites: sites, ICMPResponds: true,
		ProcMs: 2, ProcSigma: 0.3,
	}
}

func queryMedian(n *Net, v Vantage, e *Endpoint, p Protocol, reuse bool, rounds int) float64 {
	var samples []float64
	for r := 0; r < rounds; r++ {
		res := n.Query(v, e, p, reuse, r, "google.com")
		if res.Err == OK {
			samples = append(samples, float64(res.Duration)/float64(time.Millisecond))
		}
	}
	return stats.Median(samples)
}

func TestDeterminism(t *testing.T) {
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("res", geo.Fremont)
	n1, n2 := New(Config{Seed: 7}), New(Config{Seed: 7})
	for r := 0; r < 50; r++ {
		a := n1.Query(v, e, ProtoDoH, false, r, "google.com")
		b := n2.Query(v, e, ProtoDoH, false, r, "google.com")
		if a != b {
			t.Fatalf("round %d: %+v != %+v", r, a, b)
		}
	}
}

func TestSeedChangesSamples(t *testing.T) {
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("res", geo.Fremont)
	a := New(Config{Seed: 1}).Query(v, e, ProtoDoH, false, 0, "google.com")
	b := New(Config{Seed: 2}).Query(v, e, ProtoDoH, false, 0, "google.com")
	if a.Duration == b.Duration {
		t.Error("different seeds produced identical durations")
	}
}

func TestDistanceMonotonicity(t *testing.T) {
	// Median response time must grow with distance to a unicast endpoint.
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	near := goodEndpoint("near", geo.Ashburn)
	mid := goodEndpoint("mid", geo.Fremont)
	far := goodEndpoint("far", geo.Seoul)
	mn := queryMedian(n, v, near, ProtoDoH, false, 200)
	mm := queryMedian(n, v, mid, ProtoDoH, false, 200)
	mf := queryMedian(n, v, far, ProtoDoH, false, 200)
	if !(mn < mm && mm < mf) {
		t.Errorf("medians not monotone with distance: near=%.1f mid=%.1f far=%.1f", mn, mm, mf)
	}
}

func TestAnycastServesNearestSite(t *testing.T) {
	n := testNet()
	e := goodEndpoint("cast", geo.Ashburn, geo.Frankfurt, geo.Seoul)
	// From Seoul the anycast endpoint must perform like a local resolver.
	seoul := dcVantage("seoul", geo.Seoul)
	frankfurt := dcVantage("frankfurt", geo.Frankfurt)
	mSeoul := queryMedian(n, seoul, e, ProtoDoH, false, 200)
	mFrankfurt := queryMedian(n, frankfurt, e, ProtoDoH, false, 200)
	if mSeoul > 40 || mFrankfurt > 40 {
		t.Errorf("anycast medians too high: seoul=%.1f frankfurt=%.1f", mSeoul, mFrankfurt)
	}
	site, d := n.SiteFor(seoul, e)
	if site != geo.Seoul || d > 1 {
		t.Errorf("SiteFor(seoul) = %v at %.0f km", site, d)
	}
}

func TestUnicastIsSlowFromFarVantage(t *testing.T) {
	// The paper's core finding: a unicast resolver serves its local region
	// well and remote regions poorly.
	n := testNet()
	e := goodEndpoint("muc", geo.Frankfurt)
	local := queryMedian(n, dcVantage("frankfurt", geo.Frankfurt), e, ProtoDoH, false, 200)
	remote := queryMedian(n, dcVantage("seoul", geo.Seoul), e, ProtoDoH, false, 200)
	if remote < 3*local {
		t.Errorf("remote/local = %.1f/%.1f; expected a large factor", remote, local)
	}
}

func TestReuseFasterThanFresh(t *testing.T) {
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("res", geo.Fremont)
	fresh := queryMedian(n, v, e, ProtoDoH, false, 200)
	reuse := queryMedian(n, v, e, ProtoDoH, true, 200)
	if reuse >= fresh {
		t.Errorf("reuse %.1f >= fresh %.1f", reuse, fresh)
	}
	// Fresh DoH is 3 round trips vs 1: ratio should be near 3 for a
	// processing-light endpoint.
	if r := fresh / reuse; r < 2 || r > 4.5 {
		t.Errorf("fresh/reuse ratio = %.2f, want ~3", r)
	}
}

func TestDo53SingleRoundTrip(t *testing.T) {
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("res", geo.Fremont)
	udp := queryMedian(n, v, e, ProtoDo53, false, 200)
	doh := queryMedian(n, v, e, ProtoDoH, false, 200)
	if udp >= doh {
		t.Errorf("do53 %.1f >= doh %.1f", udp, doh)
	}
}

func TestTLS12CostsExtraRTT(t *testing.T) {
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	modern := goodEndpoint("tls13", geo.Fremont)
	legacy := goodEndpoint("tls12", geo.Fremont)
	legacy.TLS12 = true
	m13 := queryMedian(n, v, modern, ProtoDoH, false, 300)
	m12 := queryMedian(n, v, legacy, ProtoDoH, false, 300)
	// One extra RTT on a ~51ms-RTT path.
	if m12-m13 < 25 {
		t.Errorf("TLS1.2 penalty = %.1f ms, want noticeable", m12-m13)
	}
}

func TestDownEndpointAlwaysConnectError(t *testing.T) {
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("dead", geo.Fremont)
	e.Down = true
	for r := 0; r < 20; r++ {
		res := n.Query(v, e, ProtoDoH, false, r, "google.com")
		if res.Err != ErrConnect {
			t.Fatalf("round %d err = %v", r, res.Err)
		}
	}
	if _, ok := n.Ping(v, e, 0); ok {
		t.Error("dead endpoint answered ping")
	}
}

func TestFailureRateMatchesFailP(t *testing.T) {
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("flaky", geo.Fremont)
	e.FailP = 0.2
	fails, connects := 0, 0
	const rounds = 2000
	for r := 0; r < rounds; r++ {
		res := n.Query(v, e, ProtoDoH, false, r, "google.com")
		if res.Err != OK {
			fails++
			if res.Err == ErrConnect {
				connects++
			}
		}
	}
	rate := float64(fails) / rounds
	if rate < 0.15 || rate > 0.25 {
		t.Errorf("failure rate = %.3f, want ~0.2", rate)
	}
	// Connection failures dominate the error mix, per the paper.
	if connects*2 < fails {
		t.Errorf("connect failures %d not dominant of %d errors", connects, fails)
	}
}

func TestFlakyWindowsAreIndependentAcrossRounds(t *testing.T) {
	// With FlakyP windows, failures should not concentrate on a fixed
	// subset of rounds when the seed changes — matching the paper's "no
	// consistent pattern" observation. Here we just check both nets see
	// windows but on different rounds.
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("windowed", geo.Fremont)
	e.FlakyP = 0.2
	badRounds := func(seed uint64) map[int]bool {
		n := New(Config{Seed: seed})
		bad := make(map[int]bool)
		for r := 0; r < 300; r++ {
			if res := n.Query(v, e, ProtoDoH, false, r, "google.com"); res.Err != OK {
				bad[r] = true
			}
		}
		return bad
	}
	a, b := badRounds(3), badRounds(4)
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("no flaky windows materialised")
	}
	same := 0
	for r := range a {
		if b[r] {
			same++
		}
	}
	if same == len(a) && same == len(b) {
		t.Error("flaky windows identical across seeds")
	}
}

func TestPing(t *testing.T) {
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("res", geo.Ashburn)
	d, ok := n.Ping(v, e, 0)
	if !ok {
		t.Fatal("ping failed")
	}
	ms := float64(d) / float64(time.Millisecond)
	base := 2 * n.BaseOWDMs(v, geo.Ashburn)
	if ms < base*0.5 || ms > base*2 {
		t.Errorf("ping = %.2f ms, base RTT = %.2f ms", ms, base)
	}
	// Ping should be well below the fresh DoH response time (paper's
	// figures show ping ≪ response time).
	doh := queryMedian(n, v, e, ProtoDoH, false, 100)
	if ms >= doh {
		t.Errorf("ping %.1f >= doh %.1f", ms, doh)
	}
}

func TestPingSilentEndpoint(t *testing.T) {
	n := testNet()
	e := goodEndpoint("silent", geo.Ashburn)
	e.ICMPResponds = false
	if _, ok := n.Ping(dcVantage("ohio", geo.Ohio), e, 0); ok {
		t.Error("ICMP-silent endpoint answered")
	}
}

func TestHomeAccessSlowerAndJitterier(t *testing.T) {
	n := testNet()
	e := goodEndpoint("res", geo.Ashburn)
	home := Vantage{Name: "chi-home", Coord: geo.Chicago, Access: AccessHome}
	dc := Vantage{Name: "chi-dc", Coord: geo.Chicago, Access: AccessDatacenter}
	var homeS, dcS []float64
	for r := 0; r < 400; r++ {
		if res := n.Query(home, e, ProtoDoH, false, r, "google.com"); res.Err == OK {
			homeS = append(homeS, float64(res.Duration)/float64(time.Millisecond))
		}
		if res := n.Query(dc, e, ProtoDoH, false, r, "google.com"); res.Err == OK {
			dcS = append(dcS, float64(res.Duration)/float64(time.Millisecond))
		}
	}
	if stats.Median(homeS) <= stats.Median(dcS) {
		t.Errorf("home median %.1f <= dc median %.1f", stats.Median(homeS), stats.Median(dcS))
	}
	// Compare bulk dispersion via IQR: stddev is dominated by the rare
	// loss-retransmission spikes, which hit both access classes equally.
	homeBox, _ := stats.Summarize(homeS)
	dcBox, _ := stats.Summarize(dcS)
	if homeBox.IQR() <= dcBox.IQR() {
		t.Errorf("home IQR %.1f <= dc IQR %.1f", homeBox.IQR(), dcBox.IQR())
	}
}

func TestCacheMissesAddLatency(t *testing.T) {
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("res", geo.Ashburn)
	var hits, misses []float64
	for r := 0; r < 1000; r++ {
		res := n.Query(v, e, ProtoDoH, false, r, "google.com")
		if res.Err != OK {
			continue
		}
		ms := float64(res.Duration) / float64(time.Millisecond)
		if res.CacheHit {
			hits = append(hits, ms)
		} else {
			misses = append(misses, ms)
		}
	}
	if len(hits) == 0 || len(misses) == 0 {
		t.Fatal("expected both hits and misses")
	}
	if stats.Median(misses) <= stats.Median(hits) {
		t.Errorf("miss median %.1f <= hit median %.1f", stats.Median(misses), stats.Median(hits))
	}
}

func TestQueryTimeoutClass(t *testing.T) {
	n := New(Config{Seed: 5, QueryTimeoutMs: 10})
	v := dcVantage("seoul", geo.Seoul)
	e := goodEndpoint("far", geo.Frankfurt)
	res := n.Query(v, e, ProtoDoH, false, 0, "google.com")
	if res.Err != ErrTimeout {
		t.Fatalf("err = %v, want timeout", res.Err)
	}
	if res.Duration != 10*time.Millisecond {
		t.Errorf("duration = %v, want capped at 10ms", res.Duration)
	}
}

func TestStretchInterpolation(t *testing.T) {
	n := testNet()
	c := n.Config()
	if s := n.stretch(100); s != c.IntraStretch {
		t.Errorf("near stretch = %v", s)
	}
	if s := n.stretch(20000); s != c.InterStretch {
		t.Errorf("far stretch = %v", s)
	}
	mid := n.stretch((c.StretchNearKm + c.StretchFarKm) / 2)
	want := (c.IntraStretch + c.InterStretch) / 2
	if math.Abs(mid-want) > 1e-9 {
		t.Errorf("mid stretch = %v, want %v", mid, want)
	}
}

func TestCalibrationOhioToStockholm(t *testing.T) {
	// DESIGN.md calibration: the slowest NA-group resolvers from Ohio are
	// the Sweden-hosted ODoH targets at ~270 ms median (§4). The base
	// model should land in that neighbourhood.
	n := testNet()
	v := dcVantage("ohio", geo.Ohio)
	e := goodEndpoint("odoh-se", geo.Stockholm)
	m := queryMedian(n, v, e, ProtoDoH, false, 300)
	if m < 190 || m > 350 {
		t.Errorf("Ohio→Stockholm median = %.1f ms, want ~270", m)
	}
}

func TestSiteForNoSites(t *testing.T) {
	n := testNet()
	e := &Endpoint{Name: "empty"}
	_, d := n.SiteFor(dcVantage("ohio", geo.Ohio), e)
	if !math.IsInf(d, 1) {
		t.Errorf("distance = %v, want +Inf", d)
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewVirtualClock(CampaignEpoch)
	if !c.Now().Equal(CampaignEpoch) {
		t.Errorf("start = %v", c.Now())
	}
	c.Advance(3 * time.Hour)
	if got := c.Now().Sub(CampaignEpoch); got != 3*time.Hour {
		t.Errorf("advanced = %v", got)
	}
	c.Advance(-time.Hour) // ignored
	if got := c.Now().Sub(CampaignEpoch); got != 3*time.Hour {
		t.Errorf("negative advance changed time: %v", got)
	}
}

func TestWallClock(t *testing.T) {
	var w WallClock
	before := time.Now()
	got := w.Now()
	if got.Before(before.Add(-time.Second)) || got.After(before.Add(time.Second)) {
		t.Errorf("wall clock far from now: %v", got)
	}
	w.Advance(time.Hour) // no-op, must not panic
}

func TestProtocolAndErrClassStrings(t *testing.T) {
	if ProtoDoH.String() != "doh" || ProtoDoT.String() != "dot" || ProtoDo53.String() != "do53" {
		t.Error("protocol names wrong")
	}
	names := map[ErrClass]string{
		OK: "ok", ErrConnect: "connect-failure", ErrTimeout: "timeout",
		ErrTLS: "tls-failure", ErrHTTP: "http-error", ErrDNS: "dns-error",
		ErrClass(99): "unknown",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
	}
	if AccessHome.String() != "home" || AccessDatacenter.String() != "datacenter" {
		t.Error("access names wrong")
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", -13: "-13", 100000: "100000"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestNowFuncAdaptsClocks(t *testing.T) {
	if NowFunc(nil) != nil {
		t.Fatal("NowFunc(nil) must stay nil so consumers default to time.Now")
	}
	vc := NewVirtualClock(CampaignEpoch)
	now := NowFunc(vc)
	if !now().Equal(CampaignEpoch) {
		t.Fatalf("virtual NowFunc = %v, want %v", now(), CampaignEpoch)
	}
	vc.Advance(42 * time.Second)
	if got := now().Sub(CampaignEpoch); got != 42*time.Second {
		t.Fatalf("advanced NowFunc moved %v, want 42s", got)
	}
	wall := NowFunc(WallClock{})
	if d := time.Since(wall()); d < 0 || d > time.Minute {
		t.Fatalf("wall NowFunc skew %v", d)
	}
}
