package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"encdns/internal/dataset"
	"encdns/internal/geo"
	"encdns/internal/netsim"
	"encdns/internal/stats"
	"encdns/internal/testutil"
)

// readJSON loads a result stream written by WriteJSON.
func readJSON(t testing.TB, r io.Reader) *ResultSet {
	rs := NewResultSet()
	for _, rec := range testutil.DecodeJSONL[Record](t, r) {
		rs.Add(rec)
	}
	return rs
}

func simTargets(hosts ...string) []Target {
	var out []Target
	for _, h := range hosts {
		r, ok := dataset.ResolverByHost(h)
		if !ok {
			panic("unknown host " + h)
		}
		out = append(out, Target{Host: r.Host, Endpoint: r.Endpoint, Net: r.Net})
	}
	return out
}

func simCampaign(t *testing.T, cfg CampaignConfig, seed uint64) *ResultSet {
	t.Helper()
	prober := &SimProber{Net: netsim.New(netsim.Config{Seed: seed})}
	c, err := NewCampaign(cfg, prober)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func ohioVantage() netsim.Vantage {
	v, _ := dataset.VantageByName(dataset.VantageOhio)
	return v
}

func TestCampaignRecordCounts(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google", "ordns.he.net"),
		Domains:  dataset.Domains,
		Rounds:   10,
	}
	rs := simCampaign(t, cfg, 1)
	// Per round: 2 targets × (3 query + 1 ping) = 8 records.
	if got, want := rs.Len(), 10*2*4; got != want {
		t.Fatalf("records = %d, want %d", got, want)
	}
	queries := rs.Filter(func(r Record) bool { return r.Kind == KindQuery })
	pings := rs.Filter(func(r Record) bool { return r.Kind == KindPing })
	if len(queries) != 60 || len(pings) != 20 {
		t.Errorf("queries=%d pings=%d", len(queries), len(pings))
	}
	for _, r := range queries {
		if r.Protocol != "doh" {
			t.Fatalf("protocol = %q", r.Protocol)
		}
		if r.OK && r.RCode != "NOERROR" {
			t.Fatalf("ok record rcode = %q", r.RCode)
		}
		if !r.OK && r.Error == "" {
			t.Fatal("failed record without error class")
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   20,
	}
	a := simCampaign(t, cfg, 7).Records()
	cfg.Clock = nil // fresh clock
	b := simCampaign(t, cfg, 7).Records()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestCampaignAdvancesVirtualClock(t *testing.T) {
	clock := netsim.NewVirtualClock(netsim.CampaignEpoch)
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   3,
		Interval: 8 * time.Hour,
		Clock:    clock,
	}
	rs := simCampaign(t, cfg, 1)
	recs := rs.Records()
	if !recs[0].Time.Equal(netsim.CampaignEpoch) {
		t.Errorf("first ts = %v", recs[0].Time)
	}
	last := recs[len(recs)-1]
	if want := netsim.CampaignEpoch.Add(16 * time.Hour); !last.Time.Equal(want) {
		t.Errorf("last ts = %v, want %v", last.Time, want)
	}
	if got := clock.Now().Sub(netsim.CampaignEpoch); got != 24*time.Hour {
		t.Errorf("clock advanced %v, want 24h", got)
	}
}

func TestCampaignValidation(t *testing.T) {
	good := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   1,
	}
	prober := &SimProber{Net: netsim.New(netsim.Config{})}
	cases := []func(*CampaignConfig){
		func(c *CampaignConfig) { c.Vantages = nil },
		func(c *CampaignConfig) { c.Targets = nil },
		func(c *CampaignConfig) { c.Domains = nil },
		func(c *CampaignConfig) { c.Rounds = 0 },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if _, err := NewCampaign(cfg, prober); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewCampaign(good, nil); err == nil {
		t.Error("nil prober accepted")
	}
	if _, err := NewCampaign(good, prober); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCampaignContextCancel(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   1000,
	}
	prober := &SimProber{Net: netsim.New(netsim.Config{Seed: 1})}
	c, err := NewCampaign(cfg, prober)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := c.Run(ctx)
	if err == nil {
		t.Fatal("cancelled campaign completed")
	}
	if rs == nil {
		t.Fatal("no partial results")
	}
}

func TestCampaignProgressCallback(t *testing.T) {
	var calls []int
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   3,
		Progress: func(round, total int) { calls = append(calls, round) },
	}
	simCampaign(t, cfg, 1)
	if len(calls) != 3 || calls[2] != 3 {
		t.Errorf("progress calls = %v", calls)
	}
}

func TestCampaignSkipPing(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   2,
		SkipPing: true,
	}
	rs := simCampaign(t, cfg, 1)
	if n := len(rs.Filter(func(r Record) bool { return r.Kind == KindPing })); n != 0 {
		t.Errorf("ping records = %d with SkipPing", n)
	}
}

func TestResultSetSamplesAndMedian(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google", "doh.ffmuc.net"),
		Domains:  dataset.Domains,
		Rounds:   50,
	}
	rs := simCampaign(t, cfg, 3)
	google := rs.QuerySamples(dataset.VantageOhio, "dns.google")
	ffmuc := rs.QuerySamples(dataset.VantageOhio, "doh.ffmuc.net")
	if len(google) == 0 || len(ffmuc) == 0 {
		t.Fatalf("samples: google=%d ffmuc=%d", len(google), len(ffmuc))
	}
	mg := rs.MedianResponse(dataset.VantageOhio, "dns.google")
	mf := rs.MedianResponse(dataset.VantageOhio, "doh.ffmuc.net")
	if !(mg < mf) {
		t.Errorf("google median %.1f !< ffmuc median %.1f from Ohio", mg, mf)
	}
	if pings := rs.PingSamples(dataset.VantageOhio, "dns.google"); len(pings) == 0 {
		t.Error("no ping samples for dns.google")
	} else if stats.Median(pings) >= mg {
		t.Errorf("ping median %.1f >= query median %.1f", stats.Median(pings), mg)
	}
	if !math.IsNaN(rs.MedianResponse("nowhere", "dns.google")) {
		t.Error("median for unknown vantage should be NaN")
	}
}

func TestAvailabilityTally(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google", "dohtrial.att.net", "ibksturm.synology.me"),
		Domains:  dataset.Domains,
		Rounds:   200,
	}
	rs := simCampaign(t, cfg, 5)
	a := rs.Availability()
	total := a.Successes + a.Errors
	if want := 200 * 3 * 3; total != want {
		t.Fatalf("total queries = %d, want %d", total, want)
	}
	if a.Errors == 0 {
		t.Fatal("no errors from flaky targets")
	}
	if a.ByClass["connect-failure"] == 0 {
		t.Error("no connect failures recorded")
	}
	// Connection failures must dominate, like the paper's finding.
	if a.ByClass["connect-failure"]*2 < a.Errors {
		t.Errorf("connect failures %d not dominant of %d", a.ByClass["connect-failure"], a.Errors)
	}
	if a.ByResolver["ibksturm.synology.me"] == 0 {
		t.Error("flaky resolver has no errors")
	}
	if got := a.QueriesByResolver["dns.google"]; got != 600 {
		t.Errorf("google queries = %d", got)
	}
	if rate := a.ErrorRate(); rate <= 0 || rate >= 0.5 {
		t.Errorf("error rate = %v", rate)
	}
	if (Availability{}).ErrorRate() != 0 {
		t.Error("empty availability rate != 0")
	}
}

func TestUnresponsiveDetection(t *testing.T) {
	dead := simTargets("dns.google")[0]
	dead.Host = "dead.example"
	dead.Net.Name = "dead.example"
	dead.Net.Down = true
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  append(simTargets("dns.google"), dead),
		Domains:  []string{"google.com"},
		Rounds:   5,
	}
	rs := simCampaign(t, cfg, 1)
	un := rs.Unresponsive(dataset.VantageOhio)
	if len(un) != 1 || un[0] != "dead.example" {
		t.Errorf("unresponsive = %v", un)
	}
	if un := rs.Unresponsive(""); len(un) != 1 {
		t.Errorf("global unresponsive = %v", un)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  dataset.Domains,
		Rounds:   5,
	}
	rs := simCampaign(t, cfg, 9)
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := readJSON(t, &buf)
	if got.Len() != rs.Len() {
		t.Fatalf("round trip lost records: %d vs %d", got.Len(), rs.Len())
	}
	a, b := rs.Records(), got.Records()
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) {
			t.Fatalf("record %d time differs", i)
		}
		a[i].Time, b[i].Time = time.Time{}, time.Time{}
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   2,
	}
	rs := simCampaign(t, cfg, 2)
	path := t.TempDir() + "/results.jsonl"
	if err := rs.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := readJSON(t, f)
	if got.Len() != rs.Len() {
		t.Errorf("file round trip: %d vs %d", got.Len(), rs.Len())
	}
}

func TestMergeResultSets(t *testing.T) {
	a, b := NewResultSet(), NewResultSet()
	a.Add(Record{Resolver: "x", Kind: KindQuery, OK: true, Milliseconds: 1})
	b.Add(Record{Resolver: "y", Kind: KindQuery, OK: true, Milliseconds: 2})
	a.Merge(b)
	if a.Len() != 2 {
		t.Errorf("merged len = %d", a.Len())
	}
}

func TestMainstreamFlatAcrossVantages(t *testing.T) {
	// §4: mainstream resolvers are anycast and keep low medians from every
	// vantage; a unicast European resolver does not.
	cfg := CampaignConfig{
		Vantages: dataset.EC2Vantages(),
		Targets:  simTargets("dns.google", "doh.ffmuc.net"),
		Domains:  dataset.Domains,
		Rounds:   60,
	}
	rs := simCampaign(t, cfg, 11)
	var googleMedians, ffmucMedians []float64
	for _, v := range dataset.EC2Vantages() {
		googleMedians = append(googleMedians, rs.MedianResponse(v.Name, "dns.google"))
		ffmucMedians = append(ffmucMedians, rs.MedianResponse(v.Name, "doh.ffmuc.net"))
	}
	gSpread := stats.Max(googleMedians) - stats.Min(googleMedians)
	fSpread := stats.Max(ffmucMedians) - stats.Min(ffmucMedians)
	if gSpread > 40 {
		t.Errorf("google median spread = %.1f ms; anycast should be flat (medians %v)", gSpread, googleMedians)
	}
	if fSpread < 150 {
		t.Errorf("ffmuc median spread = %.1f ms; unicast should vary hugely (medians %v)", fSpread, ffmucMedians)
	}
}

func TestHomeVantagesNoisier(t *testing.T) {
	home := dataset.HomeVantages()[0]
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{home, ohioVantage()},
		Targets:  simTargets("ordns.he.net"),
		Domains:  dataset.Domains,
		Rounds:   100,
	}
	rs := simCampaign(t, cfg, 13)
	hs := rs.QuerySamples(home.Name, "ordns.he.net")
	os := rs.QuerySamples(dataset.VantageOhio, "ordns.he.net")
	hb, err1 := stats.Summarize(hs)
	ob, err2 := stats.Summarize(os)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if hb.Q2 <= ob.Q2 {
		t.Errorf("home median %.1f <= ohio median %.1f; access latency missing", hb.Q2, ob.Q2)
	}
}

func TestSiteForUsedByPing(t *testing.T) {
	// Anycast ping from Seoul should be near-local for mainstream.
	seoul, _ := dataset.VantageByName(dataset.VantageSeoul)
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{seoul},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   30,
	}
	rs := simCampaign(t, cfg, 17)
	pings := rs.PingSamples(seoul.Name, "dns.google")
	if len(pings) == 0 {
		t.Fatal("no pings")
	}
	if med := stats.Median(pings); med > 15 {
		t.Errorf("anycast ping median from Seoul = %.1f ms, want local", med)
	}
	_ = geo.Seoul
}

func TestCampaignSinkStreams(t *testing.T) {
	var buf bytes.Buffer
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   4,
		Sink:     JSONLSink(&buf),
	}
	rs := simCampaign(t, cfg, 31)
	var written bytes.Buffer
	if err := rs.WriteJSON(&written); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), written.Bytes()) {
		t.Fatalf("sink wrote\n%s\nWriteJSON wrote\n%s", buf.Bytes(), written.Bytes())
	}
	streamed := readJSON(t, &buf)
	if streamed.Len() != rs.Len() {
		t.Fatalf("sink saw %d records, result set has %d", streamed.Len(), rs.Len())
	}
	a, b := rs.Records(), streamed.Records()
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || a[i].Resolver != b[i].Resolver || a[i].Milliseconds != b[i].Milliseconds {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestCampaignDiscardResults(t *testing.T) {
	var count int
	cfg := CampaignConfig{
		Vantages:       []netsim.Vantage{ohioVantage()},
		Targets:        simTargets("dns.google"),
		Domains:        []string{"google.com"},
		Rounds:         3,
		Sink:           func(Record) error { count++; return nil },
		DiscardResults: true,
	}
	rs := simCampaign(t, cfg, 1)
	if rs.Len() != 0 {
		t.Errorf("result set retained %d records with DiscardResults", rs.Len())
	}
	if count != 3*2 { // 3 rounds × (1 query + 1 ping)
		t.Errorf("sink calls = %d", count)
	}
	// DiscardResults without Sink is rejected.
	bad := cfg
	bad.Sink = nil
	if _, err := NewCampaign(bad, &SimProber{Net: netsim.New(netsim.Config{Seed: 1})}); err == nil {
		t.Error("DiscardResults without Sink accepted")
	}
}

func TestCampaignSinkErrorStops(t *testing.T) {
	boom := errors.New("disk full")
	cfg := CampaignConfig{
		Vantages: []netsim.Vantage{ohioVantage()},
		Targets:  simTargets("dns.google"),
		Domains:  []string{"google.com"},
		Rounds:   100,
		Sink:     func(Record) error { return boom },
	}
	prober := &SimProber{Net: netsim.New(netsim.Config{Seed: 1})}
	c, err := NewCampaign(cfg, prober)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
}
