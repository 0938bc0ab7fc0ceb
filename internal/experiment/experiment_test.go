package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"encdns/internal/dataset"
	"encdns/internal/stats"
	"encdns/internal/testutil"
)

// sharedRunner amortises the campaign across the test suite; tests must
// not mutate it.
var sharedRunner = New(1, 60)

func TestRunnerCachesCampaign(t *testing.T) {
	r := New(2, 5)
	a, err := r.Results()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Results()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Results ran the campaign twice")
	}
	if a.Len() == 0 {
		t.Error("empty campaign")
	}
}

func TestCampaignScale(t *testing.T) {
	rs := sharedRunner.MustResults()
	// 7 vantages × 75 resolvers × (3 domains + 1 ping) × 60 rounds.
	want := 7 * 75 * 4 * 60
	if rs.Len() != want {
		t.Errorf("records = %d, want %d", rs.Len(), want)
	}
}

func TestAllShapeChecksPass(t *testing.T) {
	checks, err := sharedRunner.ShapeChecks()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) < 12 {
		t.Fatalf("only %d checks evaluated", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("FAILED claim %q: %s", c.Name, c.Detail)
		}
	}
}

func TestRenderChecks(t *testing.T) {
	var buf bytes.Buffer
	checks := []Check{{Name: "demo", Pass: true, Detail: "ok"}, {Name: "bad", Pass: false, Detail: "boom"}}
	if err := RenderChecks(&buf, checks); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[PASS] demo") || !strings.Contains(out, "[FAIL] bad") {
		t.Errorf("render = %s", out)
	}
}

func TestAllFigurePanelsBuild(t *testing.T) {
	for _, id := range AllFigures() {
		chart, err := sharedRunner.Figure(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(chart.Rows) == 0 {
			t.Fatalf("figure %s has no rows", id)
		}
		// Rows must be median-sorted ascending.
		for i := 1; i < len(chart.Rows); i++ {
			if chart.Rows[i].Response.Q2 < chart.Rows[i-1].Response.Q2 {
				t.Errorf("figure %s rows not sorted at %d", id, i)
			}
		}
		var buf bytes.Buffer
		if err := chart.Render(&buf); err != nil {
			t.Fatalf("figure %s render: %v", id, err)
		}
		if !strings.Contains(buf.String(), "ms") {
			t.Errorf("figure %s render empty", id)
		}
	}
}

func TestFigureRowCountsMatchPaper(t *testing.T) {
	cases := map[FigureID]int{Fig1: 21, Fig2a: 21, Fig3c: 37, Fig4d: 18}
	for id, want := range cases {
		chart, err := sharedRunner.Figure(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(chart.Rows) != want {
			t.Errorf("%s rows = %d, want %d", id, len(chart.Rows), want)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := sharedRunner.Figure(FigureID("fig99")); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigure1MainstreamCluster(t *testing.T) {
	// In Figure 1 (Ohio), the mainstream resolvers sit in the fast half
	// and the ODoH Sweden targets anchor the slow end.
	chart, err := sharedRunner.Figure(Fig1)
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[string]int)
	for i, row := range chart.Rows {
		pos[strings.TrimPrefix(strings.TrimSuffix(row.Label, "**"), "**")] = i
	}
	for _, fast := range []string{"dns.google", "dns9.quad9.net", "security.cloudflare-dns.com"} {
		if pos[fast] > len(chart.Rows)/2 {
			t.Errorf("%s at position %d of %d; should be in the fast half", fast, pos[fast], len(chart.Rows))
		}
	}
	lastQuarter := len(chart.Rows) * 3 / 4
	for _, slow := range []string{"odoh-target-se.alekberg.net", "odoh-target-noads-se.alekberg.net"} {
		if pos[slow] < lastQuarter {
			t.Errorf("%s at position %d; should anchor the slow end", slow, pos[slow])
		}
	}
}

func TestFigureICMPSilentRowsHaveNoPing(t *testing.T) {
	chart, err := sharedRunner.Figure(Fig1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range chart.Rows {
		if strings.Contains(row.Label, "dohtrial.att.net") && row.HasPing {
			t.Error("dohtrial.att.net shows ping despite being ICMP-silent")
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl := Table1()
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Chrome", "Firefox", "Edge", "Opera", "Brave", "Cloudflare", "OpenDNS"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := sharedRunner.Table2Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Each listed Asia resolver is much faster locally (Seoul).
		if row.RemoteMs < 2*row.LocalMs {
			t.Errorf("%s: remote %.0f not ≫ local %.0f", row.Host, row.RemoteMs, row.LocalMs)
		}
		res, ok := dataset.ResolverByHost(row.Host)
		if !ok || res.Mainstream {
			t.Errorf("%s not a non-mainstream resolver", row.Host)
		}
	}
	// At least three of the paper's five Table 2 rows appear.
	paperRows := map[string]bool{
		"antivirus.bebasid.com": true, "dns.twnic.tw": true,
		"dnslow.me": true, "jp.tiar.app": true, "public.dns.iij.jp": true,
	}
	overlap := 0
	for _, row := range rows {
		if paperRows[row.Host] {
			overlap++
		}
	}
	if overlap < 3 {
		t.Errorf("only %d of the paper's Table 2 resolvers in top five: %+v", overlap, rows)
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := sharedRunner.Table3Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.RemoteMs < 2*row.LocalMs {
			t.Errorf("%s: remote %.0f not ≫ local %.0f", row.Host, row.RemoteMs, row.LocalMs)
		}
	}
	// doh.ffmuc.net is the paper's slowest-from-Seoul European resolver
	// (569 ms) and must top the gap ranking.
	if rows[0].Host != "doh.ffmuc.net" {
		t.Errorf("top row = %s, want doh.ffmuc.net", rows[0].Host)
	}
	paperRows := map[string]bool{
		"doh.ffmuc.net": true, "dns0.eu": true, "open.dns0.eu": true,
		"kids.dns0.eu": true, "dns.njal.la": true,
	}
	overlap := 0
	for _, row := range rows {
		if paperRows[row.Host] {
			overlap++
		}
	}
	if overlap < 3 {
		t.Errorf("only %d of the paper's Table 3 resolvers in top five: %+v", overlap, rows)
	}
}

func TestTable2And3Render(t *testing.T) {
	t2, err := sharedRunner.Table2()
	if err != nil {
		t.Fatal(err)
	}
	t3, err := sharedRunner.Table3()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := t2.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Seoul (ms)") {
		t.Error("table 2 header wrong")
	}
	buf.Reset()
	if err := t3.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Frankfurt (ms)") {
		t.Error("table 3 header wrong")
	}
}

func TestAvailabilityReport(t *testing.T) {
	av, err := sharedRunner.Availability()
	if err != nil {
		t.Fatal(err)
	}
	rate := av.ErrorRate()
	paper := av.PaperErrorRate()
	if math.Abs(rate-paper) > 0.02 {
		t.Errorf("error rate %.4f too far from paper %.4f", rate, paper)
	}
	// Connection failures dominate (§4).
	if av.ByClass["connect-failure"]*2 < av.Errors {
		t.Errorf("connect failures not dominant: %+v", av.ByClass)
	}
	// Every resolver answered at least once (the paper received responses
	// from most resolvers, and our population has no dead hosts).
	if len(av.Unresponsive) != 0 {
		t.Errorf("unresponsive = %v", av.Unresponsive)
	}
	var buf bytes.Buffer
	if err := av.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"error rate", "connect-failure", "5098281"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("availability render missing %q", want)
		}
	}
}

func TestNoConsistentFailingSubset(t *testing.T) {
	// §4: "We did not identify a consistent pattern of not receiving
	// responses from a certain subset of resolvers each time the
	// measurements ran." Check: across rounds, the set of resolvers with
	// failures varies — no resolver fails in every round while others
	// never fail... concretely, the per-round failing sets differ.
	rs := sharedRunner.MustResults()
	failedIn := make(map[int]map[string]bool)
	for _, rec := range rs.Records() {
		if rec.Kind != "query" || rec.OK {
			continue
		}
		if failedIn[rec.Round] == nil {
			failedIn[rec.Round] = make(map[string]bool)
		}
		failedIn[rec.Round][rec.Resolver] = true
	}
	if len(failedIn) < 10 {
		t.Fatalf("failures seen in only %d rounds", len(failedIn))
	}
	// Compare consecutive rounds' failing sets: they must not be equal
	// every time.
	identical := 0
	pairs := 0
	for r := 0; r+1 < sharedRunner.Rounds; r++ {
		a, b := failedIn[r], failedIn[r+1]
		if a == nil || b == nil {
			continue
		}
		pairs++
		if setsEqual(a, b) {
			identical++
		}
	}
	if pairs > 0 && identical == pairs {
		t.Error("the same resolvers fail every round; paper observed no consistent subset")
	}
}

func setsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestMedianForHomePooling(t *testing.T) {
	rs := sharedRunner.MustResults()
	pooled, _ := SamplesFor(rs, "home", "dns.google")
	var individual int
	for _, v := range dataset.HomeVantages() {
		individual += len(rs.QuerySamples(v.Name, "dns.google"))
	}
	if len(pooled) != individual {
		t.Errorf("pooled %d != sum of homes %d", len(pooled), individual)
	}
	if m := MedianFor(rs, "home", "dns.google"); math.IsNaN(m) || m <= 0 {
		t.Errorf("home median = %v", m)
	}
}

func TestTargetsConversion(t *testing.T) {
	ts := Targets(dataset.Resolvers())
	if len(ts) != 75 {
		t.Fatalf("targets = %d", len(ts))
	}
	for _, target := range ts {
		if target.Host == "" || target.Endpoint == "" || target.Net.Name != target.Host {
			t.Errorf("bad target %+v", target)
		}
	}
}

func TestHomeVsEC2(t *testing.T) {
	rep, err := sharedRunner.HomeVsEC2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 75 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The access gap is positive (homes pay the last-mile) and modest.
	if rep.TypicalGapMs <= 0 || rep.TypicalGapMs > 120 {
		t.Errorf("typical gap = %.1f ms", rep.TypicalGapMs)
	}
	// Rows are sorted by absolute gap, descending.
	for i := 1; i < len(rep.Rows); i++ {
		if math.Abs(rep.Rows[i].MedianGap()) > math.Abs(rep.Rows[i-1].MedianGap())+1e-9 {
			t.Fatalf("rows not sorted at %d", i)
		}
	}
	// Home IQRs generally exceed Ohio IQRs for NA-near resolvers (the
	// jittery access line) — check the median over rows.
	var homeIQRs, ohioIQRs []float64
	for _, row := range rep.Rows {
		homeIQRs = append(homeIQRs, row.HomeIQR)
		ohioIQRs = append(ohioIQRs, row.OhioIQR)
	}
	if stats.Median(homeIQRs) <= stats.Median(ohioIQRs) {
		t.Errorf("home IQR median %.1f <= ohio %.1f", stats.Median(homeIQRs), stats.Median(ohioIQRs))
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "typical home-minus-Ohio median gap") {
		t.Error("render incomplete")
	}
}

// fasterThan reports whether a is faster than b with significance: the
// rank-sum test rejects equality at the 5 % level and a's median is lower.
func fasterThan(a, b []float64) bool {
	_, p := testutil.RankSum(a, b)
	return p < 0.05 && stats.Median(a) < stats.Median(b)
}

func TestWinnerClaimsStatisticallySignificant(t *testing.T) {
	// Strengthen S1 with the rank-sum test: the §4 winners are faster
	// with statistical significance, not just by point medians.
	rs := sharedRunner.MustResults()
	he, _ := SamplesFor(rs, "home", "ordns.he.net")
	for _, m := range dataset.Mainstream() {
		ms, _ := SamplesFor(rs, "home", m.Host)
		if !fasterThan(he, ms) {
			t.Errorf("ordns.he.net not significantly faster than %s from homes", m.Host)
		}
	}
	ali, _ := SamplesFor(rs, dataset.VantageSeoul, "dns.alidns.com")
	for _, host := range []string{"dns.quad9.net", "dns.google", "security.cloudflare-dns.com"} {
		ms, _ := SamplesFor(rs, dataset.VantageSeoul, host)
		if !fasterThan(ali, ms) {
			t.Errorf("dns.alidns.com not significantly faster than %s from Seoul", host)
		}
	}
}
