package monitor

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"encdns/internal/netsim"
	"encdns/internal/obs"
	"encdns/internal/testutil"
)

// testConfig runs the shipped SLO policy on the virtual clock with 10s
// buckets.
func testConfig(clk netsim.Clock) Config {
	return Config{Now: netsim.NowFunc(clk), Interval: 10 * time.Second}
}

func TestHysteresisDownAndRecovery(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	tr := New(testConfig(clk))

	// Healthy baseline.
	for i := 0; i < 6; i++ {
		tr.ObserveProbe("doh:dns.example", true, 20*time.Millisecond, "")
		clk.Advance(time.Second)
	}
	if st, ok := testutil.TargetState(tr.WatchReport(), "doh:dns.example"); !ok || st != StateHealthy.String() {
		t.Fatalf("after successes: state=%v ok=%v, want healthy", st, ok)
	}

	// Two failures are not enough to go down...
	tr.ObserveProbe("doh:dns.example", false, 0, "timeout")
	tr.ObserveProbe("doh:dns.example", false, 0, "timeout")
	if st, _ := testutil.TargetState(tr.WatchReport(), "doh:dns.example"); st == StateDown.String() {
		t.Fatalf("went down after 2 consecutive failures, DownAfter=3")
	}
	// ...the third is.
	tr.ObserveProbe("doh:dns.example", false, 0, "timeout")
	if st, _ := testutil.TargetState(tr.WatchReport(), "doh:dns.example"); st != StateDown.String() {
		t.Fatalf("state=%v after 3 consecutive failures, want down", st)
	}

	// Two successes do not recover (HealthyAfter=3)...
	tr.ObserveProbe("doh:dns.example", true, 20*time.Millisecond, "")
	tr.ObserveProbe("doh:dns.example", true, 20*time.Millisecond, "")
	if st, _ := testutil.TargetState(tr.WatchReport(), "doh:dns.example"); st != StateDown.String() {
		t.Fatalf("state=%v after 2 successes, want still down", st)
	}
	// ...and even a third doesn't while the windowed failure ratio is
	// still inside the hysteresis band.
	tr.ObserveProbe("doh:dns.example", true, 20*time.Millisecond, "")
	if st, _ := testutil.TargetState(tr.WatchReport(), "doh:dns.example"); st != StateHealthy.String() {
		// The ratio over the degraded window is 3/12 = 0.25 >= 0.05,
		// so recovery must wait for the failures to age out.
	} else {
		t.Fatalf("recovered with windowed failure ratio still above band")
	}

	// Age the failures out of the 1m degraded window, keep succeeding.
	for i := 0; i < 6; i++ {
		clk.Advance(15 * time.Second)
		tr.ObserveProbe("doh:dns.example", true, 20*time.Millisecond, "")
	}
	if st, _ := testutil.TargetState(tr.WatchReport(), "doh:dns.example"); st != StateHealthy.String() {
		t.Fatalf("state=%v after sustained recovery, want healthy", st)
	}

	// The journal saw both transitions.
	var sawDown, sawUp bool
	for _, e := range tr.Journal().Events() {
		if e.Type == EventState && e.To == "down" {
			sawDown = true
		}
		if e.Type == EventState && e.From == "down" && e.To == "healthy" {
			sawUp = true
		}
	}
	if !sawDown || !sawUp {
		t.Fatalf("journal transitions: down=%v up=%v, want both", sawDown, sawUp)
	}
}

func TestDegradedOnFailureRatio(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	tr := New(testConfig(clk))

	// Alternate ok/ok/fail: ratio 1/3 >= 0.1, never 3 consecutive fails.
	for i := 0; i < 9; i++ {
		ok := i%3 != 2
		tr.ObserveProbe("dot:dns.example", ok, 15*time.Millisecond, "connect-failure")
		clk.Advance(time.Second)
	}
	st, _ := testutil.TargetState(tr.WatchReport(), "dot:dns.example")
	if st != StateDegraded.String() {
		t.Fatalf("state=%v with 1/3 failure ratio, want degraded", st)
	}
}

func TestBurnAlertFiresAndResolves(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	tr := New(testConfig(clk))
	const target = "doq:dns.example"

	// One healthy minute: 6 probes, all ok.
	for i := 0; i < 6; i++ {
		tr.ObserveProbe(target, true, 10*time.Millisecond, "")
		clk.Advance(10 * time.Second)
	}
	if testutil.AlertFiring(tr.WatchReport(), target, "fast") {
		t.Fatalf("fast alert firing on all-success history")
	}

	// Hard outage: every probe fails. Budget is 0.01, factor 14.4: the
	// first failure among seven probes burns at 14.3 in both the 5m and
	// the 1h window, the second at 25.
	var fired bool
	for i := 0; i < 4; i++ {
		tr.ObserveProbe(target, false, 0, "timeout")
		if testutil.AlertFiring(tr.WatchReport(), target, "fast") {
			fired = true
			break
		}
		clk.Advance(10 * time.Second)
	}
	if !fired {
		t.Fatalf("fast alert never fired during a hard outage")
	}

	// Recovery: successes dilute the 5m burn back under the factor; the
	// alert must auto-resolve even while the 1h window still remembers
	// the outage.
	for i := 0; i < 30 && testutil.AlertFiring(tr.WatchReport(), target, "fast"); i++ {
		clk.Advance(10 * time.Second)
		tr.ObserveProbe(target, true, 10*time.Millisecond, "")
	}
	if testutil.AlertFiring(tr.WatchReport(), target, "fast") {
		t.Fatalf("fast alert still firing after sustained recovery")
	}
	// The slow pair (6h/3d, ×1) keeps firing: its budget leak is real.
	if !testutil.AlertFiring(tr.WatchReport(), target, "slow") {
		t.Fatalf("slow alert not firing after an outage inside its 6h window")
	}

	var sawFire, sawResolve bool
	for _, e := range tr.Journal().Events() {
		switch e.Type {
		case EventAlertFire:
			sawFire = true
		case EventAlertResolve:
			sawResolve = true
		}
	}
	if !sawFire || !sawResolve {
		t.Fatalf("journal alerts: fire=%v resolve=%v, want both", sawFire, sawResolve)
	}
}

func TestWatchReportShape(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	tr := New(testConfig(clk))

	for i := 0; i < 12; i++ {
		tr.ObserveProbe("b-resolver", true, 25*time.Millisecond, "")
		tr.ObserveProbe("a-resolver", i%4 != 0, 40*time.Millisecond, "tls-handshake-failure")
		clk.Advance(10 * time.Second)
	}

	rep := tr.WatchReport()
	if len(rep.Targets) != 2 {
		t.Fatalf("targets=%d, want 2", len(rep.Targets))
	}
	if rep.Targets[0].Target != "a-resolver" || rep.Targets[1].Target != "b-resolver" {
		t.Fatalf("targets not sorted: %q, %q", rep.Targets[0].Target, rep.Targets[1].Target)
	}
	a, b := rep.Targets[0], rep.Targets[1]
	if b.Availability != 1 || b.Failures != 0 {
		t.Fatalf("b-resolver availability=%v failures=%d, want 1, 0", b.Availability, b.Failures)
	}
	if a.Failures == 0 || a.Availability >= 1 {
		t.Fatalf("a-resolver availability=%v failures=%d, want lossy", a.Availability, a.Failures)
	}
	if a.Errors["tls-handshake-failure"] == 0 {
		t.Fatalf("a-resolver error breakdown missing tls-handshake-failure: %v", a.Errors)
	}
	if b.P50Ms < 20 || b.P50Ms > 35 {
		t.Fatalf("b-resolver p50=%vms, want ~25ms", b.P50Ms)
	}
	if len(b.Series) == 0 {
		t.Fatalf("b-resolver has no timeseries")
	}
	if len(a.Alerts) != 2 || a.Alerts[0].Window != "fast" || a.Alerts[0].Factor != 14.4 ||
		a.Alerts[1].Window != "slow" || a.Alerts[1].Factor != 1 {
		t.Fatalf("a-resolver alerts=%v, want fast ×14.4 and slow ×1", a.Alerts)
	}

	// The report must be JSON-encodable (no NaN leaks from empty
	// windows) even for a target that has never succeeded.
	tr.ObserveProbe("c-never-up", false, 0, "timeout")
	if _, err := json.Marshal(tr.WatchReport()); err != nil {
		t.Fatalf("WatchReport not JSON-encodable: %v", err)
	}
}

// TestWindowedVsCumulativeDivergence pins the premise of the windows: a
// mid-run stall that is invisible in a cumulative p99 is unmissable in
// the report's. One probe per second for an hour at 20ms, then a
// 30-probe stall at 5s: the stall is 0.8% of the cumulative distribution
// (under the p99 threshold) but 10% of the trailing five minutes.
func TestWindowedVsCumulativeDivergence(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	tr := New(Config{Now: netsim.NowFunc(clk), Interval: 5 * time.Second}) // window 5m
	cumulative := make([]uint64, len(obs.DefaultRTTBounds)+1)
	observe := func(rtt time.Duration) {
		tr.ObserveProbe("r", true, rtt, "")
		cumulative[sort.SearchFloat64s(obs.DefaultRTTBounds, rtt.Seconds())]++
		clk.Advance(time.Second)
	}
	for i := 0; i < 3600; i++ {
		observe(20 * time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		observe(5 * time.Second)
	}

	cumP99 := quantile(obs.DefaultRTTBounds, cumulative, 0.99)
	winP99 := tr.WatchReport().Targets[0].P99Ms / 1000
	if cumP99 >= 0.1 {
		t.Fatalf("cumulative p99 = %vs — the stall should be hidden below 0.1s", cumP99)
	}
	if winP99 <= 1 {
		t.Fatalf("windowed p99 = %vs — the stall should dominate the window (>1s)", winP99)
	}
}

// TestOneClockReadPerCall: the Tracker steps all of a target's rings
// with the one reading each call takes, new target or not.
func TestOneClockReadPerCall(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	reads := 0
	tr := New(Config{Now: func() time.Time { reads++; return clk.Now() }})
	for i, call := range []func(){
		func() { tr.ObserveProbe("new", true, time.Millisecond, "") },
		func() { tr.ObserveProbe("new", false, 0, "timeout") },
		func() { tr.WatchReport() },
	} {
		reads = 0
		call()
		if reads != 1 {
			t.Errorf("call %d read the clock %d times, want 1", i, reads)
		}
	}
}

func TestJournalBoundedAndJSONL(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(Event{Time: netsim.CampaignEpoch, Type: EventState, Target: "x"})
	}
	if j.Len() != 4 {
		t.Fatalf("journal len=%d, want capacity 4", j.Len())
	}
	evs := j.Events()
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("journal kept seqs %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}

	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("JSONL lines=%d, want 4", lines)
	}
}

func TestConfigEventJournaled(t *testing.T) {
	tr := New(Config{Now: netsim.NowFunc(netsim.NewVirtualClock(netsim.CampaignEpoch))})
	evs := tr.Journal().Events()
	if len(evs) != 1 || evs[0].Type != EventConfig {
		t.Fatalf("journal=%v, want one config event", evs)
	}
	if !strings.Contains(evs[0].Detail, "objective=0.99") {
		t.Fatalf("config detail %q missing defaults", evs[0].Detail)
	}
}

func TestLongWindowUsesCoarseRing(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	// The slow pair's 3d long window forces a coarse ring.
	tr := New(testConfig(clk))
	if tr.coarseInterval <= tr.cfg.Interval {
		t.Fatalf("coarse interval %v not coarser than fine %v", tr.coarseInterval, tr.cfg.Interval)
	}
	if span := time.Duration(tr.coarseSlots) * tr.coarseInterval; span < 3*24*time.Hour {
		t.Fatalf("coarse ring spans %v, want at least 3d", span)
	}
	// Spread failures over hours: invisible to the fine ring's span but
	// present in the slow pair's long window.
	for i := 0; i < 12; i++ {
		tr.ObserveProbe("t", false, 0, "timeout")
		tr.ObserveProbe("t", true, 10*time.Millisecond, "")
		clk.Advance(time.Hour)
	}
	tr.mu.Lock()
	tg := tr.targets["t"]
	c := rates(tg, clk.Now(), 3*24*time.Hour)
	tr.mu.Unlock()
	if c.ok+c.fail < 20 || c.fail < 10 {
		t.Fatalf("coarse rates over 3d: %d/%d, want ~12/24", c.fail, c.ok+c.fail)
	}
}
