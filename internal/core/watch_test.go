package core

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"encdns/internal/dataset"
	"encdns/internal/monitor"
	"encdns/internal/netsim"
	"encdns/internal/obs"
	"encdns/internal/testutil"
)

// TestWatchOutageDetection is the watchtower acceptance test: a
// continuous campaign over netsim feeds a monitor.Tracker entirely in
// virtual time; a simulated resolver outage must fire the fast-burn
// alert within one probe round and mark the target down, and recovery
// must auto-resolve the alert — all asserted through the public
// /debug/watch and /debug/watch/events surfaces. No wall-clock sleeps:
// the virtual clock advances one interval per round and the scenario is
// driven from the campaign's own Progress callback.
func TestWatchOutageDetection(t *testing.T) {
	clock := netsim.NewVirtualClock(netsim.CampaignEpoch)
	tracker := monitor.New(monitor.Config{Now: netsim.NowFunc(clock), Interval: 10 * time.Second})

	targets := simTargets("dns.google")
	// Determinism: the outage in this scenario is the scripted one, not
	// the model's background failure processes.
	targets[0].Net.FailP = 0
	targets[0].Net.FlakyP = 0
	const watched = "doh:dns.google"

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const (
		outageRound  = 5
		maxRounds    = 60
		phaseOutage  = 0
		phaseRecover = 1
		phaseDone    = 2
	)
	phase := phaseOutage
	firedAtRound, resolvedAtRound := -1, -1
	// Progress runs on the campaign goroutine after each round, so it can
	// mutate the shared target and inspect the tracker without races.
	progress := func(round, _ int) {
		switch phase {
		case phaseOutage:
			if round == outageRound {
				targets[0].Net.Down = true
			}
			if testutil.AlertFiring(tracker.WatchReport(), watched, "fast") {
				firedAtRound = round
				targets[0].Net.Down = false
				phase = phaseRecover
			}
		case phaseRecover:
			if !testutil.AlertFiring(tracker.WatchReport(), watched, "fast") {
				if st, _ := testutil.TargetState(tracker.WatchReport(), watched); st == monitor.StateHealthy.String() {
					resolvedAtRound = round
					phase = phaseDone
					cancel()
				}
			}
		}
		if round >= maxRounds {
			cancel()
		}
	}

	cfg := CampaignConfig{
		Vantages:   []netsim.Vantage{ohioVantage()},
		Targets:    targets,
		Domains:    dataset.Domains,
		Continuous: true,
		Interval:   10 * time.Second,
		Clock:      clock,
		SkipPing:   true,
		Observer:   tracker,
		Progress:   progress,
	}
	prober := &SimProber{Net: netsim.New(netsim.Config{Seed: 1})}
	c, err := NewCampaign(cfg, prober)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx); err != context.Canceled {
		t.Fatalf("continuous run ended with %v, want context.Canceled", err)
	}

	if phase != phaseDone {
		t.Fatalf("scenario incomplete after %d rounds: fired=%d resolved=%d",
			maxRounds, firedAtRound, resolvedAtRound)
	}
	// The fast pair must fire within one round of the outage. Progress
	// reports 1-based rounds after each completes, so Down is set after
	// round 5 and the first all-failure round is round 6: its three
	// failures among 18 probes burn the 1% budget at 16.7 over both the
	// 5m and the 1h window, past the fast pair's ×14.4.
	if firedAtRound != outageRound+1 {
		t.Errorf("fast alert fired at round %d, want %d (within one window of the outage)",
			firedAtRound, outageRound+1)
	}

	// Assert through the serving surface, not tracker internals.
	srv := httptest.NewServer(obs.NewHTTPHandler(obs.NewRegistry(), tracker))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/watch")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.WatchReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/watch not valid JSON: %v", err)
	}
	if len(rep.Targets) != 1 || rep.Targets[0].Target != watched {
		t.Fatalf("watch report targets = %+v, want just %s", rep.Targets, watched)
	}
	wt := rep.Targets[0]
	if wt.State != "healthy" {
		t.Errorf("final state = %q, want healthy after recovery", wt.State)
	}
	if wt.Failures == 0 {
		t.Errorf("windowed failures = 0, outage should still be inside the dashboard window")
	}
	if wt.Errors["connect-failure"] == 0 {
		t.Errorf("error breakdown %v missing the outage's connect failures", wt.Errors)
	}
	if len(wt.Alerts) != 2 || wt.Alerts[0].Window != "fast" || wt.Alerts[0].Firing {
		t.Errorf("alerts = %+v, want a resolved fast alert and the slow one", wt.Alerts)
	}
	if len(wt.Series) == 0 {
		t.Errorf("watch report carries no timeseries")
	}

	resp, err = http.Get(srv.URL + "/debug/watch/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e monitor.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("journal line %q not valid JSON: %v", sc.Text(), err)
		}
		if e.Target == watched || e.Type == monitor.EventConfig {
			types = append(types, e.Type)
		}
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{
		monitor.EventConfig, monitor.EventAlertFire, monitor.EventState,
		monitor.EventAlertResolve,
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("journal %v missing %q", types, want)
		}
	}
}

// TestContinuousRequiresNoRounds pins the validation change: Rounds 0 is
// legal with Continuous, and a continuous run with no sink discards
// records instead of accumulating them.
func TestContinuousRequiresNoRounds(t *testing.T) {
	clock := netsim.NewVirtualClock(netsim.CampaignEpoch)
	rounds := 0
	cfg := CampaignConfig{
		Vantages:   []netsim.Vantage{ohioVantage()},
		Targets:    simTargets("dns.google"),
		Domains:    dataset.Domains[:1],
		Continuous: true,
		Interval:   time.Second,
		Clock:      clock,
		SkipPing:   true,
		Progress:   func(int, int) { rounds++ },
	}
	ctx, cancel := context.WithCancel(context.Background())
	progress := cfg.Progress
	cfg.Progress = func(r, total int) {
		if total != 0 {
			t.Errorf("continuous Progress total = %d, want 0", total)
		}
		progress(r, total)
		if r >= 3 {
			cancel()
		}
	}
	c, err := NewCampaign(cfg, &SimProber{Net: netsim.New(netsim.Config{Seed: 1})})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("run ended with %v, want context.Canceled", err)
	}
	if rounds < 3 {
		t.Fatalf("rounds = %d, want >= 3", rounds)
	}
	if rs.Len() != 0 {
		t.Fatalf("continuous sinkless run retained %d records, want 0", rs.Len())
	}
}
