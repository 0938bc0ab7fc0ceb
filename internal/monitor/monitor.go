package monitor

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"encdns/internal/obs"
)

// State is a target's health as the watchtower sees it.
type State int

// Health states. Transitions have hysteresis: a target goes Down on
// consecutive failures, but must string together consecutive successes
// (and clear the degraded ratio band) to be Healthy again, so a resolver
// flapping at 50% doesn't flap the state with it.
const (
	StateHealthy State = iota
	StateDegraded
	StateDown
)

// String names the state as the journal and /debug/watch spell it.
func (s State) String() string {
	switch s {
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	}
	return "healthy"
}

// The SLO policy every tracker runs: a 99% availability objective, the
// SRE-workbook burn windows (burnWindows), and production-shaped
// hysteresis.
const (
	// seriesPoints is how many intervals the dashboard timeseries keeps
	// (ten minutes at the default interval). It also sets the window the
	// top-level availability/quantile readings cover.
	seriesPoints = 60
	// objective is the availability SLO; the error budget for burn rates
	// is 1-objective.
	objective = 0.99
	// downAfter is the consecutive-failure count that forces Down;
	// healthyAfter the consecutive-success count required to leave
	// Degraded/Down.
	downAfter    = 3
	healthyAfter = 3
	// degradedRatio is the failure fraction over degradedWindow that
	// demotes Healthy to Degraded; recovery additionally requires the
	// ratio back under degradedRatio/2.
	degradedRatio  = 0.1
	degradedWindow = time.Minute
	// minSamples gates ratio judgements so one early failure cannot mark
	// a target degraded.
	minSamples = 5
	// journalCap bounds the event journal.
	journalCap = 1024
)

// Config parameterises a Tracker. The zero value is usable: it yields
// wall-clock time and 10-second buckets.
type Config struct {
	// Now is the clock; nil uses time.Now. Hand it netsim.NowFunc(clock)
	// and the whole watchtower runs in virtual time.
	Now func() time.Time
	// Interval is the windowed-bucket width (default 10s).
	Interval time.Duration
}

// Tracker-level instruments, shared process-wide like the campaign's.
var (
	monTransitions = obs.Default().Counter("monitor_state_transitions_total",
		"Target health-state transitions recorded by monitor trackers.")
	monAlertsFired = obs.Default().Counter("monitor_alerts_fired_total",
		"Burn-rate alerts that started firing.")
	monAlertsResolved = obs.Default().Counter("monitor_alerts_resolved_total",
		"Burn-rate alerts that cleared.")
	monTargets = obs.Default().Gauge("monitor_targets",
		"Targets currently tracked across monitor trackers.")
)

// Tracker is the watchtower: it ingests probe outcomes and maintains
// per-target windowed availability, latency, error breakdowns, a health
// state machine, and burn-rate alert evaluations. It implements
// core.ProbeObserver (feeding) and obs.WatchSource (serving /debug/watch).
// Safe for concurrent use.
type Tracker struct {
	cfg     Config
	journal *Journal

	mu      sync.Mutex
	targets map[string]*target

	// ring geometry derived from cfg in New
	fineSlots      int
	coarseInterval time.Duration
	coarseSlots    int
}

type target struct {
	name  string
	state State
	since time.Time

	consecFail, consecOK int

	// fine rings (cfg.Interval buckets) back the short burn windows, the
	// degraded ratio, and the dashboard; coarse rings back the long burn
	// windows without holding days of fine buckets.
	okFine, failFine     *obs.WindowedCounter
	okCoarse, failCoarse *obs.WindowedCounter
	rtt                  *obs.WindowedHistogram
	errClasses           map[string]*obs.WindowedCounter

	alerts map[string]*alertState // keyed by burnWindow.name

	stateGauge *obs.Gauge
}

// New builds a Tracker and journals its effective configuration.
func New(cfg Config) *Tracker {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	t := &Tracker{
		cfg:     cfg,
		journal: NewJournal(journalCap),
		targets: make(map[string]*target),
	}
	// The fine ring must cover every short window, the degraded window,
	// and the dashboard span; the coarse ring covers the longest long
	// window at a granularity bounded to ~1k slots.
	fineSpan := max(seriesPoints*cfg.Interval, degradedWindow)
	maxLong := cfg.Interval
	for _, b := range burnWindows {
		fineSpan = max(fineSpan, b.short)
		maxLong = max(maxLong, b.long)
	}
	t.fineSlots = int(fineSpan/cfg.Interval) + 1
	t.coarseInterval = cfg.Interval
	if ci := maxLong / 1024; ci > t.coarseInterval {
		t.coarseInterval = ci
	}
	t.coarseSlots = int(maxLong/t.coarseInterval) + 1
	t.journal.Append(Event{
		Time: t.now(), Type: EventConfig,
		Detail: fmt.Sprintf("interval=%s objective=%g burn-windows=%d down-after=%d healthy-after=%d",
			cfg.Interval, objective, len(burnWindows), downAfter, healthyAfter),
	})
	return t
}

func (t *Tracker) now() time.Time {
	if t.cfg.Now == nil {
		return time.Now()
	}
	return t.cfg.Now()
}

// Journal returns the tracker's event journal.
func (t *Tracker) Journal() *Journal { return t.journal }

// WriteEventsJSONL implements obs.WatchSource.
func (t *Tracker) WriteEventsJSONL(w io.Writer) error { return t.journal.WriteJSONL(w) }

// State reports a target's current health; ok is false for an untracked
// target.
func (t *Tracker) State(name string) (State, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tg, ok := t.targets[name]
	if !ok {
		return StateHealthy, false
	}
	return tg.state, true
}

// getTarget finds or creates a target's tracking state. Callers hold
// t.mu.
func (t *Tracker) getTarget(name string) *target {
	if tg, ok := t.targets[name]; ok {
		return tg
	}
	mk := func() *obs.WindowedCounter {
		c := obs.NewWindowedCounter(t.cfg.Interval, t.fineSlots)
		c.SetNow(t.cfg.Now)
		return c
	}
	mkCoarse := func() *obs.WindowedCounter {
		c := obs.NewWindowedCounter(t.coarseInterval, t.coarseSlots)
		c.SetNow(t.cfg.Now)
		return c
	}
	rtt := obs.NewWindowedHistogram(t.cfg.Interval, seriesPoints+1, nil)
	rtt.SetNow(t.cfg.Now)
	tg := &target{
		name:       name,
		state:      StateHealthy,
		since:      t.now(),
		okFine:     mk(),
		failFine:   mk(),
		okCoarse:   mkCoarse(),
		failCoarse: mkCoarse(),
		rtt:        rtt,
		errClasses: make(map[string]*obs.WindowedCounter),
		alerts:     make(map[string]*alertState, len(burnWindows)),
		stateGauge: obs.Default().Gauge("monitor_state",
			"Target health (0 healthy, 1 degraded, 2 down).", "target", name),
	}
	for _, b := range burnWindows {
		tg.alerts[b.name] = &alertState{}
	}
	t.targets[name] = tg
	monTargets.Inc()
	return tg
}

// ObserveProbe ingests one probe outcome: target health bookkeeping,
// windowed counters, and alert evaluation. rtt is recorded only for
// successful probes (failure durations are timeout artifacts, not
// response times); errClass labels the windowed error breakdown.
// It implements core.ProbeObserver.
func (t *Tracker) ObserveProbe(name string, ok bool, rtt time.Duration, errClass string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tg := t.getTarget(name)
	now := t.now()
	if ok {
		tg.okFine.Inc()
		tg.okCoarse.Inc()
		tg.rtt.ObserveDuration(rtt)
		tg.consecOK++
		tg.consecFail = 0
	} else {
		tg.failFine.Inc()
		tg.failCoarse.Inc()
		tg.consecFail++
		tg.consecOK = 0
		if errClass == "" {
			errClass = "unknown"
		}
		ec, have := tg.errClasses[errClass]
		if !have {
			ec = obs.NewWindowedCounter(t.cfg.Interval, t.fineSlots)
			ec.SetNow(t.cfg.Now)
			tg.errClasses[errClass] = ec
		}
		ec.Inc()
	}
	t.stepState(tg, now)
	t.evaluateAlerts(tg, now)
}

// transition moves a target to next, journaling and instrumenting the
// change. Callers hold t.mu.
func (t *Tracker) transition(tg *target, next State, now time.Time, detail string) {
	if tg.state == next {
		return
	}
	t.journal.Append(Event{
		Time: now, Type: EventState, Target: tg.name,
		From: tg.state.String(), To: next.String(), Detail: detail,
	})
	tg.state = next
	tg.since = now
	tg.stateGauge.Set(int64(next))
	monTransitions.Inc()
}

// stepState runs the hysteresis state machine after one observation.
// Callers hold t.mu.
func (t *Tracker) stepState(tg *target, now time.Time) {
	fails := tg.failFine.SumWindow(degradedWindow)
	total := fails + tg.okFine.SumWindow(degradedWindow)
	ratio := 0.0
	if total > 0 {
		ratio = float64(fails) / float64(total)
	}
	switch {
	case tg.consecFail >= downAfter:
		t.transition(tg, StateDown, now,
			fmt.Sprintf("%d consecutive failures", tg.consecFail))
	case tg.state == StateHealthy:
		if total >= uint64(minSamples) && ratio >= degradedRatio {
			t.transition(tg, StateDegraded, now,
				fmt.Sprintf("failure ratio %.2f over %s", ratio, degradedWindow))
		}
	default: // Degraded or Down: recover only through the hysteresis band
		if tg.consecOK >= healthyAfter && ratio < degradedRatio/2 {
			t.transition(tg, StateHealthy, now,
				fmt.Sprintf("%d consecutive successes, ratio %.2f", tg.consecOK, ratio))
		}
	}
}

// rates returns failures and totals over the trailing window d, picking
// the ring whose span covers it. Callers hold t.mu.
func (t *Tracker) rates(tg *target, d time.Duration) (failures, total uint64) {
	if d <= tg.okFine.Span() {
		failures = tg.failFine.SumWindow(d)
		return failures, failures + tg.okFine.SumWindow(d)
	}
	failures = tg.failCoarse.SumWindow(d)
	return failures, failures + tg.okCoarse.SumWindow(d)
}

// evaluateAlerts re-evaluates every burn window for a target, journaling
// fire/resolve edges. Callers hold t.mu.
func (t *Tracker) evaluateAlerts(tg *target, now time.Time) {
	budget := 1 - objective
	for _, b := range burnWindows {
		as := tg.alerts[b.name]
		failS, totS := t.rates(tg, b.short)
		failL, totL := t.rates(tg, b.long)
		as.burnShort = burnRate(failS, totS, budget)
		as.burnLong = burnRate(failL, totL, budget)
		firing := as.burnShort > b.factor && as.burnLong > b.factor
		if firing == as.firing {
			continue
		}
		as.firing = firing
		as.since = now
		if firing {
			monAlertsFired.Inc()
			t.journal.Append(Event{
				Time: now, Type: EventAlertFire, Target: tg.name, Alert: b.name,
				Detail: fmt.Sprintf("burn %.1f/%.1f over %s/%s exceeds ×%g (objective %g)",
					as.burnShort, as.burnLong, b.short, b.long, b.factor, objective),
			})
		} else {
			monAlertsResolved.Inc()
			t.journal.Append(Event{
				Time: now, Type: EventAlertResolve, Target: tg.name, Alert: b.name,
				Detail: fmt.Sprintf("burn %.1f/%.1f back under ×%g", as.burnShort, as.burnLong, b.factor),
			})
		}
	}
}

// noNaN maps the empty-window NaN quantile onto 0 so reports stay
// JSON-encodable.
func noNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// WatchReport implements obs.WatchSource: the /debug/watch JSON body.
func (t *Tracker) WatchReport() obs.WatchReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	window := time.Duration(seriesPoints) * t.cfg.Interval
	rep := obs.WatchReport{
		Now:          t.now().UTC(),
		WindowSecs:   window.Seconds(),
		IntervalSecs: t.cfg.Interval.Seconds(),
		Targets:      make([]obs.WatchTarget, 0, len(t.targets)),
	}
	names := make([]string, 0, len(t.targets))
	for name := range t.targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tg := t.targets[name]
		fails := tg.failFine.SumWindow(window)
		total := fails + tg.okFine.SumWindow(window)
		avail := 1.0
		if total > 0 {
			avail = float64(total-fails) / float64(total)
		}
		wt := obs.WatchTarget{
			Target:       name,
			State:        tg.state.String(),
			Since:        tg.since.UTC(),
			Samples:      total,
			Failures:     fails,
			Availability: avail,
			P50Ms:        noNaN(tg.rtt.Quantile(0.5, window)) * 1000,
			P95Ms:        noNaN(tg.rtt.Quantile(0.95, window)) * 1000,
			P99Ms:        noNaN(tg.rtt.Quantile(0.99, window)) * 1000,
		}
		for class, c := range tg.errClasses {
			if n := c.SumWindow(window); n > 0 {
				if wt.Errors == nil {
					wt.Errors = make(map[string]uint64)
				}
				wt.Errors[class] = n
			}
		}
		for _, b := range burnWindows {
			as := tg.alerts[b.name]
			wt.Alerts = append(wt.Alerts, obs.WatchAlert{
				Window: b.name, Firing: as.firing, Factor: b.factor,
				BurnShort: noNaN(as.burnShort), BurnLong: noNaN(as.burnLong),
				Since: as.since,
			})
		}
		okB := tg.okFine.Buckets(window)
		failB := tg.failFine.Buckets(window)
		qs := tg.rtt.BucketQuantiles(window, 0.5, 0.95, 0.99)
		n := len(okB)
		if len(qs) < n {
			n = len(qs)
		}
		wt.Series = make([]obs.WatchPoint, 0, n)
		for i := 0; i < n; i++ {
			wt.Series = append(wt.Series, obs.WatchPoint{
				Time:     okB[i].Start,
				Total:    okB[i].Count + failB[i].Count,
				Failures: failB[i].Count,
				P50Ms:    noNaN(qs[i].Q[0]) * 1000,
				P95Ms:    noNaN(qs[i].Q[1]) * 1000,
				P99Ms:    noNaN(qs[i].Q[2]) * 1000,
			})
		}
		rep.Targets = append(rep.Targets, wt)
	}
	return rep
}
