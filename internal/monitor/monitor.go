package monitor

import (
	"fmt"
	"io"
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

// Tracker is the watchtower: it ingests probe outcomes and keeps, per
// target, trailing windows of availability, latency and error classes,
// a health state machine, and burn-rate alert evaluations. Each window
// is a ring of per-interval slots; the Tracker steps every ring under
// its one lock with the one clock reading of the call. It implements
// core.ProbeObserver (feeding) and obs.WatchSource (serving
// /debug/watch). Safe for concurrent use.
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

// counts is one interval's probe outcomes.
type counts struct{ ok, fail uint64 }

// detail is one interval of the report window: the RTTs of successful
// probes, counted over obs.DefaultRTTBounds plus +Inf, and the failures
// by error class.
type detail struct {
	rtt    []uint64
	errors map[string]uint64
}

type target struct {
	name  string
	state State
	since time.Time

	consecFail, consecOK int

	// fine (cfg.Interval slots) backs the short burn windows, the
	// degraded ratio and the report; coarse backs the long burn windows
	// without holding days of fine slots; recent holds the report
	// window's latency and error detail.
	fine, coarse ring[counts]
	recent       ring[detail]

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
	t.coarseInterval = max(cfg.Interval, maxLong/1024)
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

// getTarget finds or creates a target's tracking state. Callers hold
// t.mu.
func (t *Tracker) getTarget(name string, now time.Time) *target {
	if tg, ok := t.targets[name]; ok {
		return tg
	}
	tg := &target{
		name:   name,
		state:  StateHealthy,
		since:  now,
		fine:   newRing[counts](t.cfg.Interval, t.fineSlots),
		coarse: newRing[counts](t.coarseInterval, t.coarseSlots),
		recent: newRing[detail](t.cfg.Interval, seriesPoints+1),
		alerts: make(map[string]*alertState, len(burnWindows)),
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
// windowed counts, and alert evaluation. rtt is recorded only for
// successful probes (failure durations are timeout artifacts, not
// response times); errClass labels the windowed error breakdown.
// It implements core.ProbeObserver.
func (t *Tracker) ObserveProbe(name string, ok bool, rtt time.Duration, errClass string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	tg := t.getTarget(name, now)
	fine, coarse, d := tg.fine.at(now), tg.coarse.at(now), tg.recent.at(now)
	if ok {
		fine.ok++
		coarse.ok++
		if d.rtt == nil {
			d.rtt = make([]uint64, len(obs.DefaultRTTBounds)+1)
		}
		d.rtt[sort.SearchFloat64s(obs.DefaultRTTBounds, rtt.Seconds())]++
		tg.consecOK++
		tg.consecFail = 0
	} else {
		fine.fail++
		coarse.fail++
		tg.consecFail++
		tg.consecOK = 0
		if errClass == "" {
			errClass = "unknown"
		}
		if d.errors == nil {
			d.errors = make(map[string]uint64)
		}
		d.errors[errClass]++
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
	c := sum(&tg.fine, now, degradedWindow)
	total := c.ok + c.fail
	ratio := 0.0
	if total > 0 {
		ratio = float64(c.fail) / float64(total)
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

// sum totals a counts ring over the trailing window d.
func sum(r *ring[counts], now time.Time, d time.Duration) (c counts) {
	r.each(now, d, func(_ time.Time, s *counts) {
		if s != nil {
			c.ok += s.ok
			c.fail += s.fail
		}
	})
	return c
}

// rates returns a target's counts over the trailing window d, from the
// fine ring when its span covers d and the coarse one otherwise.
func rates(tg *target, now time.Time, d time.Duration) counts {
	if d <= tg.fine.span() {
		return sum(&tg.fine, now, d)
	}
	return sum(&tg.coarse, now, d)
}

// evaluateAlerts re-evaluates every burn window for a target, journaling
// fire/resolve edges. Callers hold t.mu.
func (t *Tracker) evaluateAlerts(tg *target, now time.Time) {
	for _, b := range burnWindows {
		as := tg.alerts[b.name]
		as.burnShort = burnRate(rates(tg, now, b.short))
		as.burnLong = burnRate(rates(tg, now, b.long))
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

// quantilesMs reads p50, p95 and p99 in milliseconds off RTT bucket
// counts; all zero when there are none.
func quantilesMs(rtt []uint64) (p50, p95, p99 float64) {
	q := func(q float64) float64 { return quantile(obs.DefaultRTTBounds, rtt, q) * 1000 }
	return q(0.5), q(0.95), q(0.99)
}

// WatchReport implements obs.WatchSource: the /debug/watch JSON body.
func (t *Tracker) WatchReport() obs.WatchReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	window := time.Duration(seriesPoints) * t.cfg.Interval
	rep := obs.WatchReport{
		Now:          now.UTC(),
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
		wt := obs.WatchTarget{
			Target: name,
			State:  tg.state.String(),
			Since:  tg.since.UTC(),
			Series: make([]obs.WatchPoint, 0, seriesPoints),
		}
		tg.fine.each(now, window, func(start time.Time, c *counts) {
			p := obs.WatchPoint{Time: start}
			if c != nil {
				p.Total, p.Failures = c.ok+c.fail, c.fail
				wt.Samples += p.Total
				wt.Failures += p.Failures
			}
			wt.Series = append(wt.Series, p)
		})
		wt.Availability = 1
		if wt.Samples > 0 {
			wt.Availability = float64(wt.Samples-wt.Failures) / float64(wt.Samples)
		}
		rtt := make([]uint64, len(obs.DefaultRTTBounds)+1)
		i := 0
		tg.recent.each(now, window, func(_ time.Time, d *detail) {
			p := &wt.Series[i]
			i++
			if d == nil {
				return
			}
			for j, n := range d.rtt {
				rtt[j] += n
			}
			p.P50Ms, p.P95Ms, p.P99Ms = quantilesMs(d.rtt)
			for class, n := range d.errors {
				if wt.Errors == nil {
					wt.Errors = make(map[string]uint64)
				}
				wt.Errors[class] += n
			}
		})
		wt.P50Ms, wt.P95Ms, wt.P99Ms = quantilesMs(rtt)
		for _, b := range burnWindows {
			as := tg.alerts[b.name]
			wt.Alerts = append(wt.Alerts, obs.WatchAlert{
				Window: b.name, Firing: as.firing, Factor: b.factor,
				BurnShort: as.burnShort, BurnLong: as.burnLong,
				Since: as.since,
			})
		}
		rep.Targets = append(rep.Targets, wt)
	}
	return rep
}
