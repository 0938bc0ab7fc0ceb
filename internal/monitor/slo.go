package monitor

import "time"

// burnWindow is one multi-window burn-rate alert rule: the alert fires
// when the error budget is being consumed at more than factor times the
// sustainable rate over BOTH the long window (evidence the problem is
// real) and the short window (evidence it is still happening — this is
// what makes alerts auto-resolve quickly after recovery).
//
// Burn rate is errorRate / (1 - objective): burning at exactly 1.0
// consumes the whole budget over the SLO period; 14.4 over a 1h window
// consumes 2% of a 30-day budget in that hour.
type burnWindow struct {
	name        string // labels the pair in alerts and the journal
	short, long time.Duration
	factor      float64 // the burn-rate threshold both windows must exceed
}

// burnWindows is the two-pair configuration from the SRE workbook: a
// fast pair that pages within minutes of a hard outage and a slow pair
// that catches a simmering budget leak.
var burnWindows = []burnWindow{
	{name: "fast", short: 5 * time.Minute, long: time.Hour, factor: 14.4},
	{name: "slow", short: 6 * time.Hour, long: 3 * 24 * time.Hour, factor: 1},
}

// alertState tracks one (target, burn window) alert across evaluations.
type alertState struct {
	firing bool
	since  time.Time
	// burnShort/burnLong are the most recent evaluation, surfaced in
	// the watch report.
	burnShort, burnLong float64
}

// burnRate is the failure ratio of c over the error budget,
// 1-objective. No samples means no evidence: burn 0.
func burnRate(c counts) float64 {
	if c.ok+c.fail == 0 {
		return 0
	}
	return (float64(c.fail) / float64(c.ok+c.fail)) / (1 - objective)
}
