package obs

import (
	"io"
	"time"
)

// The /debug/watch surface: a JSON timeseries API plus a dependency-free
// HTML dashboard over it. The report types live here (the bottom layer)
// so internal/monitor can produce them without an import cycle; the
// handler in internal/obshttp serves whatever WatchSource it is given.

// WatchSource produces the live watch report and streams the structured
// event journal (state transitions, alert fire/resolve) as JSON Lines —
// implemented by monitor.Tracker.
type WatchSource interface {
	WatchReport() WatchReport
	WriteEventsJSONL(w io.Writer) error
}

// WatchReport is the /debug/watch JSON document: one entry per tracked
// target with windowed availability, latency quantiles, error breakdown,
// SLO alert states, and a per-interval timeseries.
type WatchReport struct {
	// Now is the clock the readings were taken at (virtual under netsim).
	Now time.Time `json:"now"`
	// WindowSecs is the trailing window the top-level readings cover.
	WindowSecs float64 `json:"window_secs"`
	// IntervalSecs is the bucket width of the Series points.
	IntervalSecs float64 `json:"interval_secs"`
	// Targets is sorted by target name.
	Targets []WatchTarget `json:"targets"`
}

// WatchTarget is one resolver's windowed view.
type WatchTarget struct {
	Target string `json:"target"`
	// State is "healthy", "degraded", or "down".
	State string    `json:"state"`
	Since time.Time `json:"since"`
	// Samples and Failures count probes inside the window.
	Samples  uint64 `json:"samples"`
	Failures uint64 `json:"failures"`
	// Availability is the success fraction over the window (1 when the
	// window holds no samples yet).
	Availability float64 `json:"availability"`
	// Windowed latency quantiles over successful probes, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Errors is the windowed per-error-class breakdown.
	Errors map[string]uint64 `json:"errors,omitempty"`
	// Alerts is the burn-rate alert state per configured window pair.
	Alerts []WatchAlert `json:"alerts,omitempty"`
	// Series is the per-interval timeseries, oldest first.
	Series []WatchPoint `json:"series,omitempty"`
}

// WatchAlert is one multi-window burn-rate evaluation.
type WatchAlert struct {
	// Window names the burn pair ("fast", "slow").
	Window string `json:"window"`
	Firing bool   `json:"firing"`
	// BurnShort and BurnLong are the current burn rates (error rate over
	// the error budget) in the short and long windows.
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	// Factor is the threshold both burns must exceed to fire.
	Factor float64 `json:"factor"`
	// Since is when the alert last changed state (fired or resolved).
	Since time.Time `json:"since,omitzero"`
}

// WatchPoint is one interval of a target's timeseries.
type WatchPoint struct {
	Time     time.Time `json:"ts"`
	Total    uint64    `json:"total"`
	Failures uint64    `json:"failures"`
	P50Ms    float64   `json:"p50_ms"`
	P95Ms    float64   `json:"p95_ms"`
	P99Ms    float64   `json:"p99_ms"`
}
