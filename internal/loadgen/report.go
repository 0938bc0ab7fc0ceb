package loadgen

import (
	"fmt"
	"io"
	"time"

	"encdns/internal/report"
)

// Summary is the JSON-friendly digest of a Result.
type Summary struct {
	Mode       string        `json:"mode"`
	Arrivals   string        `json:"arrivals,omitempty"`
	OfferedQPS float64       `json:"offered_qps,omitempty"`
	Workers    int           `json:"workers,omitempty"`
	Duration   float64       `json:"duration_s"`
	Offered    uint64        `json:"offered"`
	Sent       uint64        `json:"sent"`
	Received   uint64        `json:"received"`
	Errors     uint64        `json:"errors"`
	Dropped    uint64        `json:"dropped"`
	ActualQPS  float64       `json:"actual_qps"`
	ErrorRate  float64       `json:"error_rate"`
	P50Ms      float64       `json:"p50_ms"`
	P90Ms      float64       `json:"p90_ms"`
	P99Ms      float64       `json:"p99_ms"`
	P999Ms     float64       `json:"p999_ms"`
	MeanMs     float64       `json:"mean_ms"`
	MaxMs      float64       `json:"max_ms"`
	Timeline   []SecondStats `json:"timeline,omitempty"`
}

// Summarize digests a Result.
func Summarize(res *Result) Summary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	s := Summary{
		Mode:      res.Config.Mode.String(),
		Duration:  res.Elapsed.Seconds(),
		Offered:   res.Offered,
		Sent:      res.Sent,
		Received:  res.Received,
		Errors:    res.Errors,
		Dropped:   res.Dropped,
		ActualQPS: res.ActualQPS(),
		ErrorRate: res.ErrorRate(),
		P50Ms:     ms(res.Latency.Quantile(0.5)),
		P90Ms:     ms(res.Latency.Quantile(0.9)),
		P99Ms:     ms(res.Latency.Quantile(0.99)),
		P999Ms:    ms(res.Latency.Quantile(0.999)),
		MeanMs:    ms(res.Latency.Mean()),
		MaxMs:     ms(res.Latency.Max()),
		Timeline:  res.Timeline,
	}
	if res.Config.Mode == OpenLoop {
		s.Arrivals = res.Config.Arrivals.String()
		s.OfferedQPS = res.Config.Rate
	} else {
		s.Workers = res.Config.Workers
	}
	return s
}

// WriteJSON writes the Result digest (with timeline) as indented JSON.
func WriteJSON(w io.Writer, res *Result) error {
	return report.WriteJSON(w, Summarize(res))
}

// TimelineTable renders the per-second timeline as a report.Table, the
// shared table/CSV surface of the repository.
func TimelineTable(res *Result) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Per-second timeline (%s loop)", res.Config.Mode),
		Headers: []string{"Second", "Sent", "Received", "Errors", "P50 (ms)", "P99 (ms)", "P999 (ms)"},
	}
	for _, s := range res.Timeline {
		t.AddRow(
			fmt.Sprintf("%d", s.Second),
			fmt.Sprintf("%d", s.Sent),
			fmt.Sprintf("%d", s.Received),
			fmt.Sprintf("%d", s.Errors),
			fmt.Sprintf("%.2f", s.P50),
			fmt.Sprintf("%.2f", s.P99),
			fmt.Sprintf("%.2f", s.P999),
		)
	}
	return t
}
