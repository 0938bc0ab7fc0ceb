package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4): one # HELP/# TYPE header per
// family, then the family's series sorted by label string.
func (r *Registry) WritePrometheus(w io.Writer) {
	var lastFamily string
	for _, m := range r.snapshotMetrics() {
		name, help, typ, labels := m.meta()
		if name != lastFamily {
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
			fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
			lastFamily = name
		}
		switch v := m.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s %d\n", series(name, labels), v.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s %d\n", series(name, labels), v.Value())
		case *GaugeFunc:
			fmt.Fprintf(w, "%s %s\n", series(name, labels), formatFloat(v.Value()))
		case *Histogram:
			cumulative, sum := v.snapshot()
			for i, bound := range v.bounds {
				fmt.Fprintf(w, "%s %d\n", series(name+"_bucket", joinLabels(labels, `le="`+formatFloat(bound)+`"`)), cumulative[i])
			}
			total := cumulative[len(cumulative)-1]
			fmt.Fprintf(w, "%s %d\n", series(name+"_bucket", joinLabels(labels, `le="+Inf"`)), total)
			fmt.Fprintf(w, "%s %s\n", series(name+"_sum", labels), formatFloat(sum))
			fmt.Fprintf(w, "%s %d\n", series(name+"_count", labels), total)
		}
	}
}

// series renders one sample name with its label set.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// joinLabels appends an extra rendered pair to an existing label string.
func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count   uint64           `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []BucketSnapshot `json:"buckets"`
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot returns a JSON-friendly view of the registry, keyed by series
// name (family name plus label set).
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, m := range r.snapshotMetrics() {
		name, _, _, labels := m.meta()
		key := series(name, labels)
		switch v := m.(type) {
		case *Counter:
			out[key] = v.Value()
		case *Gauge:
			out[key] = v.Value()
		case *GaugeFunc:
			out[key] = v.Value()
		case *Histogram:
			cumulative, sum := v.snapshot()
			snap := HistogramSnapshot{Count: cumulative[len(cumulative)-1], Sum: sum}
			for i, bound := range v.bounds {
				snap.Buckets = append(snap.Buckets, BucketSnapshot{LE: bound, Count: cumulative[i]})
			}
			out[key] = snap
		}
	}
	return out
}
