package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format byte for byte.
// Every observed value is an exact binary fraction so the float
// rendering is deterministic.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_counter", "Things counted.", "scheme", "udp")
	c.Add(3)
	g := r.Gauge("t_gauge", "Current things.")
	g.Set(2)
	h := r.Histogram("t_hist", "Latency.", []float64{0.001, 0.01})
	h.Observe(0.0009765625) // 2^-10
	h.Observe(0.0078125)    // 2^-7
	h.Observe(0.25)

	want := strings.Join([]string{
		"# HELP t_counter Things counted.",
		"# TYPE t_counter counter",
		`t_counter{scheme="udp"} 3`,
		"# HELP t_gauge Current things.",
		"# TYPE t_gauge gauge",
		"t_gauge 2",
		"# HELP t_hist Latency.",
		"# TYPE t_hist histogram",
		`t_hist_bucket{le="0.001"} 1`,
		`t_hist_bucket{le="0.01"} 2`,
		`t_hist_bucket{le="+Inf"} 3`,
		"t_hist_sum 0.2587890625",
		"t_hist_count 3",
		"",
	}, "\n")

	var b strings.Builder
	r.WritePrometheus(&b)
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusOneHeaderPerFamily: labelled series of one family
// share a single HELP/TYPE header.
func TestWritePrometheusOneHeaderPerFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("fam_total", "A family.", "scheme", "tcp").Inc()
	r.Counter("fam_total", "A family.", "scheme", "udp").Add(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if n := strings.Count(out, "# HELP fam_total"); n != 1 {
		t.Errorf("HELP appears %d times, want 1:\n%s", n, out)
	}
	// Series sort by label string within the family.
	tcp := strings.Index(out, `fam_total{scheme="tcp"} 1`)
	udp := strings.Index(out, `fam_total{scheme="udp"} 2`)
	if tcp < 0 || udp < 0 || tcp > udp {
		t.Errorf("labelled series missing or misordered:\n%s", out)
	}
}

// TestWritePrometheusConformance pins label-value escaping and name
// sanitization against the exposition-format spec: label values escape
// exactly backslash, double-quote, and newline (NOT tabs or other Go %q
// escapes), metric names collapse invalid runes to '_', and label names
// may not contain colons.
func TestWritePrometheusConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "Escaping.", "path", `C:\dns "cache"`).Add(1)
	r.Counter("esc_total", "Escaping.", "q", "line1\nline2").Add(2)
	r.Counter("esc_total", "Escaping.", "name", "солвер.example").Add(3)
	// Invalid metric name runes collapse to '_'; a leading digit gets a
	// '_' prefix; colons are legal in metric names but not label names.
	r.Counter("dns.query-count", "Dots and dashes.").Add(4)
	r.Counter("7seconds", "Leading digit.").Add(5)
	r.Counter("ns:esc_total2", "Colons.", "a:b", "v").Add(6)

	want := strings.Join([]string{
		"# HELP _7seconds Leading digit.",
		"# TYPE _7seconds counter",
		"_7seconds 5",
		"# HELP dns_query_count Dots and dashes.",
		"# TYPE dns_query_count counter",
		"dns_query_count 4",
		"# HELP esc_total Escaping.",
		"# TYPE esc_total counter",
		`esc_total{name="солвер.example"} 3`,
		`esc_total{path="C:\\dns \"cache\""} 1`,
		`esc_total{q="line1\nline2"} 2`,
		"# HELP ns:esc_total2 Colons.",
		"# TYPE ns:esc_total2 counter",
		`ns:esc_total2{a_b="v"} 6`,
		"",
	}, "\n")

	var b strings.Builder
	r.WritePrometheus(&b)
	if got := b.String(); got != want {
		t.Errorf("conformance mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_total", "help").Add(7)
	h := r.Histogram("snap_seconds", "help", []float64{0.5})
	h.Observe(0.25)
	h.Observe(1)
	snap := r.Snapshot()
	if got := snap["snap_total"]; got != uint64(7) {
		t.Errorf("snap_total = %v, want 7", got)
	}
	hs, ok := snap["snap_seconds"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("snap_seconds is %T, want HistogramSnapshot", snap["snap_seconds"])
	}
	if hs.Count != 2 || hs.Sum != 1.25 {
		t.Errorf("histogram snapshot = %+v, want count 2 sum 1.25", hs)
	}
	if len(hs.Buckets) != 1 || hs.Buckets[0].Count != 1 || hs.Buckets[0].LE != 0.5 {
		t.Errorf("buckets = %+v, want one bucket le=0.5 count=1", hs.Buckets)
	}
}
