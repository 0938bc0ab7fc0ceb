// Package obs is the observability substrate of the reproduction: a
// dependency-free metrics core (atomic counters, gauges and fixed-bucket
// latency histograms) held in a named Registry, a per-query Trace that
// records attempt-level spans (dial, TLS handshake, write, first byte,
// total) propagated via context.Context through the transport
// middleware. Logging is log/slog's.
//
// The paper's contribution is latency/availability *measurement*; obs
// makes the reproduction itself measurable. The decomposition it records
// (connect vs handshake vs exchange, retry counts, cache
// behaviour) is exactly what "Can Encrypted DNS Be Fast?" (Hounsel et
// al.) and "An Empirical Study of the Cost of DNS-over-HTTPS" (Böttger
// et al.) show is needed to explain DoH/DoT latency.
//
// The record hot path (Counter.Inc, Gauge.Add, Histogram.Observe) is
// allocation-free; handles are registered once at package init and
// shared process-wide through Default(). The registry renders itself in
// Prometheus text format (WritePrometheus) and as a JSON snapshot
// (Snapshot); internal/obshttp mounts both under /metrics and /debug/obs.
// obs itself imports no network code, so the simulation can link it.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is the common surface of every registered instrument.
type metric interface {
	// meta returns the family descriptor and the rendered label pairs
	// (`k="v",k2="v2"`, empty for an unlabelled metric).
	meta() (name, help, typ, labels string)
}

// desc is the shared descriptor embedded in every instrument.
type desc struct {
	name   string
	help   string
	typ    string
	labels string
}

func (d *desc) meta() (string, string, string, string) {
	return d.name, d.help, d.typ, d.labels
}

// Registry holds named instruments. The zero value is not usable; use
// NewRegistry or the process-wide Default.
type Registry struct {
	mu      sync.RWMutex
	byKey   map[string]metric
	ordered []metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the transport,
// resolver, server, and campaign layers register into.
func Default() *Registry { return defaultRegistry }

// labelString renders alternating key, value pairs as `k="v",k2="v2"`.
// It panics on an odd pair count — labels are always literals at
// registration sites, so this is a programming error, not input. Label
// names are sanitized to the Prometheus grammar and values escaped per
// the text exposition format, so a resolver hostname (or any other
// external string) is always legal as a label value.
func labelString(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelName(pairs[i]))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// newDesc builds the shared descriptor, sanitizing the metric name and
// rendering the label pairs. Every registration funnels through here so
// invalid names cannot reach a scrape.
func newDesc(name, help, typ string, labels []string) desc {
	return desc{name: sanitizeMetricName(name), help: help, typ: typ, labels: labelString(labels)}
}

// sanitizeMetricName maps an arbitrary string onto the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*: invalid runes become '_', a
// leading digit gains a '_' prefix, and the empty string becomes "_".
func sanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	valid := func(r rune, first bool) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			return true
		case r >= '0' && r <= '9':
			return !first
		}
		return false
	}
	clean := true
	for i, r := range name {
		if !valid(r, i == 0) {
			clean = false
			break
		}
	}
	if clean {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		switch {
		case valid(r, false):
			if i == 0 && !valid(r, true) {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName maps an arbitrary string onto the label name grammar
// [a-zA-Z_][a-zA-Z0-9_]* (no colons, unlike metric names).
func sanitizeLabelName(name string) string {
	s := strings.ReplaceAll(sanitizeMetricName(name), ":", "_")
	if s[0] >= '0' && s[0] <= '9' {
		s = "_" + s
	}
	return s
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote, and newline only. All
// other bytes — including tabs and multi-byte UTF-8 — pass through raw,
// which is what conforming parsers expect (unlike %q, which invents Go
// escapes the format does not define).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// register adds m under its name+labels key, returning the existing
// instrument when one is already registered under the same key. It
// panics when the existing instrument has a different type — two
// packages claiming one name as both counter and gauge is a bug.
func (r *Registry) register(m metric) metric {
	name, _, typ, labels := m.meta()
	key := name + "{" + labels + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[key]; ok {
		_, _, oldTyp, _ := old.meta()
		if oldTyp != typ {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", key, typ, oldTyp))
		}
		return old
	}
	r.byKey[key] = m
	r.ordered = append(r.ordered, m)
	return m
}

// snapshotMetrics returns the instruments grouped by family, families
// sorted by name and members by label string.
func (r *Registry) snapshotMetrics() []metric {
	r.mu.RLock()
	out := make([]metric, len(r.ordered))
	copy(out, r.ordered)
	r.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		ni, _, _, li := out[i].meta()
		nj, _, _, lj := out[j].meta()
		if ni != nj {
			return ni < nj
		}
		return li < lj
	})
	return out
}

// Counter is a monotonically increasing counter. Inc and Add are
// allocation-free and safe for concurrent use.
type Counter struct {
	desc
	v atomic.Uint64
}

// Counter registers (or retrieves) a counter named name with optional
// alternating label key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	c := &Counter{desc: newDesc(name, help, "counter", labels)}
	return r.register(c).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer gauge. All methods are allocation-free and safe
// for concurrent use.
type Gauge struct {
	desc
	v atomic.Int64
}

// Gauge registers (or retrieves) a gauge named name with optional
// alternating label key, value pairs.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	g := &Gauge{desc: newDesc(name, help, "gauge", labels)}
	return r.register(g).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time — the
// shape for "current entries" style readings owned by another structure.
type GaugeFunc struct {
	desc
	fn func() float64
}

// GaugeFunc registers a computed gauge. Re-registering the same name
// keeps the first function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) *GaugeFunc {
	g := &GaugeFunc{desc: newDesc(name, help, "gauge", labels), fn: fn}
	return r.register(g).(*GaugeFunc)
}

// Value computes the current value.
func (g *GaugeFunc) Value() float64 { return g.fn() }
