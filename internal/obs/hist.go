package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DefaultRTTBounds are histogram bucket upper bounds (in seconds) tuned
// to DNS round-trip times: exponential from 1 ms to ~33 s, doubling each
// bucket. Sub-millisecond exchanges land in the first bucket; anything
// beyond 32.768 s (far past every timeout in the tree) lands in +Inf.
var DefaultRTTBounds = doubling(0.001, 16)

// ServerBounds are bucket upper bounds for time spent inside a server per
// query: from 1 µs, doubling to ~33.5 s, so answers from memory and ones
// that waited on an upstream land in buckets of their own.
var ServerBounds = doubling(1e-6, 26)

// doubling returns n bounds starting at first, each twice the last.
func doubling(first float64, n int) []float64 {
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = first
		first *= 2
	}
	return bounds
}

// Histogram is a fixed-bucket latency histogram with cumulative
// Prometheus-style rendering. Observe is allocation-free and safe for
// concurrent use: buckets and sum are atomics (the sum is a CAS loop over
// float bits); the count is the cumulative total of the buckets.
type Histogram struct {
	desc
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	sumBits atomic.Uint64
}

// Histogram registers (or retrieves) a histogram. bounds are ascending
// upper bounds in seconds; nil selects DefaultRTTBounds. Re-registration
// keeps the first instrument's bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if bounds == nil {
		bounds = DefaultRTTBounds
	}
	h := &Histogram{
		desc:    newDesc(name, help, "histogram", labels),
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	return r.register(h).(*Histogram)
}

// Observe records one value (in seconds).
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v (in seconds), as n Observe calls
// would: a loop that times a batch with one clock read records its mean.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	// Linear scan: the bound slice is short (16 or 26) and branch
	// prediction makes this cheaper than a binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + add)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Sum returns the sum of observed values (seconds).
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket, and the sum, consistent enough for rendering (buckets are
// read in order; a racing Observe may leave the sum and the counts a
// handful apart, which Prometheus tolerates on scrape).
func (h *Histogram) snapshot() (cumulative []uint64, sum float64) {
	cumulative = make([]uint64, len(h.buckets))
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cumulative[i] = running
	}
	return cumulative, h.Sum()
}
