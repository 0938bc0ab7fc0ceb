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
var DefaultRTTBounds = func() []float64 {
	bounds := make([]float64, 16)
	v := 0.001
	for i := range bounds {
		bounds[i] = v
		v *= 2
	}
	return bounds
}()

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
func (h *Histogram) Observe(v float64) {
	// Linear scan: the bound slice is short (16 for RTTs) and branch
	// prediction makes this cheaper than a binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
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
