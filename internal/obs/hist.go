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
// concurrent use: buckets, count, and sum are all atomics (the sum is a
// CAS loop over float bits).
type Histogram struct {
	desc
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
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

// Bounds returns the bucket upper bounds (shared, not a copy — callers
// must not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation inside the containing bucket — the
// HDR-histogram readout. The estimate's relative error is bounded by the
// bucket width around the true value (for the doubling DefaultRTTBounds
// that is a factor of two; series that need tighter tails register finer
// bounds). Returns NaN for an empty histogram; values in the +Inf bucket
// clamp to the last finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	cumulative, _, _ := h.snapshot()
	return quantileFromCumulative(cumulative, h.bounds, q)
}

// quantileFromCumulative interpolates the q-th quantile from cumulative
// bucket counts (len(bounds)+1 entries, the last being +Inf) — shared by
// Histogram and WindowedHistogram.
func quantileFromCumulative(cumulative []uint64, bounds []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic("obs: histogram quantile out of range")
	}
	total := cumulative[len(cumulative)-1]
	if total == 0 {
		return math.NaN()
	}
	// rank is the 1-based position of the target observation.
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	for i, c := range cumulative {
		if float64(c) < rank {
			continue
		}
		if i == len(bounds) {
			// +Inf bucket: no upper edge to interpolate towards.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		var below uint64
		if i > 0 {
			lo = bounds[i-1]
			below = cumulative[i-1]
		}
		width := float64(c - below)
		if width == 0 {
			return bounds[i]
		}
		frac := (rank - float64(below)) / width
		return lo + frac*(bounds[i]-lo)
	}
	return bounds[len(bounds)-1]
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
	h.count.Add(1)
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

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values (seconds).
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket, consistent enough for rendering (buckets are read in
// order; a racing Observe may make the cumulative total lag count by a
// handful, which Prometheus tolerates on scrape).
func (h *Histogram) snapshot() (cumulative []uint64, count uint64, sum float64) {
	cumulative = make([]uint64, len(h.buckets))
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cumulative[i] = running
	}
	return cumulative, h.count.Load(), h.Sum()
}
