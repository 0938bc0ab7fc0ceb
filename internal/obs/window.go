package obs

import (
	"math"
	"sync"
	"time"
)

// Windowed instruments are the time-aware half of the registry: where a
// Counter or Histogram accumulates since process start, the windowed
// variants keep a ring of per-interval buckets so readings answer "what
// happened over the last N minutes" instead of "what happened ever".
// That distinction is the paper's whole premise — availability is a
// property of a time window, and a resolver that goes dark for ten
// minutes mid-campaign is invisible in a cumulative p99 but obvious in a
// windowed one (TestWindowedVsCumulativeDivergence pins this).
//
// Both types are clock-injectable via SetNow so netsim virtual time
// drives them deterministically. They are not registry instruments:
// monitor.Tracker owns one set per target and reports them on
// /debug/watch.

// WindowBucket is one interval's worth of a windowed counter, for
// timeseries readouts (/debug/watch).
type WindowBucket struct {
	// Start is the beginning of the interval.
	Start time.Time `json:"ts"`
	// Count is the number of events recorded in the interval.
	Count uint64 `json:"count"`
}

// counterSlot is one ring cell: the interval epoch it currently holds
// and the count recorded during it. A slot whose epoch has fallen out of
// the span is dead weight until the ring wraps back onto it.
type counterSlot struct {
	epoch int64
	count uint64
}

// WindowedCounter counts events into a ring of fixed intervals. The
// zero value is unusable; use NewWindowedCounter. All methods are safe
// for concurrent use (one mutex — windowed instruments sit on probe-rate
// paths, not the packet hot path).
type WindowedCounter struct {
	mu       mutexNow
	interval time.Duration
	slots    []counterSlot
}

// mutexNow bundles the lock with the injectable clock every windowed
// instrument needs.
type mutexNow struct {
	sync.Mutex
	now func() time.Time
}

func (m *mutexNow) clock() time.Time {
	if m.now == nil {
		return time.Now()
	}
	return m.now()
}

// NewWindowedCounter builds a standalone windowed counter with the given
// bucket interval and slot count (span = interval × slots). interval
// must be positive; slots must be at least 1.
func NewWindowedCounter(interval time.Duration, slots int) *WindowedCounter {
	if interval <= 0 {
		panic("obs: windowed counter needs a positive interval")
	}
	if slots < 1 {
		panic("obs: windowed counter needs at least one slot")
	}
	return &WindowedCounter{
		interval: interval,
		slots:    make([]counterSlot, slots),
	}
}

// SetNow injects the clock; nil restores time.Now. Call before the first
// observation — swapping clocks mid-stream mixes epochs.
func (w *WindowedCounter) SetNow(now func() time.Time) {
	w.mu.Lock()
	w.mu.now = now
	w.mu.Unlock()
}

// Span returns the total observable window (interval × slots).
func (w *WindowedCounter) Span() time.Duration {
	return w.interval * time.Duration(len(w.slots))
}

// epochOf maps an instant to its interval index since the epoch.
func epochOf(t time.Time, interval time.Duration) int64 {
	return t.UnixNano() / int64(interval)
}

// slotFor returns the live slot for epoch e, resetting it if the ring
// has wrapped since it last held e. Callers hold the lock.
func (w *WindowedCounter) slotFor(e int64) *counterSlot {
	s := &w.slots[int(e%int64(len(w.slots)))]
	if s.epoch != e {
		s.epoch = e
		s.count = 0
	}
	return s
}

// Inc adds one to the current interval.
func (w *WindowedCounter) Inc() { w.Add(1) }

// Add adds n to the current interval.
func (w *WindowedCounter) Add(n uint64) {
	w.mu.Lock()
	w.slotFor(epochOf(w.mu.clock(), w.interval)).count += n
	w.mu.Unlock()
}

// SumWindow returns the count over the trailing window d (including the
// current, partially filled interval). d is clamped to [interval, span].
func (w *WindowedCounter) SumWindow(d time.Duration) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	nowE := epochOf(w.mu.clock(), w.interval)
	k := intervalsIn(d, w.interval, len(w.slots))
	var total uint64
	for i := range w.slots {
		if e := w.slots[i].epoch; e > nowE-int64(k) && e <= nowE {
			total += w.slots[i].count
		}
	}
	return total
}

// Buckets returns the per-interval counts for the trailing window d,
// oldest first, one entry per interval (empty intervals included) — the
// timeseries the dashboard plots.
func (w *WindowedCounter) Buckets(d time.Duration) []WindowBucket {
	w.mu.Lock()
	defer w.mu.Unlock()
	nowE := epochOf(w.mu.clock(), w.interval)
	k := intervalsIn(d, w.interval, len(w.slots))
	out := make([]WindowBucket, 0, k)
	for e := nowE - int64(k) + 1; e <= nowE; e++ {
		b := WindowBucket{Start: time.Unix(0, e*int64(w.interval)).UTC()}
		s := &w.slots[int(e%int64(len(w.slots)))]
		if s.epoch == e {
			b.Count = s.count
		}
		out = append(out, b)
	}
	return out
}

// intervalsIn converts a trailing window into a whole interval count,
// clamped to [1, slots].
func intervalsIn(d, interval time.Duration, slots int) int {
	k := int((d + interval - 1) / interval)
	if k < 1 {
		k = 1
	}
	if k > slots {
		k = slots
	}
	return k
}

// histSlot is one ring cell of a windowed histogram.
type histSlot struct {
	epoch   int64
	buckets []uint64 // one per bound, plus +Inf
	count   uint64
}

// WindowedHistogram observes values into a ring of per-interval
// fixed-bucket histograms, answering quantile queries over any trailing
// window up to the span. The zero value is unusable; use
// NewWindowedHistogram.
type WindowedHistogram struct {
	mu       mutexNow
	interval time.Duration
	bounds   []float64
	slots    []histSlot
}

// NewWindowedHistogram builds a standalone windowed histogram. bounds
// are ascending upper bounds in seconds; nil selects DefaultRTTBounds.
func NewWindowedHistogram(interval time.Duration, slots int, bounds []float64) *WindowedHistogram {
	if interval <= 0 {
		panic("obs: windowed histogram needs a positive interval")
	}
	if slots < 1 {
		panic("obs: windowed histogram needs at least one slot")
	}
	if bounds == nil {
		bounds = DefaultRTTBounds
	}
	return &WindowedHistogram{
		interval: interval,
		bounds:   bounds,
		slots:    make([]histSlot, slots),
	}
}

// SetNow injects the clock; nil restores time.Now.
func (w *WindowedHistogram) SetNow(now func() time.Time) {
	w.mu.Lock()
	w.mu.now = now
	w.mu.Unlock()
}

// Observe records one value (in seconds) into the current interval.
func (w *WindowedHistogram) Observe(v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := epochOf(w.mu.clock(), w.interval)
	s := &w.slots[int(e%int64(len(w.slots)))]
	if s.epoch != e || s.buckets == nil {
		s.epoch = e
		s.count = 0
		if s.buckets == nil {
			s.buckets = make([]uint64, len(w.bounds)+1)
		} else {
			clear(s.buckets)
		}
	}
	i := 0
	for i < len(w.bounds) && v > w.bounds[i] {
		i++
	}
	s.buckets[i]++
	s.count++
}

// ObserveDuration records one duration into the current interval.
func (w *WindowedHistogram) ObserveDuration(d time.Duration) { w.Observe(d.Seconds()) }

// windowMerge returns cumulative bucket counts over the trailing window
// d. Callers hold the lock.
func (w *WindowedHistogram) windowMerge(d time.Duration) []uint64 {
	nowE := epochOf(w.mu.clock(), w.interval)
	k := intervalsIn(d, w.interval, len(w.slots))
	merged := make([]uint64, len(w.bounds)+1)
	for i := range w.slots {
		s := &w.slots[i]
		if s.epoch > nowE-int64(k) && s.epoch <= nowE && s.buckets != nil {
			for j, n := range s.buckets {
				merged[j] += n
			}
		}
	}
	var running uint64
	for i := range merged {
		running += merged[i]
		merged[i] = running
	}
	return merged
}

// Quantile estimates the q-th quantile over the trailing window d by
// bucket interpolation (quantileFromCumulative). NaN when the window is
// empty.
func (w *WindowedHistogram) Quantile(q float64, d time.Duration) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return quantileFromCumulative(w.windowMerge(d), w.bounds, q)
}

// WindowQuantiles is one interval's latency readout for timeseries
// plotting: the interval start, its observation count, and the requested
// quantiles (NaN-free: empty intervals report zeros).
type WindowQuantiles struct {
	Start time.Time `json:"ts"`
	Count uint64    `json:"count"`
	Q     []float64 `json:"q"`
}

// BucketQuantiles returns per-interval quantile estimates for the
// trailing window d, oldest first, one entry per interval. qs are the
// quantiles evaluated per interval; empty intervals report zero values.
func (w *WindowedHistogram) BucketQuantiles(d time.Duration, qs ...float64) []WindowQuantiles {
	w.mu.Lock()
	defer w.mu.Unlock()
	nowE := epochOf(w.mu.clock(), w.interval)
	k := intervalsIn(d, w.interval, len(w.slots))
	out := make([]WindowQuantiles, 0, k)
	cumulative := make([]uint64, len(w.bounds)+1)
	for e := nowE - int64(k) + 1; e <= nowE; e++ {
		wq := WindowQuantiles{Start: time.Unix(0, e*int64(w.interval)).UTC(), Q: make([]float64, len(qs))}
		s := &w.slots[int(e%int64(len(w.slots)))]
		if s.epoch == e && s.count > 0 {
			wq.Count = s.count
			var running uint64
			for i, n := range s.buckets {
				running += n
				cumulative[i] = running
			}
			for i, q := range qs {
				wq.Q[i] = quantileFromCumulative(cumulative, w.bounds, q)
			}
		}
		out = append(out, wq)
	}
	return out
}

// quantileFromCumulative estimates the q-th quantile (0 <= q <= 1) from
// cumulative bucket counts (len(bounds)+1 entries, the last being +Inf) by
// linear interpolation inside the containing bucket — the HDR-histogram
// readout. The estimate's relative error is bounded by the bucket width
// around the true value (for the doubling DefaultRTTBounds that is a
// factor of two). Returns NaN when the counts are all zero; values in the
// +Inf bucket clamp to the last finite bound.
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
