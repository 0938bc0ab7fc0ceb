package obs

import (
	"math"
	"testing"
	"time"
)

// fakeClock is a manually stepped clock for windowed-instrument tests
// (the netsim virtual clock lives above obs in the import graph).
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time       { return f.now }
func (f *fakeClock) step(d time.Duration) { f.now = f.now.Add(d) }
func newFakeClock() *fakeClock {
	// Aligned start so tests reason in whole buckets.
	return &fakeClock{now: time.Date(2023, 9, 19, 0, 0, 0, 0, time.UTC)}
}

func TestWindowedCounterRotationAndExpiry(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedCounter(10*time.Second, 6) // span 1m
	w.SetNow(clk.Now)

	w.Add(5)
	clk.step(10 * time.Second)
	w.Add(3)
	if got := w.SumWindow(w.Span()); got != 8 {
		t.Fatalf("SumWindow(span)=%d, want 8", got)
	}
	if got := w.SumWindow(10 * time.Second); got != 3 {
		t.Fatalf("SumWindow(10s)=%d, want only the current bucket", got)
	}

	// Advance past the span: everything expires, even though the ring
	// slots still physically hold the old counts.
	clk.step(2 * time.Minute)
	if got := w.SumWindow(w.Span()); got != 0 {
		t.Fatalf("SumWindow(span)=%d after span elapsed, want 0", got)
	}

	// The ring wraps onto stale slots and resets them.
	w.Add(2)
	if got := w.SumWindow(w.Span()); got != 2 {
		t.Fatalf("SumWindow(span)=%d after wrap, want 2", got)
	}
}

func TestWindowedCounterBuckets(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedCounter(time.Second, 5)
	w.SetNow(clk.Now)
	w.Add(1)
	clk.step(time.Second)
	w.Add(2)
	clk.step(time.Second) // current bucket left empty

	got := w.Buckets(3 * time.Second)
	if len(got) != 3 {
		t.Fatalf("buckets=%d, want 3", len(got))
	}
	if got[0].Count != 1 || got[1].Count != 2 || got[2].Count != 0 {
		t.Fatalf("bucket counts = %d,%d,%d, want 1,2,0", got[0].Count, got[1].Count, got[2].Count)
	}
	if !got[1].Start.Equal(got[0].Start.Add(time.Second)) {
		t.Fatalf("bucket starts not contiguous: %v then %v", got[0].Start, got[1].Start)
	}
}

func TestWindowedHistogramQuantileWindows(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram(time.Minute, 10, nil)
	w.SetNow(clk.Now)

	// Minute 0: fast responses. Minute 1: slow ones.
	for i := 0; i < 100; i++ {
		w.Observe(0.02)
	}
	clk.step(time.Minute)
	for i := 0; i < 100; i++ {
		w.Observe(0.8)
	}

	if p := w.Quantile(0.5, time.Minute); p < 0.5 {
		t.Fatalf("p50 over current minute = %v, want slow (~0.8)", p)
	}
	if p := w.Quantile(0.5, 10*time.Minute); p > 0.5 {
		t.Fatalf("p50 over full span = %v, want mixed median below 0.5", p)
	}

	// Empty window → NaN, by contract.
	clk.step(time.Hour)
	if p := w.Quantile(0.99, time.Minute); !math.IsNaN(p) {
		t.Fatalf("quantile over empty window = %v, want NaN", p)
	}
}

func TestBucketQuantiles(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram(time.Second, 4, []float64{0.01, 0.1, 1})
	w.SetNow(clk.Now)
	w.Observe(0.005)
	clk.step(time.Second)
	w.Observe(0.5)
	w.Observe(0.5)

	got := w.BucketQuantiles(2*time.Second, 0.5, 0.99)
	if len(got) != 2 {
		t.Fatalf("intervals=%d, want 2", len(got))
	}
	if got[0].Count != 1 || got[0].Q[0] > 0.01 {
		t.Fatalf("interval 0 = %+v, want count 1, p50<=0.01", got[0])
	}
	if got[1].Count != 2 || got[1].Q[0] < 0.1 {
		t.Fatalf("interval 1 = %+v, want count 2, p50 in (0.1,1]", got[1])
	}
}

// TestWindowedVsCumulativeDivergence pins the premise of the whole
// windowed layer: a mid-run stall that is invisible in a cumulative p99
// is unmissable in a windowed one. One probe per second for an hour at
// 20ms, then a 30-probe stall at 5s: the stall is 0.8% of the cumulative
// distribution (under the p99 threshold) but 10% of the trailing five
// minutes.
func TestWindowedVsCumulativeDivergence(t *testing.T) {
	clk := newFakeClock()
	cum := NewRegistry().Histogram("cum_seconds", "help", nil)
	win := NewWindowedHistogram(10*time.Second, 30, nil) // span 5m
	win.SetNow(clk.Now)

	observe := func(v float64) {
		cum.Observe(v)
		win.Observe(v)
		clk.step(time.Second)
	}
	for i := 0; i < 3600; i++ {
		observe(0.02)
	}
	for i := 0; i < 30; i++ {
		observe(5.0)
	}

	cumulative, _ := cum.snapshot()
	cumP99 := quantileFromCumulative(cumulative, cum.bounds, 0.99)
	winP99 := win.Quantile(0.99, 5*time.Minute)
	if cumP99 >= 0.1 {
		t.Fatalf("cumulative p99 = %vs — the stall should be hidden below 0.1s", cumP99)
	}
	if winP99 <= 1 {
		t.Fatalf("windowed p99 = %vs — the stall should dominate the window (>1s)", winP99)
	}
}

func TestWindowedConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"counter-interval": func() { NewWindowedCounter(0, 4) },
		"counter-slots":    func() { NewWindowedCounter(time.Second, 0) },
		"hist-interval":    func() { NewWindowedHistogram(-time.Second, 4, nil) },
		"hist-slots":       func() { NewWindowedHistogram(time.Second, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor did not panic", name)
				}
			}()
			fn()
		}()
	}
}
