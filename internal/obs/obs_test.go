package obs

import (
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	gf := r.GaugeFunc("gf", "help", func() float64 { return 2.5 })
	if got := gf.Value(); got != 2.5 {
		t.Errorf("gauge func = %v, want 2.5", got)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "help", "k", "v")
	b := r.Counter("dup_total", "help", "k", "v")
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	other := r.Counter("dup_total", "help", "k", "w")
	if a == other {
		t.Error("different labels returned the same counter")
	}
}

func TestRegisterTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("clash", "help")
}

func TestLabelStringOddPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd label pair count did not panic")
		}
	}()
	NewRegistry().Counter("bad", "help", "key-without-value")
}

// TestRegistryConcurrency hammers registration and the hot path from
// many goroutines; run with -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("conc_total", "help").Inc()
				r.Gauge("conc_gauge", "help").Inc()
				r.Histogram("conc_seconds", "help", nil).Observe(0.002)
				r.snapshotMetrics()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_total", "help").Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := count(r.Histogram("conc_seconds", "help", nil)); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

// The record hot path must not allocate: these handles are hit on every
// exchange, and an allocation per query would show up in the very
// latency distributions they measure.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total", "help")
	g := r.Gauge("alloc_gauge", "help")
	h := r.Histogram("alloc_seconds", "help", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0042) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "help")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "help", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}
