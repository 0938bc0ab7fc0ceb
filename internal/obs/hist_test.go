package obs

import (
	"math"
	"slices"
	"testing"
	"time"
)

// count is the number of observations h holds.
func count(h *Histogram) uint64 {
	cumulative, _ := h.snapshot()
	return cumulative[len(cumulative)-1]
}

func TestDefaultRTTBounds(t *testing.T) {
	if len(DefaultRTTBounds) != 16 {
		t.Fatalf("len(DefaultRTTBounds) = %d, want 16", len(DefaultRTTBounds))
	}
	if DefaultRTTBounds[0] != 0.001 {
		t.Errorf("first bound = %v, want 0.001 (1ms)", DefaultRTTBounds[0])
	}
	for i := 1; i < len(DefaultRTTBounds); i++ {
		if DefaultRTTBounds[i] != DefaultRTTBounds[i-1]*2 {
			t.Errorf("bound[%d] = %v, want double of %v", i, DefaultRTTBounds[i], DefaultRTTBounds[i-1])
		}
	}
	if last := DefaultRTTBounds[15]; last != 32.768 {
		t.Errorf("last bound = %v, want 32.768", last)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal to
// a bound lands in that bound's bucket; the next representable value
// spills into the following one.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewRegistry().Histogram("b_seconds", "help", []float64{0.001, 0.01, 0.1})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0},
		{0.0005, 0},
		{0.001, 0}, // exactly on the bound: le includes it
		{math.Nextafter(0.001, 1), 1},
		{0.01, 1},
		{0.05, 2},
		{0.1, 2},
		{0.2, 3}, // +Inf
		{1000, 3},
	}
	for _, tc := range cases {
		before := make([]uint64, len(h.buckets))
		for i := range h.buckets {
			before[i] = h.buckets[i].Load()
		}
		h.Observe(tc.v)
		for i := range h.buckets {
			want := before[i]
			if i == tc.bucket {
				want++
			}
			if got := h.buckets[i].Load(); got != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.v, i, got, want)
			}
		}
	}
	if got, want := count(h), uint64(len(cases)); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
}

func TestHistogramSumAndDuration(t *testing.T) {
	h := NewRegistry().Histogram("s_seconds", "help", nil)
	h.Observe(0.25)
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Sum(); got != 0.5 {
		t.Errorf("sum = %v, want 0.5", got)
	}
	if got := count(h); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

func TestHistogramSnapshotCumulative(t *testing.T) {
	h := NewRegistry().Histogram("c_seconds", "help", []float64{0.001, 0.01})
	for _, v := range []float64{0.0005, 0.005, 0.005, 5} {
		h.Observe(v)
	}
	cumulative, sum := h.snapshot()
	want := []uint64{1, 3, 4}
	for i, c := range cumulative {
		if c != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, c, want[i])
		}
	}
	if math.Abs(sum-5.0105) > 1e-9 {
		t.Errorf("sum = %v, want 5.0105", sum)
	}
}

// TestObserveNMatchesObserve: ObserveN(v, n) leaves the buckets and the
// sum n Observe(v) calls leave, for n = 0, on a bound, between bounds and
// past the last one.
func TestObserveNMatchesObserve(t *testing.T) {
	bounds := []float64{1e-6, 2e-6, 4e-6}
	for _, tc := range []struct {
		v float64
		n uint64
	}{{3e-6, 0}, {2e-6, 1}, {3e-6, 7}, {0.5e-6, 32}, {1, 5}, {0, 3}} {
		one, many := NewRegistry().Histogram("o_seconds", "", bounds), NewRegistry().Histogram("n_seconds", "", bounds)
		for i := uint64(0); i < tc.n; i++ {
			one.Observe(tc.v)
		}
		many.ObserveN(tc.v, tc.n)
		c1, s1 := one.snapshot()
		cn, sn := many.snapshot()
		if !slices.Equal(c1, cn) || math.Abs(s1-sn) > 1e-12*math.Abs(s1) {
			t.Errorf("v %v, n %d: ObserveN left buckets %v sum %v, Observe %v sum %v", tc.v, tc.n, cn, sn, c1, s1)
		}
	}
}

func TestServerBounds(t *testing.T) {
	if len(ServerBounds) != 26 || ServerBounds[0] != 1e-6 {
		t.Fatalf("ServerBounds = %v, want 26 bounds from 1e-6", ServerBounds)
	}
	for i := 1; i < len(ServerBounds); i++ {
		if ServerBounds[i] != 2*ServerBounds[i-1] {
			t.Errorf("bound[%d] = %v, want double of %v", i, ServerBounds[i], ServerBounds[i-1])
		}
	}
	if last := ServerBounds[25]; last < 33 || last > 34 {
		t.Errorf("last bound %v, want about 33.5 s", last)
	}
}
