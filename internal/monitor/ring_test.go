package monitor

import (
	"math"
	"sort"
	"testing"
	"time"

	"encdns/internal/netsim"
	"encdns/internal/obs"
)

// counted buckets vs over bounds the way ObserveProbe buckets an RTT:
// one count per bound plus +Inf, a value on a bound in that bound's
// bucket.
func counted(bounds []float64, vs ...float64) []uint64 {
	buckets := make([]uint64, len(bounds)+1)
	for _, v := range vs {
		buckets[sort.SearchFloat64s(bounds, v)]++
	}
	return buckets
}

// total sums a ring of plain counts over the trailing window d.
func total(r *ring[uint64], now time.Time, d time.Duration) (n uint64) {
	r.each(now, d, func(_ time.Time, s *uint64) {
		if s != nil {
			n += *s
		}
	})
	return n
}

func TestRingRotationAndExpiry(t *testing.T) {
	now := netsim.CampaignEpoch
	r := newRing[uint64](10*time.Second, 6) // span 1m

	*r.at(now) += 5
	now = now.Add(10 * time.Second)
	*r.at(now) += 3
	if got := total(&r, now, r.span()); got != 8 {
		t.Fatalf("total(span)=%d, want 8", got)
	}
	if got := total(&r, now, 10*time.Second); got != 3 {
		t.Fatalf("total(10s)=%d, want only the current interval", got)
	}

	// Past the span everything expires, although the slots still hold
	// the old counts.
	now = now.Add(2 * time.Minute)
	if got := total(&r, now, r.span()); got != 0 {
		t.Fatalf("total(span)=%d after the span elapsed, want 0", got)
	}

	// The ring wraps onto a stale slot and clears it.
	*r.at(now) += 2
	if got := total(&r, now, r.span()); got != 2 {
		t.Fatalf("total(span)=%d after the wrap, want 2", got)
	}
}

func TestRingOldestFirstWithEmptyIntervals(t *testing.T) {
	now := netsim.CampaignEpoch
	r := newRing[uint64](time.Second, 5)
	*r.at(now) += 1
	now = now.Add(time.Second)
	*r.at(now) += 2
	now = now.Add(time.Second) // the current interval stays empty

	var starts []time.Time
	var got []uint64
	r.each(now, 3*time.Second, func(start time.Time, s *uint64) {
		starts = append(starts, start)
		if s == nil {
			got = append(got, math.MaxUint64)
			return
		}
		got = append(got, *s)
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != math.MaxUint64 {
		t.Fatalf("intervals = %v, want 1, 2 and one no slot holds", got)
	}
	for i, s := range starts {
		if want := netsim.CampaignEpoch.Add(time.Duration(i) * time.Second); !s.Equal(want) {
			t.Fatalf("interval %d starts at %v, want %v", i, s, want)
		}
	}
}

func TestRingClampsWindow(t *testing.T) {
	now := netsim.CampaignEpoch
	r := newRing[uint64](time.Second, 4)
	for d, want := range map[time.Duration]int{
		-time.Second:     1,
		0:                1, // at least the current interval
		time.Millisecond: 1,
		time.Second:      1,
		time.Second + 1:  2, // a started interval counts whole
		3 * time.Second:  3,
		time.Hour:        4, // at most the span
	} {
		n := 0
		r.each(now, d, func(time.Time, *uint64) { n++ })
		if n != want {
			t.Errorf("each(%v) visits %d intervals, want %d", d, n, want)
		}
	}
}

// TestRingQuantileWindows reads quantiles off a ring of RTT buckets the
// way the report does: merged over a window, and per interval.
func TestRingQuantileWindows(t *testing.T) {
	bounds := obs.DefaultRTTBounds
	now := netsim.CampaignEpoch
	r := newRing[[]uint64](time.Minute, 10)
	observe := func(v float64, n int) {
		s := r.at(now)
		if *s == nil {
			*s = make([]uint64, len(bounds)+1)
		}
		(*s)[sort.SearchFloat64s(bounds, v)] += uint64(n)
	}
	merged := func(d time.Duration) []uint64 {
		m := make([]uint64, len(bounds)+1)
		r.each(now, d, func(_ time.Time, s *[]uint64) {
			if s != nil {
				for i, n := range *s {
					m[i] += n
				}
			}
		})
		return m
	}

	// Minute 0: fast responses. Minute 1: slow ones.
	observe(0.02, 100)
	now = now.Add(time.Minute)
	observe(0.8, 100)

	if p := quantile(bounds, merged(time.Minute), 0.5); p < 0.5 {
		t.Fatalf("p50 over the current minute = %v, want slow (~0.8)", p)
	}
	if p := quantile(bounds, merged(10*time.Minute), 0.5); p > 0.5 {
		t.Fatalf("p50 over the span = %v, want the mixed median below 0.5", p)
	}
	var perInterval []float64
	r.each(now, 2*time.Minute, func(_ time.Time, s *[]uint64) {
		perInterval = append(perInterval, quantile(bounds, *s, 0.5))
	})
	if len(perInterval) != 2 || perInterval[0] > 0.032 || perInterval[1] < 0.512 {
		t.Fatalf("per-interval p50 = %v, want one fast, then one slow", perInterval)
	}

	// An empty window reads 0.
	now = now.Add(time.Hour)
	if p := quantile(bounds, merged(time.Minute), 0.99); p != 0 {
		t.Fatalf("quantile over an empty window = %v, want 0", p)
	}
}

// TestRingBucketQuantiles reads one quantile per interval, oldest
// first, the way the report's p50 series does.
func TestRingBucketQuantiles(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	now := netsim.CampaignEpoch
	r := newRing[[]uint64](time.Second, 4)
	observe := func(vs ...float64) {
		s := r.at(now)
		if *s == nil {
			*s = make([]uint64, len(bounds)+1)
		}
		for _, v := range vs {
			(*s)[sort.SearchFloat64s(bounds, v)]++
		}
	}
	observe(0.005)
	now = now.Add(time.Second)
	observe(0.5, 0.5)

	var counts []uint64
	var p50s []float64
	r.each(now, 2*time.Second, func(_ time.Time, s *[]uint64) {
		var n uint64
		for _, c := range *s {
			n += c
		}
		counts = append(counts, n)
		p50s = append(p50s, quantile(bounds, *s, 0.5))
	})
	if len(counts) != 2 {
		t.Fatalf("intervals = %d, want 2", len(counts))
	}
	if counts[0] != 1 || p50s[0] > 0.01 {
		t.Fatalf("interval 0: count %d, p50 %v; want count 1, p50 <= 0.01", counts[0], p50s[0])
	}
	if counts[1] != 2 || p50s[1] < 0.1 {
		t.Fatalf("interval 1: count %d, p50 %v; want count 2, p50 in (0.1, 1]", counts[1], p50s[1])
	}
}

// TestHistogramQuantile pins the bucket interpolation behind the
// windowed p50/p95/p99 on /debug/watch.
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	if got := quantile(bounds, counted(bounds), 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations uniform on (0, 4]: 25 per unit interval.
	var vs []float64
	for i := 1; i <= 100; i++ {
		vs = append(vs, float64(i)*0.04)
	}
	buckets := counted(bounds, vs...)
	for _, tc := range []struct{ q, want, tol float64 }{
		{0, 0.04, 0.05},   // clamps to rank 1
		{0.25, 1.0, 0.05}, // bucket edge
		{0.5, 2.0, 0.08},  // interpolated inside (1,2]
		{0.75, 3.0, 0.12}, // interpolated inside (2,4]
		{1.0, 4.0, 1e-9},  // top of the last populated bucket
	} {
		if got := quantile(bounds, buckets, tc.q); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("quantile(%v) = %v, want %v ± %v", tc.q, got, tc.want, tc.tol)
		}
	}
	// Values past every bound clamp to the last finite bound.
	over := []float64{1, 2}
	if got := quantile(over, counted(over, 100), 0.99); got != 2 {
		t.Errorf("+Inf-bucket quantile = %v, want clamp to 2", got)
	}
}
