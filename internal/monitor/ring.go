package monitor

import "time"

// ring keeps one slot of S per interval over a trailing span: the slot
// for epoch e (unix time / interval) is slots[e mod len], and epochs[i]
// says which interval slots[i] holds. A slot is reused once the ring
// wraps onto it, so memory stays fixed however long a target is
// watched. A ring has no lock and no clock: the Tracker steps it with
// the one reading of its call, under its lock.
type ring[S any] struct {
	interval time.Duration
	epochs   []int64
	slots    []S
}

func newRing[S any](interval time.Duration, n int) ring[S] {
	return ring[S]{interval: interval, epochs: make([]int64, n), slots: make([]S, n)}
}

// span is the longest window the ring answers for.
func (r *ring[S]) span() time.Duration { return r.interval * time.Duration(len(r.slots)) }

// at returns now's slot, cleared first if it held an older interval.
func (r *ring[S]) at(now time.Time) *S {
	e := now.UnixNano() / int64(r.interval)
	i := int(e % int64(len(r.slots)))
	if r.epochs[i] != e {
		r.epochs[i] = e
		var zero S
		r.slots[i] = zero
	}
	return &r.slots[i]
}

// each visits the intervals of the trailing window d, oldest first and
// the current, partly filled one last; d is clamped to [interval, span].
// fn gets each interval's start and its slot, nil when no slot holds it.
func (r *ring[S]) each(now time.Time, d time.Duration, fn func(start time.Time, s *S)) {
	n := int64(len(r.slots))
	k := min(max(int64((d+r.interval-1)/r.interval), 1), n)
	last := now.UnixNano() / int64(r.interval)
	for e := last - k + 1; e <= last; e++ {
		var s *S
		if i := e % n; r.epochs[i] == e {
			s = &r.slots[i]
		}
		fn(time.Unix(0, e*int64(r.interval)).UTC(), s)
	}
}

// quantile estimates the q-th quantile (0 <= q <= 1) of the values
// counted in buckets, one count per bound plus the +Inf bucket, by
// linear interpolation inside the bucket that holds it. Over bounds
// that grow by a fixed ratio its relative error is below that ratio. A
// value in the +Inf bucket reads as the last bound; no values read as 0.
func quantile(bounds []float64, buckets []uint64, q float64) float64 {
	if !(0 <= q && q <= 1) { // NaN too
		panic("monitor: quantile out of range")
	}
	var total uint64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	// rank is the 1-based position of the target observation.
	rank := max(q*float64(total), 1)
	var below uint64
	for i, n := range buckets {
		c := below + n
		if float64(c) < rank {
			below = c
			continue
		}
		if i == len(bounds) {
			// +Inf bucket: no upper edge to interpolate towards.
			break
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if n == 0 {
			return bounds[i]
		}
		return lo + (rank-float64(below))/float64(n)*(bounds[i]-lo)
	}
	return bounds[len(bounds)-1]
}
