package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted; NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns q1, median and q3 of values as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// so a spread printed here equals the one the benchmark's acceptance
// check computes. One value is its own quartiles; none gives NaN.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 3 cut points, 1-based
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// A bucket is a stretch of consecutive rounds at least bucketTime long
// and of at least bucketRounds rounds. What disturbs a small guest on a
// shared host comes and goes by the millisecond, so this is the grain at
// which the program can be seen running undisturbed.
const (
	bucketTime   = 1000 // µs
	bucketRounds = 2
)

// buckets cuts the times of consecutive rounds, in µs, into buckets. A
// remainder too short for a bucket of its own joins the last one; a phase
// too short for one bucket is one.
func buckets(rounds []float64) [][]float64 {
	var out [][]float64
	start, last, acc := 0, 0, 0.0
	for i, t := range rounds {
		if acc += t; acc >= bucketTime && i+1-start >= bucketRounds {
			out = append(out, rounds[start:i+1])
			start, last, acc = i+1, start, 0
		}
	}
	switch {
	case start == len(rounds):
	case len(out) == 0:
		out = append(out, rounds)
	default:
		out[len(out)-1] = rounds[last:]
	}
	return out
}

// median returns the median of values without reordering them.
func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// rate is the operations per second of a bucket whose rounds, of ops
// operations each, took the given times in µs.
func rate(rounds []float64, ops int) float64 {
	var sum float64
	for _, t := range rounds {
		sum += t
	}
	return ratio(float64(ops*len(rounds))*1e6, sum)
}

// better returns the value a twentieth of the way into values from their
// better end: the 5th percentile when lower is better, else the 95th.
// Whatever disturbs the program — another guest on the core, a process
// taking a turn on the CPU — only ever makes it slower, so the program
// itself is at the better end of its buckets, not in their middle; the
// best bucket of all is merely lucky. Measured on the host this was
// written on, from quiet minutes to ones with two buckets in three
// disturbed: the twentieth moved by 4 % (latency) and 8 % (throughput),
// the tenth by 5 and 10 %, the quartile by 6 and 13 %. NaN for no values.
func better(values []float64, lower bool) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if lower {
		return percentile(sorted, 5)
	}
	return percentile(sorted, 95)
}

// dist is one metric of one run: the figure reported and the per-slice
// figures beside it, as the clock read them.
type dist struct {
	Value    float64   `json:"value"`
	Median   float64   `json:"median"` // of Slices, with its quartiles
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	NSlices  int       `json:"n_slices"`
	NSamples int       `json:"n_samples"`
	Unit     string    `json:"unit"`
	Slices   []float64 `json:"slices"`
}

func summarize(value float64, perSlice []float64, samples int, unit string) dist {
	q1, med, q3 := quartiles(perSlice)
	return dist{Value: number(value), Median: number(med), Q1: number(q1), Q3: number(q3),
		NSlices: len(perSlice), NSamples: samples, Unit: unit, Slices: perSlice}
}

// number is x, or 0 when nothing was measured: a result must stay
// writable as JSON, and its failure count says why.
func number(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
