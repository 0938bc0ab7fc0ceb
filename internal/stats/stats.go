// Package stats provides the statistical machinery used by the measurement
// analysis pipeline: quantiles, five-number boxplot summaries with IQR
// outlier detection, and seeded distributions.
//
// All functions operate on float64 samples (milliseconds throughout this
// repository) and are careful about the edge cases that show up in real
// measurement data: empty sets, single samples, ties, NaN rejection.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoSamples is returned by summaries that need at least one sample.
var ErrNoSamples = errors.New("stats: no samples")

// Quantile returns the q-th quantile (0 <= q <= 1) of the samples using the
// "type 7" linear-interpolation rule (the default in R and NumPy). The input
// need not be sorted; it is not modified. NaN samples are ignored. It panics
// if q is outside [0, 1]; it returns NaN for an empty input.
func Quantile(samples []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic("stats: quantile out of range")
	}
	s := cleanSorted(samples)
	return quantileSorted(s, q)
}

// quantileSorted computes a type-7 quantile of an already clean, sorted
// slice. Returns NaN when empty.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return s[n-1]
	}
	frac := h - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// Median returns the 0.5 quantile, or NaN for an empty input.
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// Min returns the smallest non-NaN sample, or NaN when none exist.
func Min(samples []float64) float64 {
	best := math.NaN()
	for _, v := range samples {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(best) || v < best {
			best = v
		}
	}
	return best
}

// Max returns the largest non-NaN sample, or NaN when none exist.
func Max(samples []float64) float64 {
	best := math.NaN()
	for _, v := range samples {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(best) || v > best {
			best = v
		}
	}
	return best
}

// cleanSorted returns a sorted copy of samples with NaNs removed.
func cleanSorted(samples []float64) []float64 {
	s := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return s
}

// BoxPlot is the five-number summary drawn by the paper's figures, plus the
// whisker endpoints under the 1.5×IQR rule and the points beyond them.
type BoxPlot struct {
	N  int // number of (non-NaN) samples summarised
	Q1 float64
	Q2 float64 // median
	Q3 float64
	// WhiskerLow is the smallest sample >= Q1 - 1.5*IQR; WhiskerHigh is the
	// largest sample <= Q3 + 1.5*IQR (Tukey's convention).
	WhiskerLow  float64
	WhiskerHigh float64
	// Outliers are the samples outside the whiskers, ascending.
	Outliers []float64
}

// IQR returns the interquartile range Q3-Q1.
func (b BoxPlot) IQR() float64 { return b.Q3 - b.Q1 }

// Summarize computes a BoxPlot from samples. It returns ErrNoSamples when no
// valid samples exist.
func Summarize(samples []float64) (BoxPlot, error) {
	s := cleanSorted(samples)
	if len(s) == 0 {
		return BoxPlot{}, ErrNoSamples
	}
	b := BoxPlot{
		N:  len(s),
		Q1: quantileSorted(s, 0.25),
		Q2: quantileSorted(s, 0.5),
		Q3: quantileSorted(s, 0.75),
	}
	loFence := b.Q1 - 1.5*b.IQR()
	hiFence := b.Q3 + 1.5*b.IQR()
	b.WhiskerLow = s[len(s)-1]
	b.WhiskerHigh = s[0]
	for _, v := range s {
		if v >= loFence && v < b.WhiskerLow {
			b.WhiskerLow = v
		}
		if v <= hiFence && v > b.WhiskerHigh {
			b.WhiskerHigh = v
		}
	}
	for _, v := range s {
		if v < b.WhiskerLow || v > b.WhiskerHigh {
			b.Outliers = append(b.Outliers, v)
		}
	}
	return b, nil
}
