package stats

import (
	"math"
	"math/rand/v2"
)

// Distributions used by the network model. Each takes its own *rand.Rand so
// callers can key independent streams per (vantage, resolver, round) and
// keep campaigns fully deterministic.

// LogNormal samples a lognormal variate whose underlying normal has the
// given mu and sigma. Network jitter is classically lognormal-ish: mostly
// small, occasionally large, never negative.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// LogNormalByMedian parameterises the lognormal by its median (exp(mu)) and
// sigma, which is the natural way to calibrate "typical jitter X ms with
// heavy tail".
func LogNormalByMedian(rng *rand.Rand, median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return LogNormal(rng, math.Log(median), sigma)
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// Pareto samples a bounded Pareto variate in [lo, hi] with tail index alpha.
// Used for the rare very-slow responses that make the paper's outlier dots.
func Pareto(rng *rand.Rand, alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		return lo
	}
	u := rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}
