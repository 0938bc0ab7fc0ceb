package testutil

import (
	"math"
	"sort"
)

// RankSum performs the Mann-Whitney U test (Wilcoxon rank-sum) on two
// independent samples, returning the U statistic for the first sample and
// the two-sided p-value under the normal approximation with tie
// correction. It answers the question behind the paper's winner claims —
// "does resolver A really answer faster than resolver B, or is the
// difference sampling noise?" — without assuming normality, which
// response-time distributions never satisfy.
//
// The normal approximation is accurate for n1, n2 ≥ ~8; both campaigns'
// per-pair sample counts are far larger. Only tests use it: the
// experiment suite checks the §4 winner claims with it.
func RankSum(a, b []float64) (u float64, pValue float64) {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v     float64
		first bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		if !math.IsNaN(v) {
			all = append(all, obs{v, true})
		}
	}
	for _, v := range b {
		if !math.IsNaN(v) {
			all = append(all, obs{v, false})
		}
	}
	n1, n2 = 0, 0
	for _, o := range all {
		if o.first {
			n1++
		} else {
			n2++
		}
	}
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks with tie groups; accumulate the tie correction term.
	n := float64(len(all))
	var r1 float64      // rank sum of sample a
	var tieTerm float64 // Σ (t³ - t) over tie groups
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		t := float64(j - i)
		midrank := (float64(i+1) + float64(j)) / 2
		for k := i; k < j; k++ {
			if all[k].first {
				r1 += midrank
			}
		}
		if t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}
	u = r1 - n1*(n1+1)/2

	mean := n1 * n2 / 2
	variance := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if variance <= 0 {
		// All observations identical: no evidence of a difference.
		return u, 1
	}
	// Continuity correction.
	z := (u - mean)
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(variance)
	pValue = 2 * normSurvival(math.Abs(z))
	if pValue > 1 {
		pValue = 1
	}
	return u, pValue
}

// normSurvival is P(Z > z) for the standard normal.
func normSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
