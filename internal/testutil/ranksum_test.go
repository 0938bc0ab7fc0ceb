package testutil

import (
	"math"
	"math/rand/v2"
	"testing"

	"encdns/internal/stats"
)

func TestRankSumIdenticalDistributions(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	rejections := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		a := make([]float64, 50)
		b := make([]float64, 50)
		for j := range a {
			a[j] = stats.LogNormalByMedian(rng, 20, 0.3)
			b[j] = stats.LogNormalByMedian(rng, 20, 0.3)
		}
		if _, p := RankSum(a, b); p < 0.05 {
			rejections++
		}
	}
	// Under the null, ~5% false rejections; allow generous slack.
	if rejections > trials/5 {
		t.Errorf("false rejection rate %d/%d far above alpha", rejections, trials)
	}
}

func TestRankSumDetectsShift(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = stats.LogNormalByMedian(rng, 20, 0.3)
		b[i] = stats.LogNormalByMedian(rng, 30, 0.3) // 50% slower
	}
	u, p := RankSum(a, b)
	if p > 0.01 {
		t.Errorf("p = %v for a clear shift", p)
	}
	// a ranks low: its U is well under the n1*n2/2 a tie would give.
	if u >= 60*60/2 {
		t.Errorf("U = %v for the faster sample, want < %d", u, 60*60/2)
	}
}

func TestRankSumSymmetricU(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9}
	u1, _ := RankSum(a, b)
	u2, _ := RankSum(b, a)
	// U1 + U2 = n1*n2.
	if got := u1 + u2; got != 20 {
		t.Errorf("U1+U2 = %v, want 20", got)
	}
	// a entirely below b: U1 = 0.
	if u1 != 0 {
		t.Errorf("U1 = %v, want 0", u1)
	}
}

func TestRankSumHandlesTies(t *testing.T) {
	a := []float64{1, 1, 1, 2, 2}
	b := []float64{1, 2, 2, 2, 3}
	u, p := RankSum(a, b)
	if math.IsNaN(u) || math.IsNaN(p) {
		t.Fatalf("u=%v p=%v", u, p)
	}
	if p < 0 || p > 1 {
		t.Errorf("p = %v out of range", p)
	}
}

func TestRankSumAllIdenticalValues(t *testing.T) {
	a := []float64{5, 5, 5}
	b := []float64{5, 5, 5, 5}
	_, p := RankSum(a, b)
	if p != 1 {
		t.Errorf("p = %v for identical constants, want 1", p)
	}
}

func TestRankSumEmpty(t *testing.T) {
	if _, p := RankSum(nil, []float64{1}); !math.IsNaN(p) {
		t.Errorf("p = %v for empty sample", p)
	}
	// NaN-only samples behave as empty.
	if _, p := RankSum([]float64{math.NaN()}, []float64{1}); !math.IsNaN(p) {
		t.Errorf("p = %v for NaN sample", p)
	}
}
