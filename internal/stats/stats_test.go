package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestQuantileEmpty(t *testing.T) {
	if v := Quantile(nil, 0.5); !math.IsNaN(v) {
		t.Fatalf("quantile of empty = %v, want NaN", v)
	}
}

func TestQuantileSingle(t *testing.T) {
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if v := Quantile([]float64{42}, q); v != 42 {
			t.Fatalf("quantile(%.2f) of single = %v, want 42", q, v)
		}
	}
}

func TestQuantileKnownValues(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if v := Quantile(s, c.q); !almostEqual(v, c.want, 1e-12) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, v, c.want)
		}
	}
}

func TestQuantileUnsortedInputUntouched(t *testing.T) {
	s := []float64{5, 1, 3, 2, 4}
	if v := Quantile(s, 0.5); v != 3 {
		t.Fatalf("median = %v, want 3", v)
	}
	want := []float64{5, 1, 3, 2, 4}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("input was modified: %v", s)
		}
	}
}

func TestQuantileIgnoresNaN(t *testing.T) {
	s := []float64{math.NaN(), 1, math.NaN(), 3}
	if v := Quantile(s, 0.5); v != 2 {
		t.Fatalf("median with NaNs = %v, want 2", v)
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("quantile(%v) did not panic", q)
				}
			}()
			Quantile([]float64{1}, q)
		}()
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		s := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(s, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, qseed uint16) bool {
		s := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			return true
		}
		q := float64(qseed) / math.MaxUint16
		v := Quantile(s, q)
		return v >= Min(s) && v <= Max(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	s := []float64{3, math.NaN(), -1, 7}
	if v := Min(s); v != -1 {
		t.Errorf("min = %v", v)
	}
	if v := Max(s); v != 7 {
		t.Errorf("max = %v", v)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("min/max of empty should be NaN")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrNoSamples {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
}

func TestSummarizeBasic(t *testing.T) {
	// 1..11 plus an outlier at 100.
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 100}
	b, err := Summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 12 {
		t.Errorf("N = %d", b.N)
	}
	if b.Q2 != 6.5 {
		t.Errorf("median = %v, want 6.5", b.Q2)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHigh != 11 {
		t.Errorf("whisker high = %v, want 11", b.WhiskerHigh)
	}
	if b.WhiskerLow != 1 {
		t.Errorf("whisker low = %v, want 1", b.WhiskerLow)
	}
}

func TestSummarizeSingle(t *testing.T) {
	b, err := Summarize([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Q1 != 5 || b.Q2 != 5 || b.Q3 != 5 || b.WhiskerLow != 5 || b.WhiskerHigh != 5 {
		t.Errorf("summary of single = %+v", b)
	}
	if len(b.Outliers) != 0 {
		t.Errorf("outliers = %v", b.Outliers)
	}
}

func TestSummarizeInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		s := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Response times are finite and modest; enormous magnitudes
			// overflow quantile interpolation and are out of domain.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				s = append(s, v)
			}
		}
		if len(s) == 0 {
			return true
		}
		b, err := Summarize(s)
		if err != nil {
			return false
		}
		ordered := b.Q1 <= b.Q2 && b.Q2 <= b.Q3 &&
			b.WhiskerLow <= b.Q1 && b.Q3 <= b.WhiskerHigh
		// Outliers plus in-whisker samples must account for every sample.
		inWhisker := 0
		for _, v := range s {
			if v >= b.WhiskerLow && v <= b.WhiskerHigh {
				inWhisker++
			}
		}
		return ordered && inWhisker+len(b.Outliers) == len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionsPositive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 1000; i++ {
		if v := LogNormalByMedian(rng, 5, 0.5); v <= 0 {
			t.Fatalf("lognormal sample %v <= 0", v)
		}
		if v := Pareto(rng, 1.5, 100, 600); v < 100 || v > 600+1e-9 {
			t.Fatalf("pareto sample %v out of [100,600]", v)
		}
	}
}

func TestLogNormalMedianCalibration(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = LogNormalByMedian(rng, 50, 0.4)
	}
	med := Median(samples)
	if med < 47 || med > 53 {
		t.Errorf("lognormal median = %v, want ~50", med)
	}
}

func TestBernoulliEdges(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if Bernoulli(rng, 0) {
		t.Error("p=0 returned true")
	}
	if !Bernoulli(rng, 1) {
		t.Error("p=1 returned false")
	}
	n := 0
	for i := 0; i < 10000; i++ {
		if Bernoulli(rng, 0.3) {
			n++
		}
	}
	if n < 2700 || n > 3300 {
		t.Errorf("bernoulli(0.3) hit rate = %d/10000", n)
	}
}

func TestDistributionDegenerateParams(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	if v := LogNormalByMedian(rng, 0, 1); v != 0 {
		t.Errorf("lognormal with median 0 = %v", v)
	}
	if v := Pareto(rng, 0, 1, 2); v != 1 {
		t.Errorf("pareto with alpha 0 = %v", v)
	}
}
