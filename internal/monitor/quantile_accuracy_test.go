package monitor

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"encdns/internal/stats"
)

// This file cross-checks the one streaming quantile estimator the repo
// ships — quantile, linear interpolation inside the containing bucket,
// which produces the watchtower's p50/p95/p99 on /debug/watch — against
// the exact type-7 quantile of the full sample on skewed, Zipf-like
// inputs. Latency streams are exactly this shape: a dense head
// (cache hits, nearby anycast) and a heavy tail (cold paths, stalls), and
// an estimator that is fine on uniform data can drift badly on the tail
// of a skewed one.
//
// The bound asserted here is the interpolation's accuracy contract: over
// geometric bounds a quantile read off the histogram lies in the bucket
// that holds the exact one, so its relative error is below the bucket
// ratio (2^¼, 19%) at every quantile including p999.
//
// The generators are seeded: these are regression tests, not flaky
// statistical coin flips.

// quarterOctaveBounds are geometric bucket bounds from 100µs to ~100s,
// four per octave (ratio 2^¼ ≈ 1.19).
var quarterOctaveBounds = func() []float64 {
	const ratio = 1.189207115002721 // 2^(1/4)
	var bounds []float64
	for v := 0.0001; v < 100; v *= ratio {
		bounds = append(bounds, v)
	}
	return bounds
}()

// skewedStream draws n values from the named heavy-tailed generator.
func skewedStream(t *testing.T, kind string, n int) []float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 2026))
	out := make([]float64, n)
	switch kind {
	case "zipf-steps":
		// Zipf-weighted mixture of latency plateaus: rank-k response time
		// grows linearly while rank-k probability falls as k^-1.1 — the
		// resolver-population shape (a few fast popular paths, a long
		// slow tail).
		z := rand.NewZipf(rng, 1.1, 1, 1000)
		for i := range out {
			k := float64(z.Uint64())
			out[i] = 0.001*(1+k) + 0.0001*rng.Float64()
		}
	case "lognormal":
		// Log-normal RTTs (the classic WAN latency model; PAPERS.md's
		// measurement studies fit resolver RTTs this way).
		for i := range out {
			out[i] = stats.LogNormalByMedian(rng, 0.020, 0.8)
		}
	case "pareto":
		// Pareto tail, alpha 1.5: infinite-variance territory.
		for i := range out {
			out[i] = stats.Pareto(rng, 1.5, 0.001, 10)
		}
	default:
		t.Fatalf("unknown stream kind %q", kind)
	}
	return out
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestHistogramQuantilesVsExact(t *testing.T) {
	const n = 200_000
	for _, kind := range []string{"zipf-steps", "lognormal", "pareto"} {
		t.Run(kind, func(t *testing.T) {
			streamVals := skewedStream(t, kind, n)
			buckets := counted(quarterOctaveBounds, streamVals...)
			exactSorted := append([]float64(nil), streamVals...)
			sort.Float64s(exactSorted)
			for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
				exact, got := stats.Quantile(exactSorted, q), quantile(quarterOctaveBounds, buckets, q)
				if e := relErr(got, exact); e > 0.19 {
					t.Errorf("%s q=%v: got %.6f exact %.6f relerr %.3f > 0.19", kind, q, got, exact, e)
				}
			}
		})
	}
}
