package report

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

func checkFixed(t *testing.T, x float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("<"), x, 'f', prec, 64)
	if got := appendFixed([]byte("<"), x, prec); string(got) != string(want) {
		t.Fatalf("appendFixed(%v [%#x], %d) = %q, strconv %q", x, math.Float64bits(x), prec, got[1:], want[1:])
	}
}

// FuzzAppendFixed holds appendFixed to strconv's 'f' for the precisions
// the report writes and one beyond.
func FuzzAppendFixed(f *testing.F) {
	for _, x := range []float64{
		0.5, 1.5, 2.5, 1.25, 1.125, 2.675, 0.125, 1.0625, // ties and near-ties
		9.5, 9.95, 9.96, 9.995, 99.5, 999.9999, 999.95, 9999.9996, // carries into a new digit
		-9.96, -2.5, -1.05, math.Copysign(0, -1), 0,
		math.NaN(), math.Inf(1), math.Inf(-1),
		1, math.Nextafter(1, 0), 0.05, 0.999, 1e-300, 5e-324,
		1e15, 1e17 - 1, 1e17, 1e18 - 64, 1e18, 123456789012345.67, math.MaxFloat64,
		320.04999999999995, 959.95, 41.203125,
	} {
		f.Add(x, uint8(1))
	}
	f.Fuzz(func(t *testing.T, x float64, prec uint8) {
		for p := 0; p <= 3; p++ {
			checkFixed(t, x, p)
		}
		checkFixed(t, x, int(prec%20))
	})
}

// TestAppendFixedRandom sweeps the values the fast path formats: plot
// coordinates, milliseconds, exact binary ties and digit carries.
func TestAppendFixedRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 200_000; i++ {
		var x float64
		switch i % 4 {
		case 0: // a value with few binary fraction digits: many exact ties
			x = float64(rng.IntN(1<<20)) / float64(int(1)<<rng.IntN(12))
		case 1: // just below a power of ten
			x = math.Nextafter(math.Pow10(1+rng.IntN(15))-float64(rng.IntN(3))*0.05, 0)
		case 2:
			x = rng.Float64() * math.Pow10(rng.IntN(19))
		default:
			x = math.Float64frombits(rng.Uint64())
		}
		if rng.IntN(2) == 0 {
			x = -x
		}
		checkFixed(t, x, rng.IntN(5))
	}
}
