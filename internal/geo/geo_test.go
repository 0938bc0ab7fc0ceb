package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b        Coord
		wantKm      float64
		toleranceKm float64
	}{
		{Chicago, Chicago, 0, 0.001},
		{Chicago, Ohio, 444, 30},        // Chicago–Columbus geodesic ≈ 444 km
		{Frankfurt, Seoul, 8560, 150},   // ≈ 8,568 km
		{Chicago, Frankfurt, 6960, 150}, // ≈ 6,966 km
		{Ohio, Seoul, 10900, 250},       // ≈ 10,950 km
		{Sydney, Perth, 3290, 100},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm) > c.toleranceKm {
			t.Errorf("distance(%v,%v) = %.0f km, want %.0f ± %.0f",
				c.a, c.b, got, c.wantKm, c.toleranceKm)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(la1, lo1, la2, lo2 uint16) bool {
		a := Coord{Lat: float64(la1%180) - 90, Lon: float64(lo1%360) - 180}
		b := Coord{Lat: float64(la2%180) - 90, Lon: float64(lo2%360) - 180}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= 20038 // half circumference
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(s1, s2, s3 uint32) bool {
		mk := func(s uint32) Coord {
			return Coord{Lat: float64(s%180) - 90, Lon: float64(s/180%360) - 180}
		}
		a, b, c := mk(s1), mk(s2), mk(s3)
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropagation(t *testing.T) {
	// 2000 km at stretch 1.0 → 10 ms one-way.
	if ms := PropagationMs(2000, 1.0); math.Abs(ms-10) > 1e-9 {
		t.Errorf("propagation = %v, want 10", ms)
	}
	// Stretch below 1 is clamped.
	if ms := PropagationMs(2000, 0.5); math.Abs(ms-10) > 1e-9 {
		t.Errorf("clamped propagation = %v, want 10", ms)
	}
	// Frankfurt–Seoul with realistic stretch lands in the observed
	// intercontinental RTT ballpark (one-way 60–120 ms).
	ow := PropagationMs(DistanceKm(Frankfurt, Seoul), 1.8)
	if ow < 55 || ow > 130 {
		t.Errorf("Frankfurt-Seoul one-way = %v ms, outside sane range", ow)
	}
}

func TestNearest(t *testing.T) {
	sites := []Coord{Frankfurt, Seoul, Ohio}
	i, d := Nearest(Chicago, sites)
	if i != 2 {
		t.Errorf("nearest to Chicago = %d (%.0f km), want Ohio", i, d)
	}
	i, _ = Nearest(Tokyo, sites)
	if i != 1 {
		t.Errorf("nearest to Tokyo = %d, want Seoul", i)
	}
	if i, d := Nearest(Chicago, nil); i != -1 || !math.IsInf(d, 1) {
		t.Errorf("nearest of empty = %d, %v", i, d)
	}
}

func TestRegionString(t *testing.T) {
	cases := map[Region]string{
		NorthAmerica: "North America",
		Europe:       "Europe",
		Asia:         "Asia",
		Oceania:      "Oceania",
		Unknown:      "Unknown",
		Region("?"):  "Unknown",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", r, got, want)
		}
	}
}
