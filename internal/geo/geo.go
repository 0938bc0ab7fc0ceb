// Package geo provides the geographic substrate for the measurement study:
// great-circle math for the network latency model and a continent/region
// taxonomy matching the paper's resolver grouping. The paper geolocates
// resolvers with MaxMind (§3.2); here each resolver's region and
// coordinates are part of its dataset entry.
package geo

import "math"

// Region is the paper's resolver grouping (§3.2: "18 in North America, 13
// in Asia, and 33 in Europe. 6 resolvers were unable to return a location").
type Region string

// Regions used in the paper plus Oceania for the Australian resolvers in
// the appendix list.
const (
	NorthAmerica Region = "north-america"
	Europe       Region = "europe"
	Asia         Region = "asia"
	Oceania      Region = "oceania"
	Unknown      Region = "unknown"
)

// String returns the display name used in figure titles.
func (r Region) String() string {
	switch r {
	case NorthAmerica:
		return "North America"
	case Europe:
		return "Europe"
	case Asia:
		return "Asia"
	case Oceania:
		return "Oceania"
	}
	return "Unknown"
}

// Coord is a geographic coordinate in decimal degrees.
type Coord struct {
	Lat float64
	Lon float64
}

// Well-known locations used by the dataset and the vantage points.
var (
	Chicago    = Coord{41.88, -87.63}
	Ohio       = Coord{39.96, -83.00} // us-east-2 (Columbus)
	Ashburn    = Coord{39.04, -77.49} // us-east-1
	Fremont    = Coord{37.55, -121.99}
	Frankfurt  = Coord{50.11, 8.68}
	Amsterdam  = Coord{52.37, 4.90}
	London     = Coord{51.51, -0.13}
	Paris      = Coord{48.86, 2.35}
	Zurich     = Coord{47.38, 8.54}
	Stockholm  = Coord{59.33, 18.07}
	Seoul      = Coord{37.57, 126.98}
	Tokyo      = Coord{35.68, 139.69}
	Beijing    = Coord{39.90, 116.40}
	Hangzhou   = Coord{30.27, 120.16}
	Taipei     = Coord{25.03, 121.57}
	Singapore  = Coord{1.35, 103.82}
	Jakarta    = Coord{-6.21, 106.85}
	Sydney     = Coord{-33.87, 151.21}
	Perth      = Coord{-31.95, 115.86}
	Adelaide   = Coord{-34.93, 138.60}
	LosAngeles = Coord{34.05, -118.24}
	NewYork    = Coord{40.71, -74.01}
	Dallas     = Coord{32.78, -96.80}
	Luxembourg = Coord{49.61, 6.13}
	Helsinki   = Coord{60.17, 24.94}
	Nuremberg  = Coord{49.45, 11.08}
	Athens     = Coord{37.98, 23.73}
	Mumbai     = Coord{19.08, 72.88}
)

const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two coordinates
// using the haversine formula.
func DistanceKm(a, b Coord) float64 {
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// PropagationMs estimates the one-way propagation delay in milliseconds for
// a path of the given great-circle distance: light in fiber travels at
// roughly 2/3 c ≈ 200 km/ms, and real routes are longer than the geodesic
// by a path-stretch factor (typically 1.5–2.5 on the public Internet).
func PropagationMs(distKm, pathStretch float64) float64 {
	if pathStretch < 1 {
		pathStretch = 1
	}
	return distKm * pathStretch / 200.0
}

// Nearest returns the index of the candidate coordinate closest to from,
// and the distance to it in km. It returns (-1, +Inf) for no candidates.
// This is how anycast site selection is modelled: BGP usually (not always)
// delivers clients to a nearby replica.
func Nearest(from Coord, candidates []Coord) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, c := range candidates {
		if d := DistanceKm(from, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}
