package netsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"encdns/internal/geo"
	"encdns/internal/stats"
)

// This file models anycast catchment for a multi-site resolver cluster:
// which instance each client in a large population lands on when every
// client is routed to its nearest *healthy* site (the BGP-ish
// approximation the paper's anycast endpoints exhibit — clients see one
// IP, the routing system picks the site). It reuses the Endpoint.Sites
// nearest-site machinery, so the steering rule here is exactly the rule
// Query applies to anycast endpoints.

// Instance is one cluster member as the catchment model sees it.
type Instance struct {
	// Name labels the instance in reports (by convention its cluster
	// peer ID).
	Name string
	// Site is the instance's deployment location.
	Site geo.Coord
	// Healthy instances attract traffic; unhealthy ones shed their
	// whole catchment to the surviving sites.
	Healthy bool
}

// CatchmentClass is one client population segment, anchored on a vantage
// the paper measured from: clients scatter around the vantage's
// coordinate and inherit its access-network characteristics.
type CatchmentClass struct {
	Vantage Vantage
	// Weight is the class's share of the total population; weights are
	// normalised, so any positive scale works.
	Weight float64
	// SpreadKm is the standard deviation of client scatter around the
	// vantage coordinate (a metro-ish 50 km models one city's
	// broadband population; continental classes use more).
	SpreadKm float64
}

// CatchmentReport summarises one steering of a client population across
// the cluster's healthy instances.
type CatchmentReport struct {
	Clients int
	// PerInstance is each instance's catchment size (clients steered to
	// it). Unhealthy instances appear with zero.
	PerInstance map[string]int
	// Unserved counts clients with no healthy instance at all.
	Unserved int
	// Client-to-instance RTT distribution across the served population.
	Mean, P50, P95, P99 time.Duration
}

// Share returns an instance's fraction of the served population.
func (r *CatchmentReport) Share(name string) float64 {
	served := r.Clients - r.Unserved
	if served == 0 {
		return 0
	}
	return float64(r.PerInstance[name]) / float64(served)
}

// String renders the report for logs and experiment output.
func (r *CatchmentReport) String() string {
	names := make([]string, 0, len(r.PerInstance))
	for n := range r.PerInstance {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("catchment{clients=%d unserved=%d p50=%s p95=%s p99=%s",
		r.Clients, r.Unserved, r.P50, r.P95, r.P99)
	for _, n := range names {
		s += fmt.Sprintf(" %s=%.1f%%", n, 100*r.Share(n))
	}
	return s + "}"
}

// CatchmentModel steers simulated client populations across a cluster.
type CatchmentModel struct {
	Net *Net
	// Classes describe the population mix; at least one is required.
	Classes []CatchmentClass
}

// Assign steers a population of total clients to their nearest healthy
// instance and samples each client's query RTT to that instance. The
// whole run is deterministic in the Net seed, the class list, and the
// instance set: same inputs, same report — which is what lets the
// failover test assert exact catchment shifts with zero wall-clock
// sleeps. Cost is O(total × instances); a million clients over a
// handful of sites runs in well under a second.
func (m *CatchmentModel) Assign(total int, instances []Instance) CatchmentReport {
	rep := CatchmentReport{
		Clients:     total,
		PerInstance: make(map[string]int, len(instances)),
	}
	healthy := make([]geo.Coord, 0, len(instances))
	siteName := make(map[geo.Coord]string, len(instances))
	for _, inst := range instances {
		rep.PerInstance[inst.Name] = 0
		if inst.Healthy {
			healthy = append(healthy, inst.Site)
			siteName[inst.Site] = inst.Name
		}
	}
	if total <= 0 {
		return rep
	}
	if len(healthy) == 0 {
		rep.Unserved = total
		return rep
	}
	// The cluster presents as one anycast endpoint whose sites are the
	// healthy instances; SiteFor then applies the standard nearest-site
	// steering rule.
	ep := &Endpoint{Name: "cluster", Sites: healthy}

	var weightSum float64
	for _, c := range m.Classes {
		weightSum += c.Weight
	}
	rtts := make([]float64, 0, total)
	assigned := 0
	for ci, class := range m.Classes {
		n := int(math.Round(float64(total) * class.Weight / weightSum))
		if ci == len(m.Classes)-1 {
			n = total - assigned // rounding remainder lands on the last class
		}
		assigned += n
		rng := m.Net.rng(ci, "catchment", class.Vantage.Name)
		// ~111 km per degree of latitude; longitude shrinks by cos(lat).
		latSigma := class.SpreadKm / 111.0
		lonScale := math.Cos(class.Vantage.Coord.Lat * math.Pi / 180)
		if lonScale < 0.2 {
			lonScale = 0.2
		}
		for i := 0; i < n; i++ {
			v := class.Vantage
			v.Name = "" // clients share the class RNG stream, not the vantage's
			v.Coord.Lat += rng.NormFloat64() * latSigma
			v.Coord.Lon += rng.NormFloat64() * latSigma / lonScale
			site, _ := m.Net.SiteFor(v, ep)
			rep.PerInstance[siteName[site]]++
			rtts = append(rtts, m.Net.rttSample(rng, v, m.Net.BaseOWDMs(v, site)))
		}
	}
	rep.Mean = msToDur(stats.Mean(rtts))
	rep.P50 = msToDur(stats.Quantile(rtts, 0.50))
	rep.P95 = msToDur(stats.Quantile(rtts, 0.95))
	rep.P99 = msToDur(stats.Quantile(rtts, 0.99))
	return rep
}
