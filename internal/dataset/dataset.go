// Package dataset is the measurement population of the paper: the public
// DoH resolvers of Appendix A.2 with curated geolocation, anycast site
// sets, mainstream tags, and behavioural parameters for the network model;
// the four vantage points of §3.2; the three query domains; and the
// browser → resolver matrix of Table 1.
//
// Geography and anycast footprints are curated from public knowledge of
// the operators (Cloudflare/Google/Quad9/NextDNS run global anycast;
// Hurricane Electric is a global ISP with POPs on every continent; most
// hobbyist resolvers are single VMs). Processing and failure parameters
// were calibrated against the medians and availability numbers the paper
// reports (see DESIGN.md "Calibration targets" and EXPERIMENTS.md).
package dataset

import (
	"slices"
	"sync"

	"encdns/internal/geo"
	"encdns/internal/netsim"
)

// Resolver is one measured DoH deployment.
type Resolver struct {
	// Host is the DoH hostname as the paper's appendix lists it.
	Host string
	// Endpoint is the RFC 8484 URL template.
	Endpoint string
	// Region is the paper's geographic grouping for the resolver.
	Region geo.Region
	// Mainstream marks the resolvers browsers ship (Table 1 families).
	Mainstream bool
	// Net parameterises the resolver in the network model.
	Net netsim.Endpoint
}

// Domains are the three query names of §3.2.
var Domains = []string{"google.com", "amazon.com", "wikipedia.com"}

// Vantage names, matching the paper's deployment.
const (
	VantageChicagoHome1 = "chicago-home-1"
	VantageChicagoHome2 = "chicago-home-2"
	VantageChicagoHome3 = "chicago-home-3"
	VantageChicagoHome4 = "chicago-home-4"
	VantageOhio         = "ec2-ohio"
	VantageFrankfurt    = "ec2-frankfurt"
	VantageSeoul        = "ec2-seoul"
)

// Vantages returns the seven measurement clients: four Raspberry Pis in
// one Chicago apartment complex and three EC2 instances.
func Vantages() []netsim.Vantage {
	home := func(name string, dLat, dLon float64) netsim.Vantage {
		return netsim.Vantage{
			Name:   name,
			Coord:  geo.Coord{Lat: geo.Chicago.Lat + dLat, Lon: geo.Chicago.Lon + dLon},
			Access: netsim.AccessHome,
		}
	}
	return []netsim.Vantage{
		home(VantageChicagoHome1, 0.000, 0.000),
		home(VantageChicagoHome2, 0.001, 0.001),
		home(VantageChicagoHome3, 0.002, -0.001),
		home(VantageChicagoHome4, -0.001, 0.002),
		{Name: VantageOhio, Coord: geo.Ohio, Access: netsim.AccessDatacenter},
		{Name: VantageFrankfurt, Coord: geo.Frankfurt, Access: netsim.AccessDatacenter},
		{Name: VantageSeoul, Coord: geo.Seoul, Access: netsim.AccessDatacenter},
	}
}

// EC2Vantages returns just the three datacenter vantage points.
func EC2Vantages() []netsim.Vantage {
	all := Vantages()
	return all[4:]
}

// HomeVantages returns the four Chicago home devices.
func HomeVantages() []netsim.Vantage {
	all := Vantages()
	return all[:4]
}

// VantageByName finds a vantage point; ok is false for unknown names.
func VantageByName(name string) (netsim.Vantage, bool) {
	for _, v := range Vantages() {
		if v.Name == name {
			return v, true
		}
	}
	return netsim.Vantage{}, false
}

// globalAnycast is the site footprint of the large mainstream operators.
var globalAnycast = []geo.Coord{
	geo.Ashburn, geo.Chicago, geo.Dallas, geo.Fremont, geo.NewYork,
	geo.Frankfurt, geo.London, geo.Amsterdam, geo.Stockholm,
	geo.Seoul, geo.Tokyo, geo.Singapore, geo.Sydney,
}

// heAnycast is Hurricane Electric's (ordns.he.net) POP footprint — a
// global ISP whose resolver, the paper found, "managed to outperform all
// mainstream resolvers from the home network devices".
var heAnycast = []geo.Coord{
	geo.Fremont, geo.Chicago, geo.NewYork, geo.Dallas,
	geo.Frankfurt, geo.London, geo.Amsterdam, geo.Stockholm,
	geo.Tokyo, geo.Singapore,
}

// controldAnycast is ControlD's North-America-weighted anycast.
var controldAnycast = []geo.Coord{
	geo.Chicago, geo.Ashburn, geo.Dallas, geo.LosAngeles, geo.NewYork,
	geo.Frankfurt, geo.London, geo.Seoul, geo.Tokyo,
}

// mullvadAnycast and adguardAnycast are mid-size European operators with a
// few remote sites.
var mullvadAnycast = []geo.Coord{geo.Stockholm, geo.NewYork, geo.LosAngeles, geo.Frankfurt}
var adguardAnycast = []geo.Coord{geo.Frankfurt, geo.London, geo.NewYork, geo.Tokyo}

// alidnsAnycast is Alibaba's Asia-weighted footprint; from Seoul it
// outperforms the mainstream resolvers (§4).
var alidnsAnycast = []geo.Coord{geo.Hangzhou, geo.Seoul, geo.Singapore, geo.Tokyo, geo.Frankfurt}

// uncensoredAnycast is the Danish uncensoreddns.org anycast set.
var uncensoredAnycast = []geo.Coord{geo.Amsterdam, geo.Stockholm, geo.Frankfurt}

// dohSBAnycast is doh.sb's European anycast.
var dohSBAnycast = []geo.Coord{geo.Amsterdam, geo.Frankfurt, geo.Singapore}

// mk assembles a Resolver with the standard endpoint path.
func mk(host string, region geo.Region, mainstream bool, e netsim.Endpoint) Resolver {
	e.Name = host
	if e.ProcSigma == 0 {
		e.ProcSigma = 0.35
	}
	return Resolver{
		Host:       host,
		Endpoint:   "https://" + host + "/dns-query",
		Region:     region,
		Mainstream: mainstream,
		Net:        e,
	}
}

// sites wraps one or more coordinates.
func sites(cs ...geo.Coord) []geo.Coord { return cs }

// Resolvers returns the full measurement population (Appendix A.2). The
// slice is the caller's; the Sites inside it are shared and read-only.
func Resolvers() []Resolver { return slices.Clone(population().all) }

// population builds the resolver table and its host index on first use —
// not at package initialisation, which every binary importing the dataset
// would pay for.
var population = sync.OnceValue(func() table {
	t := table{all: buildResolvers(), byHost: make(map[string]int)}
	for i, r := range t.all {
		t.byHost[r.Host] = i
	}
	return t
})

type table struct {
	all    []Resolver
	byHost map[string]int // Host → index in all; hosts are unique
}

func buildResolvers() []Resolver {
	NA, EU, AS := geo.NorthAmerica, geo.Europe, geo.Asia
	OC, UN := geo.Oceania, geo.Unknown
	return []Resolver{
		// ------------------------- mainstream -------------------------
		mk("dns.google", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.8, FailP: 0.004}),
		mk("security.cloudflare-dns.com", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.6, FailP: 0.004}),
		mk("family.cloudflare-dns.com", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.7, FailP: 0.004}),
		mk("1dot1dot1dot1.cloudflare-dns.com", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.5, FailP: 0.004}),
		mk("dns.quad9.net", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.4, FailP: 0.005}),
		mk("dns9.quad9.net", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.6, FailP: 0.005}),
		mk("dns10.quad9.net", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.5, FailP: 0.005}),
		mk("dns11.quad9.net", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.9, FailP: 0.005}),
		mk("dns12.quad9.net", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 1.7, FailP: 0.005}),
		mk("anycast.dns.nextdns.io", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 2.6, FailP: 0.007}),
		mk("dns.nextdns.io", NA, true, netsim.Endpoint{
			Sites: globalAnycast, ICMPResponds: true, ProcMs: 2.9, FailP: 0.007}),

		// --------------------- North America group ---------------------
		// Hurricane Electric: global ISP, wins from the Chicago homes.
		mk("ordns.he.net", NA, false, netsim.Endpoint{
			Sites: heAnycast, ICMPResponds: true, ProcMs: 0.5, FailP: 0.0162}),
		// ControlD: NA anycast, beats Google/Cloudflare from Ohio.
		mk("freedns.controld.com", NA, false, netsim.Endpoint{
			Sites: controldAnycast, ICMPResponds: true, ProcMs: 0.8, FailP: 0.0216}),
		mk("doh.mullvad.net", NA, false, netsim.Endpoint{
			Sites: mullvadAnycast, ICMPResponds: true, ProcMs: 2.4, FailP: 0.0315}),
		mk("adblock.doh.mullvad.net", NA, false, netsim.Endpoint{
			Sites: mullvadAnycast, ICMPResponds: true, ProcMs: 2.8, FailP: 0.0315}),
		mk("kronos.plan9-dns.com", NA, false, netsim.Endpoint{
			Sites: sites(geo.Dallas), ICMPResponds: true, ProcMs: 2.2, FailP: 0.0522}),
		mk("pluton.plan9-dns.com", NA, false, netsim.Endpoint{
			Sites: sites(geo.NewYork), ICMPResponds: true, ProcMs: 2.6, FailP: 0.0522}),
		mk("helios.plan9-dns.com", NA, false, netsim.Endpoint{
			Sites: sites(geo.LosAngeles), ICMPResponds: true, ProcMs: 2.6, FailP: 0.0522}),
		mk("doh.safesurfer.io", NA, false, netsim.Endpoint{
			Sites: sites(geo.LosAngeles), ICMPResponds: true, ProcMs: 4.5, FailP: 0.0765}),
		mk("dohtrial.att.net", NA, false, netsim.Endpoint{
			Sites: sites(geo.Dallas), ICMPResponds: false, ProcMs: 5.0,
			FailP: 0.117, FlakyP: 0.045}),
		// AhaDNS LA: the paper singles it out for home-network variability.
		mk("doh.la.ahadns.net", NA, false, netsim.Endpoint{
			Sites: sites(geo.LosAngeles), ICMPResponds: true, ProcMs: 6.0,
			ProcSigma: 0.9, FailP: 0.0765}),
		// The alekberg ODoH targets geolocate to NA in GeoLite2 (cloud
		// provider ranges) but physically sit in Europe — which is why
		// they anchor the slow end of the paper's NA figures. The ODoH
		// relay hop costs an extra round trip.
		mk("odoh-target.alekberg.net", NA, false, netsim.Endpoint{
			Sites: sites(geo.Amsterdam), ICMPResponds: true, ProcMs: 3.0,
			FailP: 0.072}),
		mk("odoh-target-noads.alekberg.net", NA, false, netsim.Endpoint{
			Sites: sites(geo.Amsterdam), ICMPResponds: true, ProcMs: 3.2,
			FailP: 0.072}),
		mk("odoh-target-se.alekberg.net", NA, false, netsim.Endpoint{
			Sites: sites(geo.Stockholm), ICMPResponds: true, ProcMs: 3.0,
			FailP: 0.072}),
		mk("odoh-target-noads-se.alekberg.net", NA, false, netsim.Endpoint{
			Sites: sites(geo.Stockholm), ICMPResponds: true, ProcMs: 3.2,
			FailP: 0.072}),

		// ------------------------- Europe group ------------------------
		mk("dns.adguard.com", EU, false, netsim.Endpoint{
			Sites: adguardAnycast, ICMPResponds: true, ProcMs: 2.1, FailP: 0.0216}),
		mk("dns-family.adguard.com", EU, false, netsim.Endpoint{
			Sites: adguardAnycast, ICMPResponds: true, ProcMs: 2.3, FailP: 0.0216}),
		mk("dns-unfiltered.adguard.com", EU, false, netsim.Endpoint{
			Sites: adguardAnycast, ICMPResponds: true, ProcMs: 2.0, FailP: 0.0216}),
		// dns.brahma.world: Frankfurt-local, beats Cloudflare from there.
		mk("dns.brahma.world", EU, false, netsim.Endpoint{
			Sites: sites(geo.Frankfurt), ICMPResponds: true, ProcMs: 0.7, FailP: 0.0765}),
		mk("dns0.eu", EU, false, netsim.Endpoint{
			Sites: sites(geo.Paris), ICMPResponds: true, ProcMs: 9, FailP: 0.0765}),
		mk("open.dns0.eu", EU, false, netsim.Endpoint{
			Sites: sites(geo.Paris), ICMPResponds: true, ProcMs: 4, FailP: 0.0765}),
		mk("kids.dns0.eu", EU, false, netsim.Endpoint{
			Sites: sites(geo.Paris), ICMPResponds: true, ProcMs: 4.5, FailP: 0.0765}),
		// FFMUC: Munich community resolver, still TLS 1.2, slow recursion;
		// the slowest European endpoint from Seoul (569 ms median, §4).
		mk("doh.ffmuc.net", EU, false, netsim.Endpoint{
			Sites: sites(geo.Nuremberg), ICMPResponds: true, ProcMs: 48,
			TLS12: true, FailP: 0.063}),
		mk("dns.njal.la", EU, false, netsim.Endpoint{
			Sites: sites(geo.Stockholm), ICMPResponds: true, ProcMs: 2.2, FailP: 0.0315}),
		mk("unicast.uncensoreddns.org", EU, false, netsim.Endpoint{
			Sites: sites(geo.Amsterdam), ICMPResponds: true, ProcMs: 2.4, FailP: 0.0405}),
		mk("anycast.uncensoreddns.org", EU, false, netsim.Endpoint{
			Sites: uncensoredAnycast, ICMPResponds: true, ProcMs: 2.2, FailP: 0.0315}),
		mk("doh.libredns.gr", EU, false, netsim.Endpoint{
			Sites: sites(geo.Athens), ICMPResponds: true, ProcMs: 3.0, FailP: 0.0522}),
		mk("dns.switch.ch", EU, false, netsim.Endpoint{
			Sites: sites(geo.Zurich), ICMPResponds: true, ProcMs: 1.6, FailP: 0.0216}),
		mk("dns.digitale-gesellschaft.ch", EU, false, netsim.Endpoint{
			Sites: sites(geo.Zurich), ICMPResponds: true, ProcMs: 2.0, FailP: 0.0315}),
		mk("dns.circl.lu", EU, false, netsim.Endpoint{
			Sites: sites(geo.Luxembourg), ICMPResponds: true, ProcMs: 2.8, FailP: 0.0405}),
		mk("dnsforge.de", EU, false, netsim.Endpoint{
			Sites: sites(geo.Frankfurt), ICMPResponds: true, ProcMs: 2.4, FailP: 0.0405}),
		mk("doh.dnscrypt.uk", EU, false, netsim.Endpoint{
			Sites: sites(geo.London), ICMPResponds: true, ProcMs: 2.2, FailP: 0.0405}),
		mk("v.dnscrypt.uk", EU, false, netsim.Endpoint{
			Sites: sites(geo.London), ICMPResponds: true, ProcMs: 2.4, FailP: 0.0405}),
		mk("dns1.ryan-palmer.com", EU, false, netsim.Endpoint{
			Sites: sites(geo.London), ICMPResponds: true, ProcMs: 3.4, FailP: 0.0765}),
		mk("doh.sb", EU, false, netsim.Endpoint{
			Sites: dohSBAnycast, ICMPResponds: false, ProcMs: 2.4, FailP: 0.0405}),
		mk("dns.digitalsize.net", EU, false, netsim.Endpoint{
			Sites: sites(geo.Frankfurt), ICMPResponds: true, ProcMs: 2.8, FailP: 0.0522}),
		mk("dns-doh.dnsforfamily.com", EU, false, netsim.Endpoint{
			Sites: sites(geo.Helsinki), ICMPResponds: true, ProcMs: 3.2, FailP: 0.0522}),
		mk("dns-doh-no-safe-search.dnsforfamily.com", EU, false, netsim.Endpoint{
			Sites: sites(geo.Helsinki), ICMPResponds: true, ProcMs: 3.4, FailP: 0.0522}),
		mk("dnsnl.alekberg.net", EU, false, netsim.Endpoint{
			Sites: sites(geo.Amsterdam), ICMPResponds: true, ProcMs: 2.6, FailP: 0.063}),
		mk("dnsnl-noads.alekberg.net", EU, false, netsim.Endpoint{
			Sites: sites(geo.Amsterdam), ICMPResponds: true, ProcMs: 2.8, FailP: 0.063}),
		mk("dnsse.alekberg.net", EU, false, netsim.Endpoint{
			Sites: sites(geo.Stockholm), ICMPResponds: true, ProcMs: 4.2, FailP: 0.0765}),
		mk("dnsse-noads.alekberg.net", EU, false, netsim.Endpoint{
			Sites: sites(geo.Stockholm), ICMPResponds: true, ProcMs: 4.4, FailP: 0.0765}),
		// Hobbyist Synology box on a Swiss home line: slow and flaky.
		mk("ibksturm.synology.me", EU, false, netsim.Endpoint{
			Sites: sites(geo.Zurich), ICMPResponds: false, ProcMs: 14,
			ProcSigma: 0.8, FailP: 0.144, FlakyP: 0.054}),
		mk("doh.nl.ahadns.net", EU, false, netsim.Endpoint{
			Sites: sites(geo.Amsterdam), ICMPResponds: true, ProcMs: 5.5,
			ProcSigma: 0.7, FailP: 0.0765}),
		mk("chewbacca.meganerd.nl", UN, false, netsim.Endpoint{
			Sites: sites(geo.Amsterdam), ICMPResponds: true, ProcMs: 3.8, FailP: 0.099}),

		// -------------------------- Asia group -------------------------
		// AliDNS: Asia anycast, beats the mainstream trio from Seoul.
		mk("dns.alidns.com", AS, false, netsim.Endpoint{
			Sites: alidnsAnycast, ICMPResponds: true, ProcMs: 0.9, FailP: 0.0765}),
		mk("public.dns.iij.jp", AS, false, netsim.Endpoint{
			Sites: sites(geo.Tokyo), ICMPResponds: true, ProcMs: 1.8, FailP: 0.0765}),
		mk("jp.tiar.app", AS, false, netsim.Endpoint{
			Sites: sites(geo.Tokyo), ICMPResponds: true, ProcMs: 2.6, FailP: 0.063}),
		mk("doh.tiar.app", AS, false, netsim.Endpoint{
			Sites: sites(geo.Singapore), ICMPResponds: true, ProcMs: 3.0, FailP: 0.063}),
		mk("dnslow.me", AS, false, netsim.Endpoint{
			Sites: sites(geo.Tokyo), ICMPResponds: true, ProcMs: 2.4, FailP: 0.0522}),
		mk("doh.pub", AS, false, netsim.Endpoint{
			Sites: sites(geo.Beijing), ICMPResponds: true, ProcMs: 2.2, FailP: 0.0522}),
		mk("doh.360.cn", AS, false, netsim.Endpoint{
			Sites: sites(geo.Beijing), ICMPResponds: false, ProcMs: 3.0, FailP: 0.0765}),
		// TWNIC: Taipei; Table 2's clean local-vs-remote contrast.
		mk("dns.twnic.tw", AS, false, netsim.Endpoint{
			Sites: sites(geo.Taipei), ICMPResponds: true, ProcMs: 2.0,
			ProcSigma: 0.6, FailP: 0.0522}),
		mk("dns.therifleman.name", AS, false, netsim.Endpoint{
			Sites: sites(geo.Mumbai), ICMPResponds: true, ProcMs: 3.2, FailP: 0.0765}),
		mk("dns.bebasid.com", AS, false, netsim.Endpoint{
			Sites: sites(geo.Jakarta), ICMPResponds: true, ProcMs: 3.4, FailP: 0.0765}),
		// antivirus.bebasid.com: variable from the distant EC2 vantages.
		mk("antivirus.bebasid.com", AS, false, netsim.Endpoint{
			Sites: sites(geo.Jakarta), ICMPResponds: true, ProcMs: 4.0,
			ProcSigma: 0.8, FailP: 0.099}),
		mk("sby-doh.limotelu.org", AS, false, netsim.Endpoint{
			Sites: sites(geo.Jakarta), ICMPResponds: true, ProcMs: 4.4, FailP: 0.099}),
		mk("pdns.itxe.net", AS, false, netsim.Endpoint{
			Sites: sites(geo.Jakarta), ICMPResponds: true, ProcMs: 5.0, FailP: 0.126}),

		// ------------------------ Oceania / other ----------------------
		mk("adl.adfilter.net", OC, false, netsim.Endpoint{
			Sites: sites(geo.Adelaide), ICMPResponds: true, ProcMs: 2.6, FailP: 0.0522}),
		mk("per.adfilter.net", OC, false, netsim.Endpoint{
			Sites: sites(geo.Perth), ICMPResponds: true, ProcMs: 2.6, FailP: 0.0522}),
		mk("syd.adfilter.net", OC, false, netsim.Endpoint{
			Sites: sites(geo.Sydney), ICMPResponds: true, ProcMs: 2.4, FailP: 0.0522}),
		mk("doh.seby.io", OC, false, netsim.Endpoint{
			Sites: sites(geo.Sydney), ICMPResponds: true, ProcMs: 3.6, FailP: 0.099}),
		mk("doh-2.seby.io", OC, false, netsim.Endpoint{
			Sites: sites(geo.Sydney), ICMPResponds: true, ProcMs: 3.8, FailP: 0.099}),
		// The paper: "6 resolvers were unable to return a location".
		mk("puredns.org", UN, false, netsim.Endpoint{
			Sites: sites(geo.Singapore), ICMPResponds: false, ProcMs: 3.4, FailP: 0.099}),
		mk("family.puredns.org", UN, false, netsim.Endpoint{
			Sites: sites(geo.Singapore), ICMPResponds: false, ProcMs: 3.6, FailP: 0.099}),
	}
}

// ResolverByHost finds one resolver; ok is false for unknown hosts.
func ResolverByHost(host string) (Resolver, bool) {
	p := population()
	i, ok := p.byHost[host]
	if !ok {
		return Resolver{}, false
	}
	return p.all[i], true
}

// ByRegion filters the population.
func ByRegion(region geo.Region) []Resolver {
	var out []Resolver
	for _, r := range population().all {
		if r.Region == region {
			out = append(out, r)
		}
	}
	return out
}

// Mainstream returns the browser-shipped resolvers in the population.
func Mainstream() []Resolver {
	var out []Resolver
	for _, r := range population().all {
		if r.Mainstream {
			out = append(out, r)
		}
	}
	return out
}
