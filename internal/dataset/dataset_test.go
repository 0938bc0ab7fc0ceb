package dataset

import (
	"strings"
	"testing"

	"encdns/internal/geo"
	"encdns/internal/netsim"
)

func TestPopulationShape(t *testing.T) {
	rs := Resolvers()
	if len(rs) != 75 {
		t.Errorf("population = %d resolvers, want the 75 appendix hosts", len(rs))
	}
	seen := make(map[string]bool)
	for _, r := range rs {
		if seen[r.Host] {
			t.Errorf("duplicate host %s", r.Host)
		}
		seen[r.Host] = true
		if len(r.Net.Sites) == 0 {
			t.Errorf("%s has no sites", r.Host)
		}
		if r.Net.ProcMs <= 0 {
			t.Errorf("%s has no processing time", r.Host)
		}
		if !strings.HasPrefix(r.Endpoint, "https://") || !strings.HasSuffix(r.Endpoint, "/dns-query") {
			t.Errorf("%s endpoint = %q", r.Host, r.Endpoint)
		}
		if r.Net.Name != r.Host {
			t.Errorf("%s: endpoint name mismatch %q", r.Host, r.Net.Name)
		}
	}
}

func TestMainstreamSet(t *testing.T) {
	ms := Mainstream()
	if len(ms) != 11 {
		t.Errorf("mainstream = %d, want 11 endpoints", len(ms))
	}
	for _, r := range ms {
		if len(r.Net.Sites) < 10 {
			t.Errorf("mainstream %s has only %d sites; should be global anycast", r.Host, len(r.Net.Sites))
		}
		if r.Net.FailP > 0.01 {
			t.Errorf("mainstream %s FailP = %v; should be highly reliable", r.Host, r.Net.FailP)
		}
	}
}

func TestRegionTallies(t *testing.T) {
	// The paper's §3.2 tally: 18 NA, 33 EU, 13 Asia, 6 unlocated. Our
	// population tags 1dot1dot1dot1 (not in any figure) NA too, so NA can
	// exceed 18 by the odd extra; Asia must be exactly 13.
	if n := len(ByRegion(geo.Asia)); n != 13 {
		t.Errorf("asia = %d, want 13", n)
	}
	if n := len(ByRegion(geo.Europe)); n < 28 || n > 35 {
		t.Errorf("europe = %d, want ~33", n)
	}
	if n := len(ByRegion(geo.NorthAmerica)); n < 18 || n > 28 {
		t.Errorf("north america = %d, want >= 18", n)
	}
	if n := len(ByRegion(geo.Unknown)); n < 2 {
		t.Errorf("unknown = %d", n)
	}
}

func TestVantages(t *testing.T) {
	vs := Vantages()
	if len(vs) != 7 {
		t.Fatalf("vantages = %d", len(vs))
	}
	homes, ec2 := HomeVantages(), EC2Vantages()
	if len(homes) != 4 || len(ec2) != 3 {
		t.Fatalf("homes=%d ec2=%d", len(homes), len(ec2))
	}
	for _, v := range homes {
		if v.Access != netsim.AccessHome {
			t.Errorf("%s access = %v", v.Name, v.Access)
		}
		if geo.DistanceKm(v.Coord, geo.Chicago) > 1 {
			t.Errorf("%s is %0.2f km from Chicago; homes share one complex",
				v.Name, geo.DistanceKm(v.Coord, geo.Chicago))
		}
	}
	for _, v := range ec2 {
		if v.Access != netsim.AccessDatacenter {
			t.Errorf("%s access = %v", v.Name, v.Access)
		}
	}
	if _, ok := VantageByName(VantageSeoul); !ok {
		t.Error("seoul vantage missing")
	}
	if _, ok := VantageByName("nowhere"); ok {
		t.Error("unknown vantage found")
	}
}

func TestFigureGroups(t *testing.T) {
	na, eu, as := NAGroup(), EUGroup(), AsiaGroup()
	if len(na) != 21 {
		t.Errorf("NA group = %d rows, want 21 (Figure 1)", len(na))
	}
	if len(eu) != 37 {
		t.Errorf("EU group = %d rows, want 37 (Figure 3)", len(eu))
	}
	if len(as) != 18 {
		t.Errorf("Asia group = %d rows, want 18 (Figure 4)", len(as))
	}
	// The overlay resolvers appear in all three groups.
	for _, overlay := range []string{"dns9.quad9.net", "ordns.he.net",
		"security.cloudflare-dns.com", "family.cloudflare-dns.com"} {
		for name, g := range map[string][]Resolver{"NA": na, "EU": eu, "Asia": as} {
			if !containsHost(g, overlay) {
				t.Errorf("%s group missing overlay resolver %s", name, overlay)
			}
		}
	}
	// Non-mainstream Asia rows must be exactly the 13 Asia-located hosts.
	nonMain := 0
	for _, r := range as {
		if !r.Mainstream && r.Region == geo.Asia {
			nonMain++
		}
	}
	if nonMain != 13 {
		t.Errorf("asia group non-mainstream = %d, want 13", nonMain)
	}
}

func containsHost(rs []Resolver, host string) bool {
	for _, r := range rs {
		if r.Host == host {
			return true
		}
	}
	return false
}

func TestResolverByHost(t *testing.T) {
	r, ok := ResolverByHost("dns.google")
	if !ok || !r.Mainstream {
		t.Errorf("dns.google = %+v, %v", r, ok)
	}
	if _, ok := ResolverByHost("dns.invalid"); ok {
		t.Error("unknown host found")
	}
}

func TestBrowserMatrixShape(t *testing.T) {
	if len(Browsers) != 5 || len(Providers) != 6 {
		t.Fatalf("matrix = %d browsers × %d providers", len(Browsers), len(Providers))
	}
	// Spot checks from Table 1.
	if !BrowserMatrix["Firefox"]["Cloudflare"] || !BrowserMatrix["Firefox"]["NextDNS"] {
		t.Error("Firefox row wrong")
	}
	if BrowserMatrix["Firefox"]["Google"] {
		t.Error("Firefox should not list Google")
	}
	if !BrowserMatrix["Brave"]["Quad9"] || !BrowserMatrix["Edge"]["OpenDNS"] {
		t.Error("Brave/Edge rows wrong")
	}
	if BrowserMatrix["Opera"]["Quad9"] {
		t.Error("Opera should not list Quad9")
	}
	// Every browser must offer Cloudflare (the one universal choice).
	for _, b := range Browsers {
		if !BrowserMatrix[b]["Cloudflare"] {
			t.Errorf("%s missing Cloudflare", b)
		}
	}
}

func TestDomains(t *testing.T) {
	if len(Domains) != 3 {
		t.Fatalf("domains = %v", Domains)
	}
	for _, want := range []string{"google.com", "amazon.com", "wikipedia.com"} {
		found := false
		for _, d := range Domains {
			if d == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing domain %s", want)
		}
	}
}

func TestODoHTargetsGeolocationArtifact(t *testing.T) {
	for _, host := range []string{
		"odoh-target.alekberg.net", "odoh-target-se.alekberg.net",
		"odoh-target-noads.alekberg.net", "odoh-target-noads-se.alekberg.net",
	} {
		r, ok := ResolverByHost(host)
		if !ok {
			t.Fatalf("missing %s", host)
		}
		if r.Region != geo.NorthAmerica {
			t.Errorf("%s region = %v; the paper's geolocation groups these NA", host, r.Region)
		}
	}
}
