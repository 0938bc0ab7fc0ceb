package loadgen

import (
	"testing"

	"encdns/internal/dnswire"
	"encdns/internal/transport"
)

func TestParseTarget(t *testing.T) {
	for _, tc := range []struct {
		spec, proto string
		want        string // canonical endpoint string; "" means error
	}{
		{"1.1.1.1", "", "udp://1.1.1.1:53"},
		{"1.1.1.1", "do53", "udp://1.1.1.1:53"},
		{"1.1.1.1:5353", "udp", "udp://1.1.1.1:5353"},
		{"9.9.9.9", "tcp", "tcp://9.9.9.9:53"},
		{"dns.google", "dot", "tls://dns.google:853"},
		{"dns.google", "tls", "tls://dns.google:853"},
		{"cloudflare-dns.com", "doh", "https://cloudflare-dns.com/dns-query"},
		{"cloudflare-dns.com", "https", "https://cloudflare-dns.com/dns-query"},
		// An explicit scheme wins over -proto.
		{"tls://9.9.9.9", "doh", "tls://9.9.9.9:853"},
		{"https://dns.google/dns-query", "do53", "https://dns.google/dns-query"},
		{"1.1.1.1", "carrier-pigeon", ""},
		{"ftp://example.com", "", ""},
	} {
		ep, err := ParseTarget(tc.spec, tc.proto)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ParseTarget(%q, %q) = %v, want error", tc.spec, tc.proto, ep)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTarget(%q, %q): %v", tc.spec, tc.proto, err)
			continue
		}
		if got := ep.String(); got != tc.want {
			t.Errorf("ParseTarget(%q, %q) = %q, want %q", tc.spec, tc.proto, got, tc.want)
		}
	}
}

func TestParseTargetMix(t *testing.T) {
	mix, err := ParseTargetMix("udp://1.1.1.1=3, tls://9.9.9.9:853=1.5, dns.google", "doh")
	if err != nil {
		t.Fatal(err)
	}
	want := []WeightedEndpoint{
		{Endpoint: "udp://1.1.1.1:53", Weight: 3},
		{Endpoint: "tls://9.9.9.9:853", Weight: 1.5},
		// The bare name follows -proto and defaults to weight 1.
		{Endpoint: "https://dns.google/dns-query", Weight: 1},
	}
	if len(mix) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(mix), len(want), mix)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, mix[i], want[i])
		}
	}

	// A '=' inside an https query string is not a weight separator, even
	// when the parameter's value is a number.
	for _, tc := range []struct {
		spec     string
		endpoint string
		weight   float64
	}{
		{"https://dns.example/dns-query?x=y", "https://dns.example/dns-query?x=y", 1},
		{"https://dns.example/dns-query?x=2", "https://dns.example/dns-query?x=2", 1},
		{"https://dns.example/dns-query?x=0", "https://dns.example/dns-query?x=0", 1},
		{"https://dns.example/dns-query?a=b&x=2", "https://dns.example/dns-query?a=b&x=2", 1},
		{"https://dns.example/dns-query?x=2=3", "https://dns.example/dns-query?x=2", 3},
		{"https://dns.example/dns-query=2", "https://dns.example/dns-query", 2},
	} {
		mix, err := ParseTargetMix(tc.spec, "")
		if err != nil {
			t.Errorf("ParseTargetMix(%q): %v", tc.spec, err)
			continue
		}
		if want := (WeightedEndpoint{Endpoint: tc.endpoint, Weight: tc.weight}); len(mix) != 1 || mix[0] != want {
			t.Errorf("ParseTargetMix(%q) = %+v, want [%+v]", tc.spec, mix, want)
		}
	}

	for _, bad := range []string{"", "udp://1.1.1.1=0", "udp://1.1.1.1=-2", "ftp://x"} {
		if _, err := ParseTargetMix(bad, ""); err == nil {
			t.Errorf("ParseTargetMix(%q): want error", bad)
		}
	}
}

func TestParseQTypeMix(t *testing.T) {
	mix, err := ParseQTypeMix("A=10, aaaa=3,HTTPS")
	if err != nil {
		t.Fatal(err)
	}
	want := []WeightedQType{
		{Type: dnswire.TypeA, Weight: 10},
		{Type: dnswire.TypeAAAA, Weight: 3},
		{Type: dnswire.TypeHTTPS, Weight: 1},
	}
	if len(mix) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(mix), len(want), mix)
	}
	for i := range want {
		if mix[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, mix[i], want[i])
		}
	}
	for _, bad := range []string{"", "BOGUS", "A=0", "A=x"} {
		if _, err := ParseQTypeMix(bad); err == nil {
			t.Errorf("ParseQTypeMix(%q): want error", bad)
		}
	}
}

// TestSamplerDeterminism: one seed, one query stream.
func TestSamplerDeterminism(t *testing.T) {
	m := &Mix{
		Domains: []string{"a.example.", "b.example.", "c.example.", "d.example."},
		QTypes:  []WeightedQType{{Type: dnswire.TypeA, Weight: 3}, {Type: dnswire.TypeAAAA, Weight: 1}},
		Endpoints: []WeightedEndpoint{
			{Endpoint: "udp://127.0.0.1:53", Weight: 1},
			{Endpoint: "tls://127.0.0.1:853", Weight: 1},
		},
	}
	a, b := m.newSampler(77), m.newSampler(77)
	for i := 0; i < 200; i++ {
		qa, qb := a.next(), b.next()
		if qa.Endpoint != qb.Endpoint ||
			qa.Msg.Question0().Name != qb.Msg.Question0().Name ||
			qa.Msg.Question0().Type != qb.Msg.Question0().Type {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, qa, qb)
		}
	}
}

// TestSamplerZipfSkew: under the default skew the rank-1 domain
// dominates the draw, which is the whole point of a popularity mix.
func TestSamplerZipfSkew(t *testing.T) {
	domains := make([]string, 100)
	for i := range domains {
		domains[i] = rankName(i)
	}
	m := &Mix{Domains: domains, ZipfS: 1.2}
	s := m.newSampler(1)
	counts := map[string]int{}
	const draws = 5000
	for i := 0; i < draws; i++ {
		counts[s.next().Msg.Question0().Name]++
	}
	head := counts[rankName(0)]
	if head < draws/5 {
		t.Fatalf("rank-1 domain drew %d/%d, want a heavy head under Zipf s=1.2", head, draws)
	}
	tail := counts[rankName(99)]
	if tail >= head {
		t.Fatalf("tail (%d) outdrew head (%d); skew is broken", tail, head)
	}
}

func rankName(i int) string {
	return "rank" + string(rune('a'+i/26)) + string(rune('a'+i%26)) + ".example."
}

// TestEndpointRoundTrip: bracketed IPv6 literals — with and without zone
// IDs — and scheme-default ports must round-trip identically through
// transport.ParseEndpoint, Endpoint.String, and ParseTarget, for every
// scheme. String output must itself be a parse fixed point, so canonical
// forms are stable however many times they cross a flag or a report.
func TestEndpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // canonical form
	}{
		// Scheme-default ports materialise at parse time for socket schemes…
		{"udp://1.1.1.1", "udp://1.1.1.1:53"},
		{"tcp://9.9.9.9", "tcp://9.9.9.9:53"},
		{"tls://dns.google", "tls://dns.google:853"},
		// …and stay implicit for https (the URL convention).
		{"https://dns.google", "https://dns.google/dns-query"},
		{"https://dns.google:443/dns-query", "https://dns.google/dns-query"},
		// Bracketed IPv6 literals, default and explicit ports.
		{"udp://[2001:db8::1]", "udp://[2001:db8::1]:53"},
		{"tcp://[2001:db8::1]:5353", "tcp://[2001:db8::1]:5353"},
		{"tls://[2001:db8::1]", "tls://[2001:db8::1]:853"},
		{"https://[2001:db8::1]/dns-query", "https://[2001:db8::1]/dns-query"},
		{"https://[2001:db8::1]:8443/dns-query", "https://[2001:db8::1]:8443/dns-query"},
		// Zone IDs: raw in host:port schemes, RFC 6874 %25-escaped in URLs.
		{"udp://[fe80::1%eth0]", "udp://[fe80::1%eth0]:53"},
		{"tcp://[fe80::1%eth0]:5353", "tcp://[fe80::1%eth0]:5353"},
		{"tls://[fe80::1%eth0]", "tls://[fe80::1%eth0]:853"},
		{"https://[fe80::1%25eth0]/dns-query", "https://[fe80::1%25eth0]/dns-query"},
		{"https://[fe80::1%25eth0]:8443/dns-query", "https://[fe80::1%25eth0]:8443/dns-query"},
	} {
		ep, err := transport.ParseEndpoint(tc.spec)
		if err != nil {
			t.Errorf("ParseEndpoint(%q): %v", tc.spec, err)
			continue
		}
		if got := ep.String(); got != tc.want {
			t.Errorf("ParseEndpoint(%q).String() = %q, want %q", tc.spec, got, tc.want)
		}
		// The canonical form must be a fixed point of parse → String.
		again, err := transport.ParseEndpoint(tc.want)
		if err != nil {
			t.Errorf("re-parse %q: %v", tc.want, err)
		} else if again != ep {
			t.Errorf("re-parse %q = %+v, want %+v", tc.want, again, ep)
		}
		// ParseTarget must agree with ParseEndpoint on every spelling.
		ce, err := ParseTarget(tc.spec, "")
		if err != nil {
			t.Errorf("ParseTarget(%q): %v", tc.spec, err)
		} else if ce.String() != tc.want || ce.Endpoint != ep {
			t.Errorf("ParseTarget(%q) = %q (%+v), want %q (%+v)", tc.spec, ce.String(), ce.Endpoint, tc.want, ep)
		}
	}
}
