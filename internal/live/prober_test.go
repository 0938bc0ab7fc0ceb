package live

import (
	"testing"

	"encdns/internal/core"
	"encdns/internal/netsim"
)

// TestLabel pins what a campaign learns from a live prober: the records'
// protocol follows each endpoint's scheme, with Proto the fallback for
// an endpoint that does not parse; the Observer key is port-qualified;
// and a live prober never pings.
func TestLabel(t *testing.T) {
	p := &Prober{Proto: netsim.ProtoDoT}
	for _, tc := range []struct {
		endpoint, proto, key string
	}{
		{"udp://127.0.0.1:5353", "do53", "do53:127.0.0.1:5353"},
		{"127.0.0.1:5354", "do53", "do53:127.0.0.1:5354"},
		{"tcp://127.0.0.1:5353", "do53", "do53:127.0.0.1:5353"},
		{"tls://127.0.0.1:8853", "dot", "dot:127.0.0.1:8853"},
		{"https://127.0.0.1:8443/dns-query", "doh", "doh:127.0.0.1:8443"},
		{"https://dns.example/dns-query", "doh", "doh:dns.example:443"},
		{"gopher://x", "dot", "dot:live.test"},
		{"", "dot", "dot:live.test"},
	} {
		proto, key, pings := p.Label(core.Target{Host: "live.test", Endpoint: tc.endpoint})
		if proto != tc.proto || key != tc.key || pings {
			t.Errorf("Label(%q) = %q, %q, %v; want %q, %q, false", tc.endpoint, proto, key, pings, tc.proto, tc.key)
		}
	}
}
