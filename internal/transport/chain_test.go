package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"

	"encdns/internal/dialer"
)

func TestParseChain(t *testing.T) {
	cases := []struct {
		in      string
		want    string // canonical String form
		layers  int
		wantErr bool
	}{
		{in: "tls://9.9.9.9:853", want: "tls://9.9.9.9:853"},
		{in: "9.9.9.9", want: "udp://9.9.9.9:53"},
		{in: "tlsfrag:sni|tls://9.9.9.9:853", want: "tlsfrag:sni|tls://9.9.9.9:853", layers: 1},
		{in: "split:3|tlsfrag:sni|tls://9.9.9.9", want: "split:3|tlsfrag:sni|tls://9.9.9.9:853", layers: 2},
		{in: "delay:50ms|https://dns.example/dns-query", want: "delay:50ms|https://dns.example/dns-query", layers: 1},
		{in: "split:2|tcp://9.9.9.9:53", want: "split:2|tcp://9.9.9.9:53", layers: 1},
		{in: "split:3|udp://9.9.9.9:53", wantErr: true}, // stream layers on a datagram scheme
		{in: "split:3|9.9.9.9", wantErr: true},          // ditto, scheme defaulted
		{in: "bogus:1|tls://9.9.9.9", wantErr: true},
		{in: "tlsfrag:sni|", wantErr: true},
		{in: "|tls://9.9.9.9", wantErr: true},
	}
	for _, tc := range cases {
		ce, err := ParseChain(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseChain(%q): want error, got %v", tc.in, ce)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseChain(%q): %v", tc.in, err)
			continue
		}
		if got := ce.String(); got != tc.want {
			t.Errorf("ParseChain(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
		if len(ce.Layers) != tc.layers {
			t.Errorf("ParseChain(%q) layers = %d, want %d", tc.in, len(ce.Layers), tc.layers)
		}
		// Canonical form is a fixed point.
		again, err := ParseChain(ce.String())
		if err != nil || again.String() != ce.String() {
			t.Errorf("canonical %q does not re-parse to itself: %q, %v", ce.String(), again.String(), err)
		}
	}
}

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

// TestEndpointRoundTrip: bracketed IPv6 literals — with and without zone
// IDs — and scheme-default ports must round-trip identically through
// ParseEndpoint, Endpoint.String, and ParseTarget, for every scheme.
// String output must itself be a parse fixed point, so canonical forms
// are stable however many times they cross a flag or a report.
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
		ep, err := ParseEndpoint(tc.spec)
		if err != nil {
			t.Errorf("ParseEndpoint(%q): %v", tc.spec, err)
			continue
		}
		if got := ep.String(); got != tc.want {
			t.Errorf("ParseEndpoint(%q).String() = %q, want %q", tc.spec, got, tc.want)
		}
		// The canonical form must be a fixed point of parse → String.
		again, err := ParseEndpoint(tc.want)
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

// TestPoolChainIdentity: the same endpoint with different chains must be
// distinct pooled exchangers — they establish connections differently.
func TestPoolChainIdentity(t *testing.T) {
	p := NewPool(Options{})
	defer p.Close()
	a, err := p.Get("tls://9.9.9.9:853")
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Get("tlsfrag:sni|tls://9.9.9.9:853")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("plain and chained endpoints share one exchanger")
	}
	// Same chain spec → same exchanger.
	b2, err := p.Get("tlsfrag:sni|tls://9.9.9.9:853")
	if err != nil {
		t.Fatal(err)
	}
	if b != b2 {
		t.Error("identical chain endpoint dialled twice")
	}
}

// dialFunc adapts a function to ContextDialer.
type dialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

func (f dialFunc) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	return f(ctx, network, addr)
}

// TestChainDialer: a failed base dial comes back bare — no conn, the base
// error unlabelled, one failure counted — and a dial that succeeds comes
// back wrapped in the chain's layers.
func TestChainDialer(t *testing.T) {
	layers, err := dialer.ParseSpecs("split:3|tlsfrag:sni")
	if err != nil {
		t.Fatal(err)
	}
	failures := schemeInstruments[SchemeTLS].dialFailures
	refused := errors.New("refused")
	d := &chainDialer{
		base:     dialFunc(func(context.Context, string, string) (net.Conn, error) { return nil, refused }),
		layers:   layers,
		failures: failures,
	}
	before := failures.Value()
	conn, err := d.DialContext(context.Background(), "tcp", "192.0.2.1:853")
	var le *dialer.LayerError
	if conn != nil || !errors.Is(err, refused) || errors.As(err, &le) {
		t.Errorf("failed dial = %v, %v; want no conn and the base error as it is", conn, err)
	}
	if got := failures.Value(); got != before+1 {
		t.Errorf("dial failures = %d, want %d", got, before+1)
	}

	client, server := net.Pipe()
	defer server.Close()
	d.base = dialFunc(func(context.Context, string, string) (net.Conn, error) { return client, nil })
	conn, err = d.DialContext(context.Background(), "tcp", "192.0.2.1:853")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Write([]byte("not tls"))
	head := make([]byte, 16)
	n, err := server.Read(head)
	if err != nil || string(head[:n]) != "not" {
		t.Errorf("first segment = %q, %v; want the split layer's 3-byte head", head[:n], err)
	}
	if rest, _ := io.ReadAll(io.LimitReader(server, 4)); string(rest) != " tls" {
		t.Errorf("second segment = %q, want %q", rest, " tls")
	}
	if got := failures.Value(); got != before+1 {
		t.Errorf("a good dial moved the failure counter to %d", got)
	}
}
