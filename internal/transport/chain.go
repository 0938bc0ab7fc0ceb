package transport

import (
	"context"
	"fmt"
	"net"
	"strings"

	"encdns/internal/dialer"
	"encdns/internal/obs"
)

// ChainEndpoint is an endpoint plus the dialer-chain prefix that decides
// how its connections are established: "split:3|tlsfrag:sni|tls://9.9.9.9:853"
// is the tls endpoint reached through ClientHello fragmentation and a
// 3-byte first-segment split. An empty Layers slice is the plain dial
// every pre-chain endpoint string still means.
type ChainEndpoint struct {
	Endpoint
	// Layers are the chain layers, leftmost nearest the wire.
	Layers []dialer.Spec
}

// String reassembles the canonical chain-endpoint string; without layers
// it is exactly Endpoint.String, so plain endpoints round-trip unchanged.
func (c ChainEndpoint) String() string {
	if len(c.Layers) == 0 {
		return c.Endpoint.String()
	}
	return dialer.FormatSpecs(c.Layers) + "|" + c.Endpoint.String()
}

// ParseChain parses "layer|…|endpoint": everything before the last "|"
// is the dialer chain (see dialer.ParseSpecs for the layer vocabulary),
// the final element is an ordinary endpoint. Plain endpoint strings
// (no "|") parse with no layers, so every existing spec keeps working.
func ParseChain(s string) (ChainEndpoint, error) {
	s = strings.TrimSpace(s)
	i := strings.LastIndex(s, "|")
	if i < 0 {
		ep, err := ParseEndpoint(s)
		if err != nil {
			return ChainEndpoint{}, err
		}
		return ChainEndpoint{Endpoint: ep}, nil
	}
	if strings.TrimSpace(s[:i]) == "" {
		return ChainEndpoint{}, fmt.Errorf("transport: chain %q has an empty layer prefix", s)
	}
	specs, err := dialer.ParseSpecs(s[:i])
	if err != nil {
		return ChainEndpoint{}, fmt.Errorf("transport: chain %q: %w", s, err)
	}
	ep, err := ParseEndpoint(s[i+1:])
	if err != nil {
		return ChainEndpoint{}, err
	}
	if len(specs) > 0 && ep.Scheme == SchemeUDP {
		return ChainEndpoint{}, fmt.Errorf("transport: chain layers apply to stream schemes, not %q (%s)", ep.Scheme, s)
	}
	return ChainEndpoint{Endpoint: ep, Layers: specs}, nil
}

// ParseTarget resolves one target flag value (dnsdig -server, dnsmeasure
// -resolvers) into a chain-addressed endpoint. An explicit scheme
// (udp://, tcp://, tls://, https://) wins; a bare host[:port] takes its
// scheme from proto: "do53"/"udp" (default), "tcp", "dot"/"tls", or
// "doh"/"https". A dialer-chain prefix ("tlsfrag:sni|dns.quad9.net" with
// proto dot) applies to the endpoint element only — the proto default is
// filled in after the chain is stripped, so chains compose with bare hosts.
func ParseTarget(spec, proto string) (ChainEndpoint, error) {
	spec = strings.TrimSpace(spec)
	chain, ep := "", spec
	if i := strings.LastIndex(spec, "|"); i >= 0 {
		chain, ep = spec[:i+1], spec[i+1:]
	}
	if !strings.Contains(ep, "://") {
		scheme, err := schemeForProto(proto)
		if err != nil {
			return ChainEndpoint{}, err
		}
		ep = scheme + "://" + ep
	}
	return ParseChain(chain + ep)
}

// schemeForProto maps the -proto vocabulary onto endpoint schemes.
func schemeForProto(proto string) (string, error) {
	switch proto {
	case "", "do53", "udp":
		return SchemeUDP, nil
	case "tcp":
		return SchemeTCP, nil
	case "dot", "tls":
		return SchemeTLS, nil
	case "doh", "https":
		return SchemeHTTPS, nil
	}
	return "", fmt.Errorf("transport: unknown proto %q (want do53, tcp, dot, or doh)", proto)
}

// chainDialer is the one dial seam between an endpoint and its socket.
// It dials base (net.Dialer when the caller injected none), counts a
// failed dial once by scheme, and wraps a connection in the endpoint's
// chain layers (dialer.Wrap). ParseChain keeps layers off udp://
// endpoints, so a datagram dial passes through unwrapped.
type chainDialer struct {
	base     ContextDialer
	layers   []dialer.Spec
	failures *obs.Counter
}

// DialContext implements ContextDialer.
func (d *chainDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := d.base.DialContext(ctx, network, addr)
	if err != nil {
		d.failures.Inc()
		return nil, err
	}
	return dialer.Wrap(ctx, d.layers, conn), nil
}
