package loadgen

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"encdns/internal/transport"
)

// Target/protocol flag parsing shared by every CLI (dnsload, dnsdig,
// dnsmeasure), so "-server"/"-targets" plus a legacy "-proto" behave
// identically everywhere instead of drifting per command.

// ParseTarget resolves one target flag value into a chain-addressed
// endpoint. An explicit scheme (udp://, tcp://, tls://, https://) wins; a
// bare host[:port] takes its scheme from proto: "do53"/"udp" (default),
// "tcp", "dot"/"tls", or "doh"/"https". A dialer-chain prefix
// ("tlsfrag:sni|dns.quad9.net" with -proto dot) applies to the endpoint
// element only — the proto default is filled in after the chain is
// stripped, so chains compose with bare hosts.
func ParseTarget(spec, proto string) (transport.ChainEndpoint, error) {
	spec = strings.TrimSpace(spec)
	chain, ep := "", spec
	if i := strings.LastIndex(spec, "|"); i >= 0 {
		chain, ep = spec[:i+1], spec[i+1:]
	}
	if !strings.Contains(ep, "://") {
		scheme, err := schemeForProto(proto)
		if err != nil {
			return transport.ChainEndpoint{}, err
		}
		ep = scheme + "://" + ep
	}
	return transport.ParseChain(chain + ep)
}

// schemeForProto maps the legacy -proto vocabulary onto endpoint schemes.
func schemeForProto(proto string) (string, error) {
	switch proto {
	case "", "do53", "udp":
		return transport.SchemeUDP, nil
	case "tcp":
		return transport.SchemeTCP, nil
	case "dot", "tls":
		return transport.SchemeTLS, nil
	case "doh", "https":
		return transport.SchemeHTTPS, nil
	}
	return "", fmt.Errorf("loadgen: unknown proto %q (want do53, tcp, dot, or doh)", proto)
}

// ParseTargetMix parses a weighted endpoint-mix flag: comma-separated
// target[=weight] entries, each target resolved like ParseTarget:
//
//	udp://127.0.0.1:5353=3,https://127.0.0.1:8443/dns-query=1
//	dns.quad9.net=1,tls://dns.google:853=1          (bare names follow proto)
//
// A bare target gets weight 1. A trailing =N is a weight when N parses as
// a number and the text before it does not end in a query parameter
// without a value: "https://h/dns-query?x=2" is one URL of weight 1,
// "https://h/dns-query?x=2=3" the same URL of weight 3.
func ParseTargetMix(spec, proto string) ([]WeightedEndpoint, error) {
	var out []WeightedEndpoint
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		target, weight := part, 1.0
		if i := strings.LastIndexByte(part, '='); i >= 0 && !endsInBareParam(part[:i]) {
			if w, err := strconv.ParseFloat(part[i+1:], 64); err == nil {
				if w <= 0 {
					return nil, fmt.Errorf("loadgen: endpoint weight %q: want a positive number", part)
				}
				target, weight = part[:i], w
			}
		}
		ep, err := ParseTarget(target, proto)
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedEndpoint{Endpoint: ep.String(), Weight: weight})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadgen: empty target mix")
	}
	return out, nil
}

// endsInBareParam reports whether s has a query string whose last
// parameter has no '=' yet, so an '=' after s is that parameter's value.
func endsInBareParam(s string) bool {
	q := strings.IndexByte(s, '?')
	if q < 0 {
		return false
	}
	query := s[q+1:]
	return !strings.Contains(query[strings.LastIndexByte(query, '&')+1:], "=")
}

// SendFunc performs one exchange for the generator and reports whether
// it succeeded. Implementations must be safe for concurrent use; the
// open-loop engine calls it from many in-flight goroutines.
type SendFunc func(ctx context.Context, q Query) error

// Sender turns an endpoint mix into a SendFunc over the shared transport
// layer. Queries are sent with a single attempt each — a load generator
// must not let the retry middleware amplify offered load behind its back.
type Sender struct {
	pool *transport.Pool
}

// NewSender builds a sender dialling endpoints with opts. The retry
// policy is forced to one attempt; everything else (TLS roots, timeout,
// connection reuse) passes through.
func NewSender(opts transport.Options) *Sender {
	noRetry := transport.NoRetry()
	opts.Retry = &noRetry
	return &Sender{pool: transport.NewPool(opts)}
}

// Send implements SendFunc.
func (s *Sender) Send(ctx context.Context, q Query) error {
	resp, err := s.pool.Exchange(ctx, q.Msg, q.Endpoint)
	if err != nil {
		return err
	}
	if resp == nil {
		return fmt.Errorf("loadgen: nil response")
	}
	return nil
}

// Close releases every dialled exchanger.
func (s *Sender) Close() error { return s.pool.Close() }
