// Package live measures resolvers over real connections: Prober, the
// campaign's prober for real endpoints, and the reachability scenario
// that probes endpoints through dialer.VirtualNet middleboxes. It is
// where the measurement engine meets the protocol clients, so core,
// experiment and netsim, which the paper's simulation links, import no
// network code.
package live

import (
	"context"
	"time"

	"encdns/internal/core"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/netsim"
	"encdns/internal/transport"
)

// Prober measures real resolvers through the shared transport layer,
// timing each exchange end to end — the §3.1 definition of DNS query
// response time ("the end-to-end time it takes for a client to initiate a
// query and receive a response"). Protocol selection happens entirely in
// the target's scheme-addressed endpoint (udp://, tcp://, tls://,
// https://), so one prober measures all transports with one policy.
type Prober struct {
	// Transport performs the exchanges; a transport.Pool configured with
	// the campaign's TLS/timeout/retry options is the usual value.
	Transport transport.Multi
	// Proto labels this prober's records (the campaign's protocol
	// column); it does not affect the exchange path.
	Proto netsim.Protocol
}

// Query implements core.Prober with a wall-clock-timed live exchange of
// one A query against the target's endpoint.
func (p *Prober) Query(ctx context.Context, _ netsim.Vantage, t core.Target, domain string, _ int) core.QueryOutcome {
	if p.Transport == nil {
		return core.QueryOutcome{Err: netsim.ErrConnect}
	}
	q := dnswire.NewQuery(dns53.NewID(), domain, dnswire.TypeA)
	start := time.Now()
	resp, err := p.Transport.Exchange(ctx, q, t.Endpoint)
	elapsed := time.Since(start)
	if err != nil {
		return core.QueryOutcome{Duration: elapsed, Err: transport.Classify(err)}
	}
	out := core.QueryOutcome{Duration: elapsed, RCode: resp.Header.RCode}
	if resp.Header.RCode != dnswire.RCodeSuccess && resp.Header.RCode != dnswire.RCodeNXDomain {
		out.Err = netsim.ErrDNS
	}
	return out
}

// Ping implements core.Prober. Raw ICMP needs privileges, so a live
// prober sends none and never answers; Label tells the campaign to skip
// pings rather than record every resolver as silent.
func (p *Prober) Ping(context.Context, netsim.Vantage, core.Target, int) core.PingOutcome {
	return core.PingOutcome{}
}

// Label implements core.Labeler. Live targets are scheme-addressed, so
// the records' protocol follows each target's endpoint (a campaign can
// mix udp:// and https:// targets), with Proto the fallback for an
// unparsable endpoint; the Observer key is port-qualified so two
// resolvers on one host (or one host probed over two ports) track
// independently. A live prober never pings.
func (p *Prober) Label(t core.Target) (proto, key string, pings bool) {
	proto, key = p.Proto.String(), t.Host
	if ep, err := transport.ParseEndpoint(t.Endpoint); err == nil {
		switch ep.Scheme {
		case transport.SchemeUDP, transport.SchemeTCP:
			proto = "do53"
		case transport.SchemeTLS:
			proto = "dot"
		case transport.SchemeHTTPS:
			proto = "doh"
		}
		key = ep.Addr()
	}
	return proto, proto + ":" + key, false
}
