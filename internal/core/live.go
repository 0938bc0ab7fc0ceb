package core

import (
	"context"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/netsim"
	"encdns/internal/transport"
)

// LiveProber measures real resolvers through the shared transport layer,
// timing each exchange end to end — the §3.1 definition of DNS query
// response time ("the end-to-end time it takes for a client to initiate a
// query and receive a response"). Protocol selection happens entirely in
// the target's scheme-addressed endpoint (udp://, tcp://, tls://,
// https://), so one prober measures all transports with one policy.
type LiveProber struct {
	// Transport performs the exchanges; a transport.Pool configured with
	// the campaign's TLS/timeout/retry options is the usual value.
	Transport transport.Multi
	// Proto labels this prober's records (the campaign's protocol
	// column); it does not affect the exchange path.
	Proto netsim.Protocol
}

// Query implements Prober with a wall-clock-timed live exchange of one A
// query against the target's endpoint.
func (p *LiveProber) Query(ctx context.Context, _ netsim.Vantage, t Target, domain string, _ int) QueryOutcome {
	if p.Transport == nil {
		return QueryOutcome{Err: netsim.ErrConnect}
	}
	q := dnswire.NewQuery(dns53.NewID(), domain, dnswire.TypeA)
	start := time.Now()
	resp, err := p.Transport.Exchange(ctx, q, t.Endpoint)
	elapsed := time.Since(start)
	if err != nil {
		return QueryOutcome{Duration: elapsed, Err: transport.Classify(err)}
	}
	out := QueryOutcome{Duration: elapsed, RCode: resp.Header.RCode}
	if resp.Header.RCode != dnswire.RCodeSuccess && resp.Header.RCode != dnswire.RCodeNXDomain {
		out.Err = netsim.ErrDNS
	}
	return out
}

// Ping implements Prober. Raw ICMP needs privileges, so a live prober
// sends none and never answers; NewCampaign skips pings for it rather than
// record every resolver as silent.
func (p *LiveProber) Ping(context.Context, netsim.Vantage, Target, int) PingOutcome {
	return PingOutcome{}
}
