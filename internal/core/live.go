package core

import (
	"context"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/netsim"
	"encdns/internal/transport"
)

// Pinger measures round-trip time to a host with one ICMP echo (§3.1:
// "we also issued a ICMP ping message and noted the round-trip time").
type Pinger interface {
	// Ping sends one echo request to host and returns the round-trip
	// time, or an error when no reply arrives.
	Ping(ctx context.Context, host string) (time.Duration, error)
}

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
	// Pinger measures ICMP RTT. Raw ICMP needs privileges and no pinger
	// ships here, so nil is the usual value: a campaign then issues no
	// pings rather than record every resolver as silent.
	Pinger Pinger
	// QueryType is the record type queried; default A.
	QueryType dnswire.Type
	// EDNSSize advertises an EDNS0 buffer size on queries when non-zero.
	EDNSSize uint16
	// Proto labels this prober's records (the campaign's protocol
	// column); it does not affect the exchange path.
	Proto netsim.Protocol
}

func (p *LiveProber) qtype() dnswire.Type {
	if p.QueryType != dnswire.TypeNone {
		return p.QueryType
	}
	return dnswire.TypeA
}

// Query implements Prober with a wall-clock-timed live exchange against
// the target's endpoint.
func (p *LiveProber) Query(ctx context.Context, _ netsim.Vantage, t Target, domain string, _ int) QueryOutcome {
	if p.Transport == nil {
		return QueryOutcome{Err: netsim.ErrConnect}
	}
	q := dnswire.NewQuery(dns53.NewID(), domain, p.qtype())
	if p.EDNSSize > 0 {
		q.SetEDNS(p.EDNSSize, false)
	}
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

// Ping implements Prober via the configured Pinger.
func (p *LiveProber) Ping(ctx context.Context, _ netsim.Vantage, t Target, _ int) PingOutcome {
	if p.Pinger == nil {
		return PingOutcome{}
	}
	rtt, err := p.Pinger.Ping(ctx, t.Host)
	if err != nil {
		return PingOutcome{}
	}
	return PingOutcome{RTT: rtt, OK: true}
}
