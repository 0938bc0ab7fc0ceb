package core

import (
	"context"

	"encdns/internal/netsim"
)

// Prober issues one query or ping from a vantage point to a target. The
// round index keys the simulator's deterministic random streams; live
// probers ignore it.
type Prober interface {
	Query(ctx context.Context, v netsim.Vantage, t Target, domain string, round int) QueryOutcome
	Ping(ctx context.Context, v netsim.Vantage, t Target, round int) PingOutcome
}

// Labeler is the optional side of a Prober that knows its targets better
// than the campaign does (live.Prober addresses them by endpoint). Label
// returns the records' protocol label for t, the key the Observer tracks
// t under, and whether Ping can answer at all; a campaign whose prober
// cannot ping skips every ping. Without it a campaign labels records
// with SimProber's protocol (else "doh"), keys them "proto:host" and
// pings.
type Labeler interface {
	Label(t Target) (proto, key string, pings bool)
}

// SimProber probes through the discrete-event network model.
type SimProber struct {
	// Net is the simulated internet.
	Net *netsim.Net
	// Protocol selects the query transport; default DoH.
	Protocol netsim.Protocol
	// Reuse selects established-connection queries instead of the fresh
	// dig-style connections the paper measures.
	Reuse bool
}

// Query implements Prober over the network model.
func (p *SimProber) Query(_ context.Context, v netsim.Vantage, t Target, domain string, round int) QueryOutcome {
	res := p.Net.Query(v, &t.Net, p.Protocol, p.Reuse, round, domain)
	out := QueryOutcome{Duration: res.Duration, Err: res.Err}
	if res.Err == netsim.OK {
		out.RCode = 0 // NOERROR; the model answers popular cached domains
	}
	return out
}

// Ping implements Prober over the network model.
func (p *SimProber) Ping(_ context.Context, v netsim.Vantage, t Target, round int) PingOutcome {
	rtt, ok := p.Net.Ping(v, &t.Net, round)
	return PingOutcome{RTT: rtt, OK: ok}
}
