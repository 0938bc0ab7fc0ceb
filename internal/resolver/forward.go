package resolver

import (
	"cmp"
	"context"
	"errors"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
)

// Forwarder is a caching forwarding resolver: it relays queries to one or
// more upstream recursive resolvers instead of iterating itself. Many of
// the paper's smaller non-mainstream deployments are forwarders in front
// of a mainstream upstream.
type Forwarder struct {
	// Exchange performs the upstream queries.
	Exchange Exchanger
	// Upstreams are tried in order until one answers.
	Upstreams []string
	// Cache answers repeated questions. Required.
	Cache *Cache
}

// ErrNoUpstreams is returned when no upstream is configured or reachable.
var ErrNoUpstreams = errors.New("resolver: no upstreams")

// ServeDNS implements dns53.Handler. A query without a question is
// answered FORMERR, as the recursive resolver answers it, not sent on.
func (f *Forwarder) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	q0 := q.Question0()
	if q0.Name == "" {
		return formErr(q), nil
	}
	if resp, ok := f.Cache.Reply(q); ok {
		return resp, nil
	}
	if len(f.Upstreams) == 0 {
		return nil, ErrNoUpstreams
	}
	var lastErr error = ErrNoUpstreams
	for _, up := range f.Upstreams {
		// A fresh random ID per attempt: echoing the client's would let a
		// spoofed upstream answer match on an ID the client chose.
		fq := dnswire.NewQuery(dns53.NewID(), q0.Name, q0.Type)
		resp, err := f.Exchange.Exchange(ctx, fq, up)
		if err != nil {
			lastErr = err
			continue
		}
		f.cacheResponse(q0, resp)
		out := q.Reply()
		out.Header.RA = true
		out.Header.RCode = resp.Header.RCode
		out.Answers = resp.Answers
		return out, nil
	}
	return nil, lastErr
}

func (f *Forwarder) cacheResponse(q0 dnswire.Question, resp *dnswire.Message) {
	rcode := resp.Header.RCode
	if rcode != dnswire.RCodeSuccess && rcode != dnswire.RCodeNXDomain {
		return
	}
	f.Cache.putAnswers(resp.Answers)
	last := lastCNAMETarget(resp.Answers, q0.Name)
	switch {
	case rcode == dnswire.RCodeNXDomain:
		// Behind a CNAME chain the name that does not exist is the chain's
		// last target, not the question, which names the alias.
		f.Cache.PutNegative(cmp.Or(last, q0.Name), q0.Type, true, negativeTTL(resp))
	case len(resp.Answers) == 0:
		f.Cache.PutNegative(q0.Name, q0.Type, false, negativeTTL(resp))
	case last != "":
		// A CNAME chain is also one entry under the question, whole, so
		// the next ask for it hits instead of finding the RRsets apart.
		f.Cache.PutRRset(q0.Name, q0.Type, resp.Answers)
	}
}

// formErr is q's reply with RCODE FORMERR.
func formErr(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	resp.Header.RCode = dnswire.RCodeFormat
	return resp
}

func negativeTTL(resp *dnswire.Message) uint32 {
	for _, rr := range resp.Authority {
		if soa, ok := rr.Data.(*dnswire.SOA); ok {
			return min(rr.TTL, soa.Minimum)
		}
	}
	return 300
}
