package resolver

import (
	"cmp"
	"context"
	"errors"
	"slices"

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
		out := q.Reply()
		out.Header.RA = true
		out.Header.RCode = resp.Header.RCode
		// A reply without a question passes the exchange only as an error
		// (dns53.CheckResponse), so it is relayed as its RCODE alone.
		if rcode := resp.Header.RCode; rcode == dnswire.RCodeSuccess || rcode == dnswire.RCodeNXDomain {
			var last string
			out.Answers, last = inChain(resp.Answers, q0)
			f.cacheResponse(q0, resp, out.Answers, last)
		}
		return out, nil
	}
	return nil, lastErr
}

// inChain keeps of an upstream's answer section what answers q0: the
// CNAME chain from q0's name and, at its end, the RRset of q0's type. An
// upstream that adds any other record asserts something about a name the
// query did not ask for, so that record is neither cached nor relayed.
// last is the chain's final target, "" when no CNAME leads away from q0.
func inChain(answers []dnswire.Record, q0 dnswire.Question) (kept []dnswire.Record, last string) {
	chain := []string{dnswire.CanonicalName(q0.Name)}
	for q0.Type != dnswire.TypeCNAME && q0.Type != dnswire.TypeANY {
		next := cnameTarget(answers, chain[len(chain)-1])
		if next == "" || slices.Contains(chain, next) {
			break
		}
		chain = append(chain, next)
	}
	final := chain[len(chain)-1]
	for _, rr := range answers {
		owner := dnswire.CanonicalName(rr.Name)
		if owner == final && (rr.Type == q0.Type || q0.Type == dnswire.TypeANY) {
			kept = append(kept, rr)
		} else if i := slices.Index(chain, owner); i >= 0 && i < len(chain)-1 && rr.Type == dnswire.TypeCNAME &&
			dnswire.CanonicalName(rr.Data.(*dnswire.CNAME).Target) == chain[i+1] {
			kept = append(kept, rr)
		}
	}
	if len(chain) > 1 {
		last = final
	}
	return kept, last
}

// cnameTarget is the target of the first CNAME at owner in rrs, or "".
func cnameTarget(rrs []dnswire.Record, owner string) string {
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeCNAME && dnswire.CanonicalName(rr.Name) == owner {
			return dnswire.CanonicalName(rr.Data.(*dnswire.CNAME).Target)
		}
	}
	return ""
}

// cacheResponse caches a NOERROR or NXDOMAIN answer to q0: chain and last
// are what inChain kept of it.
func (f *Forwarder) cacheResponse(q0 dnswire.Question, resp *dnswire.Message, chain []dnswire.Record, last string) {
	f.Cache.putAnswers(chain)
	switch {
	case resp.Header.RCode == dnswire.RCodeNXDomain:
		// Behind a CNAME chain the name that does not exist is the chain's
		// last target, not the question, which names the alias.
		f.Cache.PutNegative(cmp.Or(last, q0.Name), q0.Type, true, negativeTTL(resp))
	case len(chain) == 0:
		f.Cache.PutNegative(q0.Name, q0.Type, false, negativeTTL(resp))
	case last != "":
		// A CNAME chain is also one entry under the question, whole, so
		// the next ask for it hits instead of finding the RRsets apart.
		f.Cache.PutRRset(q0.Name, q0.Type, chain)
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
