package resolver

import (
	"context"
	"fmt"
	"math/rand/v2"

	"encdns/internal/dnswire"
)

// refRecursive is the resolver's walk as it stood before delegation
// memos, kept as the reference the differential tests run beside the
// real one: every miss re-derives its starting servers from the NS RRset
// and the address RRsets behind it through counted Cache.Lookups, remove
// filters in place, referrals are cached whole. It carries no Infra,
// hedging, prefetch or singleflight — the tests that use it switch none
// of them on.
type refRecursive struct {
	Exchange Exchanger
	Roots    []string
	Cache    *Cache
	RNGSeed  uint64
	// fanouts counts glueless host resolutions, as nsFanoutResolves does
	// for the real walk.
	fanouts int
}

func (r *refRecursive) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	q0 := q.Question0()
	if q0.Name == "" {
		resp := q.Reply()
		resp.Header.RCode = dnswire.RCodeFormat
		return resp, nil
	}
	resp := q.Reply()
	resp.Header.RA = true
	answers, rcode, err := r.Resolve(ctx, q0.Name, q0.Type, 0)
	if err != nil {
		return nil, err
	}
	resp.Header.RCode = rcode
	resp.Answers = answers
	return resp, nil
}

func (r *refRecursive) AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, int64, bool) {
	out, info, ok := r.Cache.AppendResponse(dst, q, rawQuestion)
	if !ok {
		return dst, 0, false
	}
	return out, info.MinTTL(), true
}

func (r *refRecursive) Resolve(ctx context.Context, name string, t dnswire.Type, depth int) ([]dnswire.Record, dnswire.RCode, error) {
	if depth > 6 {
		return nil, dnswire.RCodeServFail, ErrDepthExceed
	}
	name = dnswire.CanonicalName(name)
	var chain []dnswire.Record
	for hop := 0; hop <= 8; hop++ {
		rrs, rcode, err := r.resolveOne(ctx, name, t, depth)
		if err != nil {
			return nil, dnswire.RCodeServFail, err
		}
		chain = append(chain, rrs...)
		if rcode != dnswire.RCodeSuccess {
			return chain, rcode, nil
		}
		last := lastCNAMETarget(rrs, name)
		if last == "" || t == dnswire.TypeCNAME {
			return chain, dnswire.RCodeSuccess, nil
		}
		if hasType(chain, t) {
			return chain, dnswire.RCodeSuccess, nil
		}
		name = last
	}
	return nil, dnswire.RCodeServFail, ErrLoop
}

func (r *refRecursive) resolveOne(ctx context.Context, name string, t dnswire.Type, depth int) ([]dnswire.Record, dnswire.RCode, error) {
	if res, ok := r.Cache.Lookup(name, t); ok {
		if res.Negative {
			if res.NXDomain {
				return nil, dnswire.RCodeNXDomain, nil
			}
			return nil, dnswire.RCodeSuccess, nil
		}
		return res.Records, dnswire.RCodeSuccess, nil
	}
	if res, ok := r.Cache.Lookup(name, dnswire.TypeCNAME); ok && !res.Negative {
		return res.Records, dnswire.RCodeSuccess, nil
	}
	return r.resolveWalk(ctx, name, t, depth)
}

func (r *refRecursive) resolveWalk(ctx context.Context, name string, t dnswire.Type, depth int) ([]dnswire.Record, dnswire.RCode, error) {
	servers := r.startServers(ctx, name, depth)
	if len(servers) == 0 {
		return nil, dnswire.RCodeServFail, ErrNoServers
	}
	var mix uint64 = 1469598103934665603
	for _, b := range []byte(name) {
		mix = (mix ^ uint64(b)) * 1099511628211
	}
	rng := rand.New(rand.NewPCG(r.RNGSeed, mix^uint64(t)))

	for iter := 0; iter < 32; iter++ {
		q := dnswire.NewQuery(uint16(rng.Uint32()), name, t)
		q.Header.RD = false
		server := servers[rng.IntN(len(servers))]
		resp, err := r.Exchange.Exchange(ctx, q, server)
		if err != nil {
			servers = refRemove(servers, server)
			if len(servers) == 0 {
				return nil, dnswire.RCodeServFail, fmt.Errorf("%w: last error: %v", ErrNoServers, err)
			}
			continue
		}
		switch resp.Header.RCode {
		case dnswire.RCodeSuccess:
		case dnswire.RCodeNXDomain:
			r.Cache.PutNegative(name, t, true, negativeTTL(resp))
			return nil, dnswire.RCodeNXDomain, nil
		default:
			servers = refRemove(servers, server)
			if len(servers) == 0 {
				return nil, resp.Header.RCode, nil
			}
			continue
		}
		if len(resp.Answers) > 0 {
			r.cacheAnswers(resp.Answers)
			return resp.Answers, dnswire.RCodeSuccess, nil
		}
		next, glue := refReferral(resp)
		if len(next) > 0 {
			r.cacheAnswers(resp.Authority)
			r.cacheAnswers(resp.Additional)
			addrs := r.serverAddrs(ctx, next, glue, depth)
			if len(addrs) == 0 {
				return nil, dnswire.RCodeServFail, ErrNoServers
			}
			servers = addrs
			continue
		}
		r.Cache.PutNegative(name, t, false, negativeTTL(resp))
		return nil, dnswire.RCodeSuccess, nil
	}
	return nil, dnswire.RCodeServFail, ErrDepthExceed
}

func (r *refRecursive) startServers(ctx context.Context, name string, depth int) []string {
	for zone := dnswire.CanonicalName(name); ; zone = dnswire.ParentName(zone) {
		if res, ok := r.Cache.Lookup(zone, dnswire.TypeNS); ok && !res.Negative {
			var hosts []string
			for _, rr := range res.Records {
				if ns, ok := rr.Data.(*dnswire.NS); ok {
					hosts = append(hosts, ns.Host)
				}
			}
			if addrs := r.serverAddrs(ctx, hosts, nil, depth); len(addrs) > 0 {
				return addrs
			}
		}
		if zone == "." {
			break
		}
	}
	return append([]string(nil), r.Roots...)
}

func refReferral(resp *dnswire.Message) (hosts []string, glue map[string][]string) {
	glue = make(map[string][]string)
	for _, rr := range resp.Authority {
		if ns, ok := rr.Data.(*dnswire.NS); ok {
			hosts = append(hosts, dnswire.CanonicalName(ns.Host))
		}
	}
	for _, rr := range resp.Additional {
		switch d := rr.Data.(type) {
		case *dnswire.A:
			n := dnswire.CanonicalName(rr.Name)
			glue[n] = append(glue[n], d.Addr.String()+":53")
		case *dnswire.AAAA:
			n := dnswire.CanonicalName(rr.Name)
			glue[n] = append(glue[n], "["+d.Addr.String()+"]:53")
		}
	}
	return hosts, glue
}

func (r *refRecursive) serverAddrs(ctx context.Context, hosts []string, glue map[string][]string, depth int) []string {
	var out []string
	var glueless []string
	haveHosts := 0
	for _, h := range hosts {
		h = dnswire.CanonicalName(h)
		if addrs := glue[h]; len(addrs) > 0 {
			out = append(out, addrs...)
			haveHosts++
			continue
		}
		if addrs := r.cachedAddrs(h); len(addrs) > 0 {
			out = append(out, addrs...)
			haveHosts++
			continue
		}
		glueless = append(glueless, h)
	}
	if len(glueless) == 0 || haveHosts >= nsTargetHosts {
		return out
	}
	return append(out, r.resolveNSHosts(ctx, glueless, depth, nsTargetHosts-haveHosts)...)
}

func (r *refRecursive) cachedAddrs(h string) []string {
	var out []string
	if res, ok := r.Cache.Lookup(h, dnswire.TypeA); ok && !res.Negative {
		for _, rr := range res.Records {
			if a, ok := rr.Data.(*dnswire.A); ok {
				out = append(out, a.Addr.String()+":53")
			}
		}
	}
	if res, ok := r.Cache.Lookup(h, dnswire.TypeAAAA); ok && !res.Negative {
		for _, rr := range res.Records {
			if a, ok := rr.Data.(*dnswire.AAAA); ok {
				out = append(out, "["+a.Addr.String()+"]:53")
			}
		}
	}
	return out
}

// resolveNSHosts is the glueless fan-out, sequential here: the
// reference's caller compares server sets, not arrival order.
func (r *refRecursive) resolveNSHosts(ctx context.Context, hosts []string, depth, need int) []string {
	var out []string
	for _, h := range hosts {
		r.fanouts++
		rrs, rcode, err := r.Resolve(ctx, h, dnswire.TypeA, depth+1)
		if err != nil || rcode != dnswire.RCodeSuccess {
			continue
		}
		n := len(out)
		for _, rr := range rrs {
			if a, ok := rr.Data.(*dnswire.A); ok {
				out = append(out, a.Addr.String()+":53")
			}
		}
		if len(out) > n {
			if need--; need <= 0 {
				break
			}
		}
	}
	return out
}

func (r *refRecursive) cacheAnswers(rrs []dnswire.Record) {
	groups := make(map[cacheKey][]dnswire.Record)
	for _, rr := range rrs {
		k := cacheKey{name: dnswire.CanonicalName(rr.Name), typ: rr.Type}
		groups[k] = append(groups[k], rr)
	}
	for k, g := range groups {
		r.Cache.PutRRset(k.name, k.typ, g)
	}
}

func refRemove(s []string, v string) []string {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// cloneCache copies c entry for entry — LRU order and expiries included,
// delegation memos not — so the reference can be run from exactly the
// state the real resolver is about to run from without disturbing it.
// Entry payloads are immutable and shared. Close the clone when done: it
// is counted in the process-wide entries gauge.
func cloneCache(c *Cache) *Cache {
	out := &Cache{shards: make([]cacheShard, len(c.shards)), mask: c.mask, now: c.now}
	for i := range c.shards {
		src := &c.shards[i]
		src.mu.Lock()
		out.shards[i].items = make(map[cacheKey]*cacheEntry, len(src.items))
		out.shards[i].max = src.max
		for e := src.tail; e != nil; e = e.prev {
			out.put(&cacheEntry{key: e.key, expires: e.expires, ttl: e.ttl, records: e.records,
				tmpl: e.tmpl, negative: e.negative, nxdomain: e.nxdomain})
		}
		src.mu.Unlock()
	}
	return out
}
