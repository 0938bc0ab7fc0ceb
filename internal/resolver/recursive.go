package resolver

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/transport"
)

// Referral fan-out instruments.
var (
	nsFanoutResolves = obs.Default().Counter("resolver_ns_fanout_resolves_total",
		"Glueless NS hostnames resolved by the bounded parallel fan-out.")
	nsFanoutShortcut = obs.Default().Counter("resolver_ns_fanout_shortcircuit_total",
		"Fan-outs cancelled early because enough NS addresses were already known.")
)

// Exchanger sends one DNS query to one server and returns the response.
// It is the transport layer's endpoint-addressed interface: a
// transport.Pool satisfies it over real sockets for any scheme (udp://,
// tcp://, tls://, https://), so a forwarder can forward over encrypted
// transports; authdns.Registry satisfies it in memory.
type Exchanger = transport.Multi

// Errors returned by the recursive resolver.
var (
	ErrLoop        = errors.New("resolver: CNAME or referral loop")
	ErrNoServers   = errors.New("resolver: no reachable name servers")
	ErrDepthExceed = errors.New("resolver: resolution depth exceeded")
)

// Walk bounds: referral steps per resolution and CNAME hops per chain.
const (
	maxIterations = 32
	maxCNAME      = 8
)

// Recursive is a caching iterative resolver. It implements dns53.Handler.
type Recursive struct {
	// Exchange performs upstream queries. It must be done with the query
	// message when it returns: a walk re-addresses one message from
	// iteration to iteration.
	Exchange Exchanger
	// Roots are the root server addresses ("ip:port") to start from.
	Roots []string
	// Cache holds positive and negative entries, and the delegations the
	// walk starts from. Required.
	Cache *Cache
	// rngSeed, when non-zero, makes server selection deterministic.
	RNGSeed uint64
	// Infra is the per-nameserver performance cache (EWMA SRTT plus a
	// decaying failure penalty). When non-nil, referral exchanges pick
	// the lowest-score server instead of a uniform random one; nil keeps
	// uniform random selection.
	Infra *Infra
	// Hedge races the query against the second-best nameserver after an
	// SRTT-derived delay when the best one stays silent (tail-latency
	// hedging over the transport Race primitive). Requires Infra.
	Hedge bool
	// PrefetchFraction enables refresh-ahead: a cache hit whose
	// remaining TTL is inside this final fraction of its original
	// lifetime is served immediately while a deduplicated, budgeted
	// background goroutine re-resolves the name, so steady-state hot
	// names never take a top-level miss. 0 disables; 0.1 is typical.
	PrefetchFraction float64
	// OnPrefetch, when set, is called after each background refresh that
	// completed successfully — i.e. for every key the refresh-ahead
	// machinery currently considers hot. Cluster mode wires it to
	// hot-set replication (internal/cluster Node.NoteHot). Called from
	// the refresh goroutine; implementations must be cheap or go async.
	OnPrefetch func(name string, t dnswire.Type)
	// Now is the clock behind RTT measurement and infra aging; nil means
	// time.Now. Virtual-time tests inject a netsim clock's Now.
	Now func() time.Time

	// seedOnce draws the process seed exactly once when RNGSeed is zero,
	// keeping time.Now off the per-query path.
	seedOnce sync.Once
	seed     uint64

	// pf tracks in-flight refresh-ahead goroutines so Close can drain them.
	pf prefetcher

	// sf deduplicates concurrent identical top-level misses so a
	// thundering herd triggers one upstream walk.
	sf singleflight
}

// timeNow reads the resolver's clock.
func (r *Recursive) timeNow() time.Time {
	if r.Now != nil {
		return r.Now()
	}
	return time.Now()
}

// InMemory implements dns53.InMemory: ServeDNS never waits on I/O exactly
// when Exchange never does (authdns.Registry). Nothing else a walk does on
// the serving goroutine can wait on anything but such exchanges: the
// cache, infra and memo take short locks, a singleflight follower and a
// glueless fan-out wait for walks over the same Exchange, a hedge for the
// first of two, and refresh-ahead only starts a goroutine (or drops the
// refresh), so OnPrefetch never runs on the serving goroutine.
func (r *Recursive) InMemory() bool {
	m, ok := r.Exchange.(interface{ InMemory() bool })
	return ok && m.InMemory()
}

// ServeDNS answers a stub query by recursive resolution.
func (r *Recursive) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	q0 := q.Question0()
	if q0.Name == "" {
		return formErr(q), nil
	}
	answers, rcode, err := r.Resolve(ctx, q0.Name, q0.Type, 0)
	if err != nil {
		return nil, err
	}
	resp := q.Reply()
	resp.Header.RA = true
	resp.Header.RCode = rcode
	resp.Answers = answers
	return resp, nil
}

// Resolve resolves (name, type), returning the answer chain (including any
// CNAMEs) and the final RCODE. depth guards against NS-address recursion.
func (r *Recursive) Resolve(ctx context.Context, name string, t dnswire.Type, depth int) ([]dnswire.Record, dnswire.RCode, error) {
	if depth > 6 {
		return nil, dnswire.RCodeServFail, ErrDepthExceed
	}
	// The one canonicalisation of the walk: everything below takes the key.
	key := cacheKey{name: dnswire.CanonicalName(name), typ: t}
	var chain []dnswire.Record

	for hop := 0; hop <= maxCNAME; hop++ {
		rrs, rcode, err := r.resolveOne(ctx, key, depth)
		if err != nil {
			return nil, dnswire.RCodeServFail, err
		}
		chain = append(chain, rrs...)
		if rcode != dnswire.RCodeSuccess {
			return chain, rcode, nil
		}
		// Did we get the terminal type or a CNAME to chase?
		last := lastCNAMETarget(rrs, key.name)
		if last == "" || t == dnswire.TypeCNAME {
			return chain, dnswire.RCodeSuccess, nil
		}
		if hasType(chain, t) {
			return chain, dnswire.RCodeSuccess, nil
		}
		key.name = last
	}
	return nil, dnswire.RCodeServFail, ErrLoop
}

// lastCNAMETarget returns the target of the final CNAME starting the chase
// from name, or "" when rrs directly answer.
func lastCNAMETarget(rrs []dnswire.Record, name string) string {
	target := ""
	cur := dnswire.CanonicalName(name)
	for changed := true; changed; {
		changed = false
		for _, rr := range rrs {
			if rr.Type == dnswire.TypeCNAME && dnswire.CanonicalName(rr.Name) == cur {
				cur = dnswire.CanonicalName(rr.Data.(*dnswire.CNAME).Target)
				target = cur
				changed = true
			}
		}
	}
	return target
}

func hasType(rrs []dnswire.Record, t dnswire.Type) bool {
	for _, rr := range rrs {
		if rr.Type == t {
			return true
		}
	}
	return false
}

// resolveOne resolves a single name without CNAME chasing (the caller
// chases). It walks referrals from the closest cached NS set.
func (r *Recursive) resolveOne(ctx context.Context, key cacheKey, depth int) ([]dnswire.Record, dnswire.RCode, error) {
	// Cache first. One clock reading serves every probe up to the first
	// exchange. Only the lookup of what a client asked is counted: the
	// CNAME probe is the resolver's own guess, and at depth > 0 so is the
	// whole question (an NS host's address).
	now := r.Cache.now()
	if res, ok := r.Cache.lookupKey(key, now, depth == 0); ok {
		if res.Negative {
			if res.NXDomain {
				return nil, dnswire.RCodeNXDomain, nil
			}
			return nil, dnswire.RCodeSuccess, nil // NODATA
		}
		r.noteRefreshAhead(key, res)
		return res.Records, dnswire.RCodeSuccess, nil
	}
	// A cached CNAME lets us skip a full walk.
	cname := cacheKey{name: key.name, typ: dnswire.TypeCNAME}
	if res, ok := r.Cache.lookupKey(cname, now, false); ok && !res.Negative {
		r.noteRefreshAhead(cname, res)
		return res.Records, dnswire.RCodeSuccess, nil
	}

	// Deduplicate concurrent identical misses, but only at the top level:
	// a leader resolving a glueless NS address (depth > 0) must never wait
	// on another in-flight call, which could be its own.
	if depth > 0 {
		return r.resolveWalk(ctx, key, now, depth)
	}
	res := r.sf.do(ctx, r, key, now)
	return res.rrs, res.rcode, res.err
}

// resolveWalk is the upstream half of resolveOne: the iterative referral
// walk from the closest cached NS set down to the answer. now is the
// cache clock as of the walk's start.
func (r *Recursive) resolveWalk(ctx context.Context, key cacheKey, now time.Time, depth int) ([]dnswire.Record, dnswire.RCode, error) {
	name, t := key.name, key.typ
	// zone is the zone the current servers are asked as — the cut the walk
	// starts from, then each referral's — and what their referrals are
	// judged against (bailiwick).
	servers, zone := r.startServers(ctx, name, now, depth)
	if len(servers) == 0 {
		return nil, dnswire.RCodeServFail, ErrNoServers
	}
	rng := r.newRNG(key)
	var q *dnswire.Message

	for iter := 0; iter < maxIterations; iter++ {
		if ctx.Err() != nil {
			return nil, dnswire.RCodeServFail, ctx.Err()
		}
		// One query message a walk, re-addressed each iteration — except
		// under hedging, where the loser of a race may still be reading
		// its message after the winner has returned.
		if id := uint16(rng.Uint32()); q == nil || r.Hedge {
			q = dnswire.NewQuery(id, name, t)
			q.Header.RD = false
		} else {
			q.Header.ID = id
		}
		resp, server, err := r.exchangeBest(ctx, q, servers, &rng)
		if err != nil {
			// Unreachable or lame: drop this server, try others.
			servers = without(servers, server)
			if len(servers) == 0 {
				return nil, dnswire.RCodeServFail, fmt.Errorf("%w: last error: %v", ErrNoServers, err)
			}
			continue
		}
		var ref referred
		lame := false
		switch resp.Header.RCode {
		case dnswire.RCodeSuccess:
			if len(resp.Answers) > 0 {
				r.Cache.putAnswers(resp.Answers)
				return resp.Answers, dnswire.RCodeSuccess, nil
			}
			// NS records of which none delegates towards the name, and no
			// SOA to make it a negative answer: an upward or sideways
			// referral, a lame server's way of saying it is one.
			ref = referral(resp, zone, name)
			lame = len(ref.hosts) == 0 && len(resp.Answers) == 0 &&
				hasType(resp.Authority, dnswire.TypeNS) && !hasType(resp.Authority, dnswire.TypeSOA)
		case dnswire.RCodeNXDomain:
			r.Cache.putNegative(key, true, negativeTTL(resp))
			return nil, dnswire.RCodeNXDomain, nil
		default:
			// SERVFAIL and friends: the exchange itself worked, but the
			// server is not useful here.
			lame = true
		}
		if lame {
			if r.Infra != nil {
				r.Infra.Fail(server)
			}
			servers = without(servers, server)
			if len(servers) > 0 {
				continue
			}
			if resp.Header.RCode == dnswire.RCodeSuccess {
				return nil, dnswire.RCodeServFail, ErrNoServers
			}
			return nil, resp.Header.RCode, nil
		}

		// Referral: authority NS records for a subdomain cut.
		if len(ref.hosts) > 0 {
			r.Cache.putAnswers(ref.accepted)
			addrs := r.serverAddrs(ctx, ref.hosts, ref.glue, depth)
			if len(addrs) == 0 {
				return nil, dnswire.RCodeServFail, ErrNoServers
			}
			servers, zone = addrs, ref.cut
			continue
		}

		// NODATA.
		r.Cache.putNegative(key, false, negativeTTL(resp))
		return nil, dnswire.RCodeSuccess, nil
	}
	return nil, dnswire.RCodeServFail, ErrDepthExceed
}

// exchangeBest sends q to the best nameserver of servers and returns the
// response plus the server charged with the outcome. Without an Infra
// cache the pick is uniform random (the seed behaviour); with one it is
// best-of-N by SRTT+penalty score, optionally hedged against the
// second-best after an SRTT-derived delay.
func (r *Recursive) exchangeBest(ctx context.Context, q *dnswire.Message, servers []string, rng *walkRNG) (*dnswire.Message, string, error) {
	if r.Infra == nil {
		server := servers[rng.IntN(len(servers))]
		resp, err := r.Exchange.Exchange(ctx, q, server)
		return resp, server, err
	}
	// Select draws through a rand.Rand, whose Source escapes; it gets a
	// copy of the generator, and its draws are carried back.
	src := rng.pcg
	best, second := r.Infra.Select(servers, rand.New(&src))
	rng.pcg = src
	if !r.Hedge || second == "" {
		resp, err := r.exchangeObserved(ctx, q, best)
		return resp, best, err
	}
	targets := []string{best, second}
	attempts := make([]func(context.Context) (*dnswire.Message, error), len(targets))
	for i, srv := range targets {
		attempts[i] = func(c context.Context) (*dnswire.Message, error) {
			if i > 0 {
				resolverHedgeLaunched.Inc()
			}
			return r.exchangeObserved(c, q, srv)
		}
	}
	resp, winner, err := transport.Race(ctx, r.Infra.HedgeDelay(best), attempts)
	if err != nil {
		return nil, best, err
	}
	if winner > 0 {
		resolverHedgeWins.Inc()
	}
	return resp, targets[winner], nil
}

// exchangeObserved is one upstream exchange with infra bookkeeping: the
// RTT feeds the server's SRTT on success, a failure adds a decaying
// penalty. A failure caused by our own cancellation (a hedge loser, a
// caller giving up) is not charged to the server.
func (r *Recursive) exchangeObserved(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	start := r.timeNow()
	resp, err := r.Exchange.Exchange(ctx, q, server)
	if err != nil {
		if ctx.Err() == nil {
			r.Infra.Fail(server)
		}
		return nil, err
	}
	r.Infra.Observe(server, r.timeNow().Sub(start))
	return resp, nil
}

// walkRNG is a walk's generator: the PCG by value, so it lives on the
// walk's stack, with the two draws the walk itself makes. Each is the same
// function of the PCG stream as the math/rand/v2.Rand method of its name
// (TestWalkRNGMatchesRand), so seeded server selection is what it was when
// the walk drew through a rand.Rand.
type walkRNG struct{ pcg rand.PCG }

func (g *walkRNG) Uint32() uint32 { return uint32(g.pcg.Uint64() >> 32) }

// IntN is Rand.IntN on 64-bit platforms: a mask for powers of two, else
// Lemire's multiply-and-reject.
func (g *walkRNG) IntN(n int) int {
	un := uint64(n)
	if un&(un-1) == 0 {
		return int(g.pcg.Uint64() & (un - 1))
	}
	hi, lo := bits.Mul64(g.pcg.Uint64(), un)
	if lo < un {
		for thresh := -un % un; lo < thresh; {
			hi, lo = bits.Mul64(g.pcg.Uint64(), un)
		}
	}
	return int(hi)
}

func (r *Recursive) newRNG(key cacheKey) (g walkRNG) {
	// The process seed is drawn once per Recursive (lazily): the previous
	// code called time.Now().UnixNano() on every query, a syscall on the
	// hot path that also made concurrent same-name queries diverge.
	r.seedOnce.Do(func() {
		r.seed = r.RNGSeed
		if r.seed == 0 {
			r.seed = uint64(time.Now().UnixNano())
		}
	})
	var mix uint64 = 1469598103934665603
	for i := 0; i < len(key.name); i++ {
		mix = (mix ^ uint64(key.name[i])) * 1099511628211
	}
	g.pcg.Seed(r.seed, mix^uint64(key.typ))
	return g
}

// delegation is a zone cut's resolved server list — endpoints, in the
// order serverAddrs produced them — memoised on the cache entry of the NS
// RRset it was derived from, so a miss under a known cut starts its walk
// from one probe instead of re-deriving the list from the NS RRset and
// every address RRset behind it. It is good until the first of those
// RRsets expires and is dropped with the NS entry (eviction or
// replacement); nothing else invalidates it. servers is shared between
// walks and never modified (see without).
type delegation struct {
	servers []string
	expires time.Time
}

// startServers finds the closest enclosing cut the cache holds a usable
// NS set for and returns its servers and its name, defaulting to the
// roots. Probing an NS entry is a use of it (Cache.find), memo or not:
// under a flood of misses the delegation is the one entry every query
// needs, and letting the flood's own inserts push it out would turn each
// ~256th miss a shard into a walk from the root.
func (r *Recursive) startServers(ctx context.Context, name string, now time.Time, depth int) (servers []string, cut string) {
	for zone := name; ; zone = dnswire.ParentName(zone) {
		if e, _ := r.Cache.find(cacheKey{name: zone, typ: dnswire.TypeNS}, now); e != nil && !e.negative {
			if d := e.deleg.Load(); d != nil && now.Before(d.expires) {
				return d.servers, zone
			}
			if addrs := r.deriveDelegation(ctx, e, now, depth); len(addrs) > 0 {
				return addrs, zone
			}
		}
		if zone == "." {
			break
		}
	}
	return r.Roots, "."
}

// deriveDelegation builds the server list of the cut whose NS entry is e
// from the cache — resolving glueless hosts if it must — and memoises it
// on e when every address came from the cache, where each has an expiry.
func (r *Recursive) deriveDelegation(ctx context.Context, e *cacheEntry, now time.Time, depth int) []string {
	hosts := make([]string, 0, len(e.records))
	for _, rr := range e.records {
		if ns, ok := rr.Data.(*dnswire.NS); ok {
			hosts = append(hosts, ns.Host)
		}
	}
	addrs, expires := r.hostAddrs(ctx, hosts, nil, now, depth)
	if len(addrs) > 0 && !expires.IsZero() {
		if e.expires.Before(expires) {
			expires = e.expires
		}
		e.deleg.Store(&delegation{servers: addrs, expires: expires})
	}
	return addrs
}

// referred is what a walk takes from a referral: the NS hostnames, the
// cut they serve, the glue endpoints by host, and the records behind both
// for the cache.
type referred struct {
	hosts    []string
	cut      string
	glue     map[string][]string
	accepted []dnswire.Record
}

// referral reads a delegation out of resp, keeping what the responder is
// in a position to say (bailiwick): Authority NS records whose owner is a
// proper descendant of zone — the zone the servers were asked as — and an
// ancestor of, or equal to, the query name; and Additional A/AAAA records
// owned by a target of one of those NS records, at or below zone.
// Everything else in the two sections is ignored: neither followed nor
// cached. No hosts means resp is no referral.
func referral(resp *dnswire.Message, zone, name string) (ref referred) {
	for _, rr := range resp.Authority {
		ns, ok := rr.Data.(*dnswire.NS)
		if !ok {
			continue
		}
		owner := dnswire.CanonicalName(rr.Name)
		if owner == zone || !dnswire.IsSubdomain(owner, zone) || !dnswire.IsSubdomain(name, owner) {
			continue
		}
		ref.hosts = append(ref.hosts, dnswire.CanonicalName(ns.Host))
		ref.cut = owner
		ref.accepted = append(ref.accepted, rr)
	}
	if len(ref.hosts) == 0 {
		return ref
	}
	ref.glue = make(map[string][]string)
	for _, rr := range resp.Additional {
		endpoint := nsEndpoint(rr.Data)
		owner := dnswire.CanonicalName(rr.Name)
		if endpoint == "" || !slices.Contains(ref.hosts, owner) || !dnswire.IsSubdomain(owner, zone) {
			continue
		}
		ref.glue[owner] = append(ref.glue[owner], endpoint)
		ref.accepted = append(ref.accepted, rr)
	}
	return ref
}

// Glueless fan-out bounds: at most nsFanout NS-host resolutions run
// concurrently, and the fan-out short-circuits (cancelling stragglers)
// once nsTargetHosts hosts have yielded addresses — a referral only needs
// a couple of reachable servers, not the whole NS set resolved.
const (
	nsFanout      = 4
	nsTargetHosts = 2
)

// serverAddrs is hostAddrs for a referral just received: the glue is in
// hand, and an exchange has passed since the walk last read the clock.
func (r *Recursive) serverAddrs(ctx context.Context, hosts []string, glue map[string][]string, depth int) []string {
	addrs, _ := r.hostAddrs(ctx, hosts, glue, r.Cache.now(), depth)
	return addrs
}

// hostAddrs maps NS hostnames to "ip:port" addresses using glue (A and
// AAAA), cached A/AAAA RRsets, or — for glueless delegations — bounded
// parallel recursive resolution with first-K-wins short-circuiting. It is
// the one place a delegation's server list is built. expires is the first
// expiry among the cached RRsets used, or zero when some address came
// from a fresh resolution instead and the list is a partial one.
func (r *Recursive) hostAddrs(ctx context.Context, hosts []string, glue map[string][]string, now time.Time, depth int) (out []string, expires time.Time) {
	var glueless []string
	haveHosts := 0
	for _, h := range hosts {
		h = dnswire.CanonicalName(h)
		if addrs := glue[h]; len(addrs) > 0 {
			out = append(out, addrs...)
			haveHosts++
			continue
		}
		n := len(out)
		if out, expires = r.appendCachedAddrs(out, expires, h, now); len(out) > n {
			haveHosts++
			continue
		}
		glueless = append(glueless, h)
	}
	if len(glueless) == 0 {
		return out, expires
	}
	if haveHosts >= nsTargetHosts {
		// Enough servers known already: skip the glueless resolutions
		// entirely instead of paying a full recursive walk per host.
		nsFanoutShortcut.Inc()
		return out, expires
	}
	return append(out, r.resolveNSHosts(ctx, glueless, depth, nsTargetHosts-haveHosts)...), time.Time{}
}

// nsEndpoint is the endpoint of a name server's address record: "ip:53"
// for an A, the bracketed "[ip]:53" the transport endpoint grammar expects
// for an AAAA, "" for anything else.
func nsEndpoint(d dnswire.RData) string {
	switch a := d.(type) {
	case *dnswire.A:
		return a.Addr.String() + ":53"
	case *dnswire.AAAA:
		return "[" + a.Addr.String() + "]:53"
	}
	return ""
}

// appendCachedAddrs appends the cached addresses of NS host h, both
// families, to out and lowers expires to the earliest expiry of the
// RRsets it read.
func (r *Recursive) appendCachedAddrs(out []string, expires time.Time, h string, now time.Time) ([]string, time.Time) {
	for _, t := range [...]dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
		e, _ := r.Cache.find(cacheKey{name: h, typ: t}, now)
		if e == nil || len(e.records) == 0 {
			continue
		}
		for _, rr := range e.records {
			if ep := nsEndpoint(rr.Data); ep != "" {
				out = append(out, ep)
			}
		}
		if expires.IsZero() || e.expires.Before(expires) {
			expires = e.expires
		}
	}
	return out, expires
}

// resolveNSHosts resolves glueless NS hostnames concurrently, at most
// nsFanout in flight, cancelling the stragglers once need hosts have
// yielded addresses. The previous implementation resolved every host
// sequentially, so one slow glueless server stalled the whole referral.
func (r *Recursive) resolveNSHosts(ctx context.Context, hosts []string, depth, need int) []string {
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan []string, len(hosts)) // buffered: stragglers never block
	sem := make(chan struct{}, nsFanout)
	for _, h := range hosts {
		go func(h string) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-fanCtx.Done():
				results <- nil
				return
			}
			if fanCtx.Err() != nil {
				results <- nil
				return
			}
			nsFanoutResolves.Inc()
			// Glueless delegation: resolve the NS address, guarding depth.
			rrs, rcode, err := r.Resolve(fanCtx, h, dnswire.TypeA, depth+1)
			if err != nil || rcode != dnswire.RCodeSuccess {
				results <- nil
				return
			}
			var addrs []string
			for _, rr := range rrs {
				if a, ok := rr.Data.(*dnswire.A); ok {
					addrs = append(addrs, a.Addr.String()+":53")
				}
			}
			results <- addrs
		}(h)
	}
	var out []string
	resolved := 0
	for range hosts {
		addrs := <-results
		if len(addrs) == 0 {
			continue
		}
		out = append(out, addrs...)
		if resolved++; resolved >= need {
			// First-K-wins: the remaining resolutions are cancelled and
			// drain into the buffered channel on their own.
			nsFanoutShortcut.Inc()
			break
		}
	}
	return out
}

// without returns s less v. It copies: s may be a delegation memo, which
// every walk under the same cut shares.
func without(s []string, v string) []string {
	out := make([]string, 0, len(s))
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
