// Package netsim models the global Internet that the paper's measurement
// campaign ran over: propagation delay between vantage points and resolver
// sites, anycast site selection, access-network classes (Raspberry Pis on
// home broadband vs. EC2 datacenter NICs), jitter, packet loss, resolver
// processing/cache behaviour, and the failure processes behind the paper's
// availability numbers.
//
// It is a transaction-level discrete-event model with virtual time: a DoH
// query is composed from the round trips its protocol phases cost (TCP,
// TLS, HTTP exchange) plus server processing, rather than simulated packet
// by packet. Nothing sleeps, everything is driven by seeded RNG streams
// keyed by (seed, vantage, endpoint, round, purpose), so campaigns are
// deterministic and a full paper-scale run completes in milliseconds.
//
// This package is the documented substitution for the paper's live
// measurement substrate (see DESIGN.md): the real protocol code in
// internal/doh, internal/dot, and internal/dns53 is exercised separately
// over real connections by the integration tests and by the live prober.
package netsim

import (
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"time"

	"encdns/internal/geo"
	"encdns/internal/stats"
)

// Access classifies a vantage point's access network.
type Access int

// Access classes from the paper's two deployment sources (§3.2).
const (
	AccessDatacenter Access = iota // Amazon EC2 instance
	AccessHome                     // Raspberry Pi on home broadband
)

// String names the access class.
func (a Access) String() string {
	if a == AccessHome {
		return "home"
	}
	return "datacenter"
}

// Vantage is a measurement client location.
type Vantage struct {
	Name   string
	Coord  geo.Coord
	Access Access
}

// Endpoint is one measured resolver deployment as the network model sees
// it. The measurement dataset (internal/dataset) fills these in for the 79
// appendix resolvers.
type Endpoint struct {
	Name string
	// Sites are the deployment locations; more than one models anycast,
	// with clients routed to the nearest site.
	Sites []geo.Coord
	// ICMPResponds is false for resolvers that drop echo requests; the
	// paper shows no ping distribution for those.
	ICMPResponds bool
	// TLS12 marks endpoints still negotiating TLS 1.2, costing an extra
	// round trip during the handshake.
	TLS12 bool
	// ProcMs is the median server-side processing time for a cache-hit
	// query; ProcSigma the lognormal spread around it.
	ProcMs    float64
	ProcSigma float64
	// FailP is the per-attempt probability of failing to establish a
	// connection, the paper's dominant error class.
	FailP float64
	// FlakyP is the per-round probability that the endpoint is inside a
	// transient bad window during which connection failures dominate.
	// Windows are drawn independently per round, which reproduces the
	// paper's finding of "no consistent pattern of not receiving responses
	// from a certain subset of resolvers each time the measurements ran".
	FlakyP float64
	// Down marks a permanently unresponsive endpoint.
	Down bool
}

// Server processing, the same at every endpoint.
const (
	// cacheHitP is the probability a query for the measured (popular)
	// domains is served from cache. §3.2: "it is reasonable to expect that
	// most people query sites that are already in cache".
	cacheHitP = 0.96
	// recurseMs is the median extra latency of a full recursive resolution
	// on a cache miss.
	recurseMs = 45
)

// Anycast reports whether the endpoint has more than one site.
func (e *Endpoint) Anycast() bool { return len(e.Sites) > 1 }

// Protocol selects the query transport.
type Protocol int

// Protocols supported by the measurement tool (§3.1: "Our tool enables
// researchers to issue traditional DNS, DoT, and DoH queries").
const (
	ProtoDoH Protocol = iota
	ProtoDoT
	ProtoDo53
)

// String names the protocol as the result files spell it.
func (p Protocol) String() string {
	switch p {
	case ProtoDoT:
		return "dot"
	case ProtoDo53:
		return "do53"
	}
	return "doh"
}

// ErrClass categorises a failed query, mirroring the error taxonomy the
// availability analysis reports.
type ErrClass int

// Error classes.
const (
	OK         ErrClass = iota
	ErrConnect          // failed to establish a connection (paper: most common)
	ErrTimeout          // query exceeded the tool's deadline
	ErrTLS              // TLS negotiation failure
	ErrHTTP             // non-2xx HTTP status from a DoH endpoint
	ErrDNS              // DNS-level failure (SERVFAIL etc.)
)

// String names the error class.
func (e ErrClass) String() string {
	switch e {
	case OK:
		return "ok"
	case ErrConnect:
		return "connect-failure"
	case ErrTimeout:
		return "timeout"
	case ErrTLS:
		return "tls-failure"
	case ErrHTTP:
		return "http-error"
	case ErrDNS:
		return "dns-error"
	}
	return "unknown"
}

// Config holds the model's global parameters. Zero values are replaced by
// Defaults' fields in New.
type Config struct {
	Seed uint64
	// IntraStretch and InterStretch are routing path-stretch factors over
	// the great-circle distance, for short (<= StretchNearKm) and long
	// (>= StretchFarKm) paths; in between the factor interpolates
	// linearly. Long paths cross more provider boundaries and detour via
	// exchange hubs, so their stretch is higher.
	IntraStretch  float64
	InterStretch  float64
	StretchNearKm float64
	StretchFarKm  float64
	// HomeAccessMs and DCAccessMs are one-way access-network latencies
	// added to every traversal (DOCSIS/DSL interleaving vs. datacenter).
	HomeAccessMs float64
	DCAccessMs   float64
	// JitterSigma is the lognormal sigma applied multiplicatively to each
	// one-way delay from a datacenter vantage; HomeJitterSigma from home.
	JitterSigma     float64
	HomeJitterSigma float64
	// MinOWDMs floors every one-way delay (serialisation, kernel, NIC).
	MinOWDMs float64
	// LossP is the per-round-trip packet loss probability; a loss costs a
	// retransmission delay drawn from a bounded Pareto.
	LossP float64
	// ConnTimeoutMs is how long a failed connection attempt takes to be
	// reported when it fails silently (SYN blackhole) rather than fast
	// (RST); QueryTimeoutMs is the tool's per-query deadline.
	ConnTimeoutMs  float64
	QueryTimeoutMs float64
}

// Defaults returns the calibrated baseline configuration. The stretch and
// access constants were fitted against the medians the paper reports
// (DESIGN.md "Calibration targets").
func Defaults() Config {
	return Config{
		Seed:            1,
		IntraStretch:    1.25,
		InterStretch:    1.35,
		StretchNearKm:   2000,
		StretchFarKm:    9000,
		HomeAccessMs:    7.0,
		DCAccessMs:      0.3,
		JitterSigma:     0.08,
		HomeJitterSigma: 0.22,
		MinOWDMs:        0.35,
		LossP:           0.004,
		ConnTimeoutMs:   3000,
		QueryTimeoutMs:  5000,
	}
}

// Net is the simulated internet. It is safe for concurrent use.
type Net struct {
	cfg Config

	// paths memoises each (vantage, endpoint) path's base one-way delay to
	// its serving site. The names only find an entry; it is used when the
	// vantage's Coord and Access and the endpoint's Sites equal what it was
	// computed from, since one name can stand for different deployments.
	mu    sync.Mutex
	paths map[pathKey]*path
}

type pathKey struct{ vantage, endpoint string }

// path is one memoised path and the inputs it was computed from.
type path struct {
	coord  geo.Coord
	access Access
	sites  []geo.Coord // a copy: the caller's slice may change under it
	base   float64
}

// New builds a Net, filling zero Config fields from Defaults.
func New(cfg Config) *Net {
	d := Defaults()
	if cfg.Seed == 0 {
		cfg.Seed = d.Seed
	}
	if cfg.IntraStretch == 0 {
		cfg.IntraStretch = d.IntraStretch
	}
	if cfg.InterStretch == 0 {
		cfg.InterStretch = d.InterStretch
	}
	if cfg.StretchNearKm == 0 {
		cfg.StretchNearKm = d.StretchNearKm
	}
	if cfg.StretchFarKm == 0 {
		cfg.StretchFarKm = d.StretchFarKm
	}
	if cfg.HomeAccessMs == 0 {
		cfg.HomeAccessMs = d.HomeAccessMs
	}
	if cfg.DCAccessMs == 0 {
		cfg.DCAccessMs = d.DCAccessMs
	}
	if cfg.JitterSigma == 0 {
		cfg.JitterSigma = d.JitterSigma
	}
	if cfg.HomeJitterSigma == 0 {
		cfg.HomeJitterSigma = d.HomeJitterSigma
	}
	if cfg.MinOWDMs == 0 {
		cfg.MinOWDMs = d.MinOWDMs
	}
	if cfg.LossP == 0 {
		cfg.LossP = d.LossP
	}
	if cfg.ConnTimeoutMs == 0 {
		cfg.ConnTimeoutMs = d.ConnTimeoutMs
	}
	if cfg.QueryTimeoutMs == 0 {
		cfg.QueryTimeoutMs = d.QueryTimeoutMs
	}
	return &Net{cfg: cfg}
}

// Config returns the effective configuration.
func (n *Net) Config() Config { return n.cfg }

// FNV-1a, the arithmetic of hash/fnv's New64a.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// stream is an RNG and its source, allocated together.
type stream struct {
	src rand.PCG
	rand.Rand
}

// rng derives a deterministic RNG stream for a purpose, named by keys and
// then index. Every independent random decision in the model gets its own
// stream so adding a draw in one place never perturbs another. The PCG
// seeds are FNV-1a over the seed's 8 little-endian bytes, a 0 byte before
// each key and before index's decimal digits; the second seed hashes one
// more byte, 0xA5.
func (n *Net) rng(index int, keys ...string) *rand.Rand {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(n.cfg.Seed>>(8*i)))) * fnvPrime
	}
	for _, k := range keys {
		h = fnvKey(h, k)
	}
	var digits [20]byte
	h = fnvKey(h, string(strconv.AppendInt(digits[:0], int64(index), 10)))
	s := new(stream)
	s.src.Seed(h, (h^0xA5)*fnvPrime)
	s.Rand = *rand.New(&s.src)
	return &s.Rand
}

// fnvKey continues FNV-1a hash h over a 0 byte and then k.
func fnvKey(h uint64, k string) uint64 {
	h *= fnvPrime // h^0 is h
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * fnvPrime
	}
	return h
}

// stretch returns the path-stretch factor for a geodesic distance.
func (n *Net) stretch(distKm float64) float64 {
	c := n.cfg
	switch {
	case distKm <= c.StretchNearKm:
		return c.IntraStretch
	case distKm >= c.StretchFarKm:
		return c.InterStretch
	default:
		frac := (distKm - c.StretchNearKm) / (c.StretchFarKm - c.StretchNearKm)
		return c.IntraStretch + frac*(c.InterStretch-c.IntraStretch)
	}
}

// SiteFor returns the endpoint site serving the vantage (nearest under the
// anycast model) and its geodesic distance in km.
func (n *Net) SiteFor(v Vantage, e *Endpoint) (geo.Coord, float64) {
	i, d := geo.Nearest(v.Coord, e.Sites)
	if i < 0 {
		return geo.Coord{}, math.Inf(1)
	}
	return e.Sites[i], d
}

// BaseOWDMs returns the deterministic (jitter-free) one-way delay in ms
// between a vantage and a site: propagation over the stretched path plus
// the vantage's access latency and the floor.
func (n *Net) BaseOWDMs(v Vantage, site geo.Coord) float64 {
	d := geo.DistanceKm(v.Coord, site)
	owd := geo.PropagationMs(d, n.stretch(d))
	if v.Access == AccessHome {
		owd += n.cfg.HomeAccessMs
	} else {
		owd += n.cfg.DCAccessMs
	}
	if owd < n.cfg.MinOWDMs {
		owd = n.cfg.MinOWDMs
	}
	return owd
}

// path returns BaseOWDMs for v and the site SiteFor picks from e, from the
// memo when v and e still hold what its entry was computed from.
func (n *Net) path(v Vantage, e *Endpoint) float64 {
	k := pathKey{v.Name, e.Name}
	n.mu.Lock()
	p := n.paths[k]
	n.mu.Unlock()
	if p == nil || p.coord != v.Coord || p.access != v.Access || !slices.Equal(p.sites, e.Sites) {
		site, _ := n.SiteFor(v, e)
		p = &path{coord: v.Coord, access: v.Access, sites: slices.Clone(e.Sites),
			base: n.BaseOWDMs(v, site)}
		n.mu.Lock()
		if n.paths == nil {
			n.paths = make(map[pathKey]*path)
		}
		n.paths[k] = p
		n.mu.Unlock()
	}
	return p.base
}

// owdSample draws one jittered one-way delay around base, the path's
// BaseOWDMs. The base is a pure function of (vantage, site), so Query and
// Ping look it up once per call and hand it to every draw on the path.
func (n *Net) owdSample(rng *rand.Rand, v Vantage, base float64) float64 {
	sigma := n.cfg.JitterSigma
	if v.Access == AccessHome {
		sigma = n.cfg.HomeJitterSigma
	}
	return stats.LogNormalByMedian(rng, base, sigma)
}

// rttSample draws one round-trip time, accounting for loss-triggered
// retransmission: a lost segment costs an extra delay drawn from a bounded
// Pareto (RTO back-off territory).
func (n *Net) rttSample(rng *rand.Rand, v Vantage, base float64) float64 {
	rtt := n.owdSample(rng, v, base) + n.owdSample(rng, v, base)
	if stats.Bernoulli(rng, n.cfg.LossP) {
		rtt += stats.Pareto(rng, 1.2, 180, 1200)
	}
	return rtt
}

// QueryResult is the outcome of one simulated DNS transaction.
type QueryResult struct {
	Duration time.Duration
	Err      ErrClass
	// CacheHit reports whether the resolver answered from cache (only
	// meaningful when Err == OK).
	CacheHit bool
}

// roundTrips returns the number of network round trips a fresh transaction
// of the protocol costs before the answer: TCP handshake, TLS handshake
// (1 RTT for TLS 1.3, 2 for TLS 1.2), then the query/response exchange.
// Do53 over UDP is a single exchange. Connection reuse collapses everything
// but the exchange itself.
func roundTrips(p Protocol, e *Endpoint, reuse bool) int {
	if reuse || p == ProtoDo53 {
		return 1 // exchange only
	}
	rtts := 1 /* TCP */ + 1 /* TLS 1.3 */ + 1 /* exchange */
	if e.TLS12 {
		rtts++
	}
	return rtts
}

// Query simulates one DNS query from v to e at the given round index.
// reuse selects an established-connection query (the tool's default, like
// the paper's dig runs, is fresh connections: reuse=false).
func (n *Net) Query(v Vantage, e *Endpoint, p Protocol, reuse bool, round int, domain string) QueryResult {
	rng := n.rng(round, "query", v.Name, e.Name, p.String(), domain)
	base := n.path(v, e)
	var res QueryResult

	if e.Down {
		res.Err = ErrConnect
		res.Duration = msToDur(n.cfg.ConnTimeoutMs)
		return res
	}
	// Per-round flaky windows: drawn from a stream keyed only by endpoint
	// and round, so all domains in a round see the same window but rounds
	// are independent (no consistent failing subset across runs).
	failP := e.FailP
	if e.FlakyP > 0 {
		wrng := n.rng(round, "window", e.Name)
		if stats.Bernoulli(wrng, e.FlakyP) {
			failP = 0.85
		}
	}
	if stats.Bernoulli(rng, failP) {
		// Classify the failure. Connection-establishment failures dominate
		// (the paper's most common error class), with smaller shares of
		// timeouts, HTTP-level errors, and TLS failures.
		switch u := rng.Float64(); {
		case u < 0.78:
			res.Err = ErrConnect
			// Fast RST-style refusal ~70% of the time, silent SYN drop
			// with a full connect timeout otherwise.
			if stats.Bernoulli(rng, 0.7) {
				res.Duration = msToDur(n.rttSample(rng, v, base))
			} else {
				res.Duration = msToDur(n.cfg.ConnTimeoutMs)
			}
		case u < 0.88:
			res.Err = ErrTimeout
			res.Duration = msToDur(n.cfg.QueryTimeoutMs)
		case u < 0.95 && p == ProtoDoH:
			// The endpoint spoke HTTPS but answered 5xx: costs the full
			// connection setup plus the failed exchange.
			res.Err = ErrHTTP
			var ms float64
			for i := 0; i < roundTrips(p, e, reuse); i++ {
				ms += n.rttSample(rng, v, base)
			}
			res.Duration = msToDur(ms)
		default:
			// TLS negotiation failure: TCP connected, handshake died.
			res.Err = ErrTLS
			res.Duration = msToDur(n.rttSample(rng, v, base) + n.rttSample(rng, v, base))
		}
		return res
	}

	var totalMs float64
	for i := roundTrips(p, e, reuse); i > 0; i-- {
		totalMs += n.rttSample(rng, v, base)
	}
	// Server processing: cache hit or a full recursion.
	res.CacheHit = stats.Bernoulli(rng, cacheHitP)
	proc := stats.LogNormalByMedian(rng, e.ProcMs, e.ProcSigma)
	if !res.CacheHit {
		proc += stats.LogNormalByMedian(rng, recurseMs, 0.45)
	}
	totalMs += proc

	if totalMs > n.cfg.QueryTimeoutMs {
		res.Err = ErrTimeout
		res.Duration = msToDur(n.cfg.QueryTimeoutMs)
		return res
	}
	res.Duration = msToDur(totalMs)
	return res
}

// Ping simulates one ICMP echo exchange. It returns ok=false when the
// endpoint does not answer ICMP or the probe (including retries) was lost.
func (n *Net) Ping(v Vantage, e *Endpoint, round int) (time.Duration, bool) {
	if e.Down || !e.ICMPResponds {
		return 0, false
	}
	rng := n.rng(round, "ping", v.Name, e.Name)
	base := n.path(v, e)
	for attempt := 0; attempt < 3; attempt++ {
		if stats.Bernoulli(rng, n.cfg.LossP) {
			continue
		}
		// ICMP echo is a single exchange with negligible target processing.
		return msToDur(n.owdSample(rng, v, base) + n.owdSample(rng, v, base)), true
	}
	return 0, false
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}
