package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/keyhash"
	"encdns/internal/obs"
	"encdns/internal/transport"
)

// Cluster-hop marker purposes, carried as the first payload byte of the
// dnswire.OptionCodeClusterHop EDNS option. The rest of the payload is
// the cluster ID, so a peer that belongs to a different cluster (config
// drift, port reuse) refuses instead of silently serving.
const (
	// purposeForward marks a query forwarded to the key's owner; the
	// receiver answers from its own resolver and never forwards on.
	purposeForward byte = 'f'
	// purposeProbe is a health probe answered directly by the cluster
	// layer (empty NOERROR) without touching the resolver, so a probe
	// tests the peer's liveness, not its upstream.
	purposeProbe byte = 'p'
)

// ProbeName is the query name carried by health probes. The receiving
// peer answers it at the cluster layer, so the name never reaches a
// resolver; .invalid keeps any misdirected copy unresolvable (RFC 2606).
const ProbeName = "_cluster-health.invalid."

// Node tuning.
const (
	// loadFactor is the bounded-load factor c in the ceil(c·(total+1)/N)
	// per-peer bound on in-flight forwards.
	loadFactor = 1.25
	// forwardTimeout bounds one peer forward or probe.
	forwardTimeout = 2 * time.Second
	// probeInterval is how often ProbeLoop probes every remote peer.
	probeInterval = time.Second
)

// ErrClosed is returned for forwards attempted after Close.
var ErrClosed = errors.New("cluster: node closed")

// Node is one cluster member's routing layer. It sits between the DNS
// front ends and the local resolver: queries whose cache key the local
// instance owns are answered locally; those a peer owns are forwarded one
// hop over the transport layer, so each key is cached at its owner only.
// Self, Local and Forward are required.
//
// The peer list is static (the paper's deployment model: a fixed fleet
// of instances behind stable addresses); health is dynamic. The node
// keeps each remote peer's health itself (peerHealth), fed by its own
// forwards and probes, and every eligibility flip swaps in a freshly
// built immutable Ring, so routing never locks. All peers start on the
// ring: a cluster must assume its members are up until observed
// otherwise, or a cold start would forward nothing.
type Node struct {
	// Self is this instance's cluster ID (PeerID of its Do53 endpoint
	// as the other peers dial it: every member must spell every ID the
	// same way or the rings disagree). Required.
	Self string
	// Peers are the remote members' cluster IDs; blanks, duplicates and
	// Self are dropped.
	Peers []string
	// Local answers queries this instance serves itself (the recursive
	// resolver, typically cache-backed). Required.
	Local dns53.Handler
	// Forward exchanges marked queries with peers, addressed by the
	// peer ID (a transport endpoint). Required.
	Forward transport.Multi
	// ClusterID must match on every member; mismatched hops are REFUSED.
	ClusterID string
	// Now is the clock peer health is judged by; nil uses time.Now.
	// Hand it netsim.NowFunc(clock) in virtual-time tests.
	Now func() time.Time

	initOnce sync.Once
	remotes  []string                 // Peers, deduplicated, without Self
	inflight map[string]*atomic.Int64 // per-peer in-flight forwards; fixed keys after init

	mu     sync.Mutex             // guards the peerHealth values
	health map[string]*peerHealth // fixed keys after init
	ring   atomic.Pointer[Ring]

	closeMu sync.Mutex
	closed  bool
	wg      sync.WaitGroup

	mLocalHits    *obs.Counter
	mOwnerLocal   *obs.Counter
	mOwnerRemote  *obs.Counter
	mFallback     *obs.Counter
	mHopServed    *obs.Counter
	mHopRefused   *obs.Counter
	mProbes       *obs.Counter
	mRebuilds     *obs.Counter
	mForwards     *peerCounters
	mForwardFails *peerCounters
}

// peerCounters lazily materialises one obs counter per peer label.
type peerCounters struct {
	name, help string
	mu         sync.Mutex
	m          map[string]*obs.Counter
}

func (pc *peerCounters) get(peer string) *obs.Counter {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	c, ok := pc.m[peer]
	if !ok {
		c = obs.Default().Counter(pc.name, pc.help, "peer", peer)
		pc.m[peer] = c
	}
	return c
}

func (n *Node) init() {
	n.initOnce.Do(func() {
		n.inflight = map[string]*atomic.Int64{n.Self: new(atomic.Int64)}
		n.health = map[string]*peerHealth{}
		for _, p := range n.Peers {
			if _, seen := n.inflight[p]; p == "" || seen {
				continue
			}
			n.remotes = append(n.remotes, p)
			n.inflight[p] = new(atomic.Int64)
			n.health[p] = &peerHealth{on: true}
		}
		n.ring.Store(n.buildRingLocked())
		reg := obs.Default()
		n.mLocalHits = reg.Counter("cluster_local_hits_total",
			"Queries answered on the local fast path before routing (template hits).")
		n.mOwnerLocal = reg.Counter("cluster_owner_local_total",
			"Queries whose cache key this instance owns (answered locally).")
		n.mOwnerRemote = reg.Counter("cluster_owner_remote_total",
			"Queries whose cache key a peer owns (forwarded one hop).")
		n.mFallback = reg.Counter("cluster_forward_fallback_local_total",
			"Forwards that failed and fell back to local resolution.")
		n.mHopServed = reg.Counter("cluster_hop_served_total",
			"Marked one-hop queries forwarded by peers and served here.")
		n.mHopRefused = reg.Counter("cluster_hop_refused_total",
			"Marked queries refused for carrying a foreign cluster ID.")
		n.mProbes = reg.Counter("cluster_probes_total",
			"Active peer health probes sent.")
		n.mRebuilds = reg.Counter("cluster_ring_rebuilds_total",
			"Consistent-hash ring rebuilds caused by peer eligibility changes.")
		n.mForwards = &peerCounters{name: "cluster_forwards_total",
			help: "Queries forwarded to the owning peer.", m: map[string]*obs.Counter{}}
		n.mForwardFails = &peerCounters{name: "cluster_forward_failures_total",
			help: "Peer forwards that failed (timeout, network, refusal).", m: map[string]*obs.Counter{}}
	})
}

func (n *Node) now() time.Time {
	if n.Now != nil {
		return n.Now()
	}
	return time.Now()
}

// currentRing returns the ring routing decisions read now. The ring is
// immutable; hold the pointer for the duration of one routing decision
// so its owner and spill lookups agree.
func (n *Node) currentRing() *Ring {
	n.init()
	return n.ring.Load()
}

// buildRingLocked constructs a ring over Self and the eligible remote
// peers. Callers hold n.mu (or are init, before publication).
func (n *Node) buildRingLocked() *Ring {
	peers := []string{n.Self}
	for _, p := range n.remotes {
		if n.health[p].on {
			peers = append(peers, p)
		}
	}
	return NewRing(peers)
}

// observe feeds one exchange with a remote peer, a forward or a probe,
// into its health and rebuilds the ring when its eligibility flips: a
// peer that leaves hands its key ranges to its ring successors.
func (n *Node) observe(peer string, ok bool) {
	h, known := n.health[peer]
	if !known {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// The clock is read under the lock, so stamps reach step in order
	// and lastFail never moves back.
	if !h.step(ok, n.now()) {
		return
	}
	n.ring.Store(n.buildRingLocked())
	n.mRebuilds.Inc()
}

// peerLoad reports a peer's in-flight forward count for the bounded-load
// walk. Unknown peers (can only happen on config drift) count as zero.
func (n *Node) peerLoad(peer string) int {
	if c, ok := n.inflight[peer]; ok {
		return int(c.Load())
	}
	return 0
}

// beginOp registers an in-flight background operation; false after Close.
func (n *Node) beginOp() bool {
	n.closeMu.Lock()
	defer n.closeMu.Unlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	return true
}

// Close stops accepting new forwards and probes and waits for the
// in-flight ones to drain. Safe to call more than once. Callers
// shut down in order: front-end listeners first (no new queries), then
// Close (drain peer traffic), then the forward transport and resolver.
func (n *Node) Close() {
	n.closeMu.Lock()
	already := n.closed
	n.closed = true
	n.closeMu.Unlock()
	if already {
		return
	}
	n.wg.Wait()
}

// ServeDNS implements dns53.Handler: the cluster routing decision for
// one query. A key this instance owns goes to Local, a key a peer owns is
// forwarded to it, so the query is looked up in one cache, its owner's. A
// query without a question has no key to route and is answered FORMERR,
// as the resolvers answer it.
func (n *Node) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	n.init()
	if purpose, cid, ok := clusterHop(q); ok {
		return n.serveHop(ctx, q, purpose, cid)
	}
	q0 := q.Question0()
	if q0.Name == "" {
		resp := q.Reply()
		resp.Header.RCode = dnswire.RCodeFormat
		return resp, nil
	}
	hash := keyhash.Key(q0.Name, uint16(q0.Type))
	owner, ok := n.currentRing().OwnerBounded(hash, n.peerLoad, loadFactor)
	if !ok || owner == n.Self {
		n.mOwnerLocal.Inc()
		return n.Local.ServeDNS(ctx, q)
	}
	n.mOwnerRemote.Inc()
	resp, err := n.forward(ctx, owner, q0)
	if err != nil {
		// The owner is unreachable (or we are closing): answer locally
		// rather than fail the client. forward has already counted the
		// failure; a dead peer leaves the ring after downAfter
		// consecutive failed exchanges and its ring successor becomes
		// the steady-state owner.
		n.mFallback.Inc()
		return n.Local.ServeDNS(ctx, q)
	}
	out := q.Reply()
	out.Header.RA = true
	out.Header.RCode = resp.Header.RCode
	out.Answers = resp.Answers
	return out, nil
}

// AppendResponse implements the dns53.ResponseAppender fast path: a hit
// in Local's cache is served from its wire template when Local has a fast
// path, whoever owns the key; everything else — including hop-marked peer
// queries, which must run the full routing decision — declines back to
// ServeDNS.
func (n *Node) AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, int64, bool) {
	ra, ok := n.Local.(dns53.ResponseAppender)
	if !ok {
		return dst, 0, false
	}
	if _, _, ok := clusterHop(q); ok {
		return dst, 0, false
	}
	n.init()
	out, minTTL, ok := ra.AppendResponse(dst, q, rawQuestion)
	if !ok {
		return dst, 0, false
	}
	n.mLocalHits.Inc()
	return out, minTTL, true
}

// serveHop handles a query already forwarded once by a peer: answer
// locally, never forward again.
func (n *Node) serveHop(ctx context.Context, q *dnswire.Message, purpose byte, cid string) (*dnswire.Message, error) {
	if cid != n.ClusterID {
		n.mHopRefused.Inc()
		out := q.Reply()
		out.Header.RCode = dnswire.RCodeRefused
		return out, nil
	}
	if purpose == purposeProbe {
		n.mProbes.Inc()
		out := q.Reply()
		out.Header.RA = true
		return out, nil
	}
	n.mHopServed.Inc()
	return n.Local.ServeDNS(ctx, q)
}

// forward sends one marked query to peer and feeds the outcome into the
// peer's health.
func (n *Node) forward(ctx context.Context, peer string, q0 dnswire.Question) (*dnswire.Message, error) {
	if !n.beginOp() {
		return nil, ErrClosed
	}
	defer n.wg.Done()
	if c, ok := n.inflight[peer]; ok {
		c.Add(1)
		defer c.Add(-1)
	}
	n.mForwards.get(peer).Inc()
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	fq := dnswire.NewQuery(dns53.NewID(), q0.Name, q0.Type)
	setClusterHop(fq, purposeForward, n.ClusterID)
	resp, err := n.Forward.Exchange(ctx, fq, peer)
	if err == nil && resp.Header.RCode == dnswire.RCodeRefused {
		// A peer refusing the hop marker is misconfigured (foreign
		// cluster ID); treat it as down so the ring stops routing there.
		err = errors.New("cluster: peer refused hop (cluster ID mismatch)")
	}
	if err != nil {
		n.mForwardFails.get(peer).Inc()
		n.observe(peer, false)
		return nil, err
	}
	n.observe(peer, true)
	return resp, nil
}

// ProbeQuery builds one health-probe query for a cluster peer: a marked
// TXT query the receiving node answers at the cluster layer without
// touching its resolver. Shared by the node's probe loop and dnsdig
// -ring.
func ProbeQuery(clusterID string) *dnswire.Message {
	q := dnswire.NewQuery(dns53.NewID(), ProbeName, dnswire.TypeTXT)
	setClusterHop(q, purposeProbe, clusterID)
	return q
}

// ProbeOnce actively probes every remote peer once and feeds the
// outcomes into their health. Passive observation alone cannot bring
// back a peer that left the ring — no forwards are routed to it, so
// nothing would ever observe it healthy again; the probe loop closes
// that loop.
// dohserver runs it on a ticker; virtual-time tests call it directly.
func (n *Node) ProbeOnce(ctx context.Context) {
	n.init()
	for _, peer := range n.remotes {
		if !n.beginOp() {
			return
		}
		func() {
			defer n.wg.Done()
			pctx, cancel := context.WithTimeout(ctx, forwardTimeout)
			defer cancel()
			_, err := n.Forward.Exchange(pctx, ProbeQuery(n.ClusterID), peer)
			n.observe(peer, err == nil)
		}()
	}
}

// ProbeLoop runs ProbeOnce every probeInterval until ctx is cancelled.
func (n *Node) ProbeLoop(ctx context.Context) {
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			n.ProbeOnce(ctx)
		}
	}
}

// setClusterHop attaches the one-hop marker option (purpose byte, then
// the cluster ID) to a query, creating the OPT record when absent.
func setClusterHop(m *dnswire.Message, purpose byte, clusterID string) {
	opt, ok := m.EDNS()
	if !ok {
		m.SetEDNS(dnswire.MaxEDNSSize, false)
		opt, _ = m.EDNS()
	}
	payload := make([]byte, 0, 1+len(clusterID))
	payload = append(payload, purpose)
	payload = append(payload, clusterID...)
	kept := opt.Options[:0]
	for _, o := range opt.Options {
		if o.Code != dnswire.OptionCodeClusterHop {
			kept = append(kept, o)
		}
	}
	opt.Options = append(kept, dnswire.EDNSOption{Code: dnswire.OptionCodeClusterHop, Data: payload})
}

// clusterHop extracts the one-hop marker from a query, if present.
func clusterHop(m *dnswire.Message) (purpose byte, clusterID string, ok bool) {
	opt, has := m.EDNS()
	if !has {
		return 0, "", false
	}
	for _, o := range opt.Options {
		if o.Code == dnswire.OptionCodeClusterHop && len(o.Data) >= 1 {
			return o.Data[0], string(o.Data[1:]), true
		}
	}
	return 0, "", false
}
