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
	"encdns/internal/resolver"
	"encdns/internal/transport"
)

// Cluster-hop marker purposes, carried as the first payload byte of the
// dnswire.OptionCodeClusterHop EDNS option. The rest of the payload is
// the cluster ID, so a peer that belongs to a different cluster (config
// drift, port reuse) refuses instead of silently serving.
const (
	// purposeForward marks a cache miss forwarded to the key's owner;
	// the receiver answers from its own resolver and never forwards on.
	purposeForward byte = 'f'
	// purposeReplicate tells a replica that a key is hot: the receiver
	// resolves it locally, warming its cache. Replication ships the
	// *fact* that a key is hot, not peer-supplied records — replicas
	// fetch answers themselves, so a compromised peer cannot poison
	// another peer's cache through the replication channel.
	purposeReplicate byte = 'r'
	// purposeProbe is a health probe answered directly by the cluster
	// layer (empty NOERROR) without touching the resolver, so probe RTT
	// measures peer liveness, not upstream latency.
	purposeProbe byte = 'p'
)

// ProbeName is the query name carried by health probes. The receiving
// peer answers it at the cluster layer, so the name never reaches a
// resolver; .invalid keeps any misdirected copy unresolvable (RFC 2606).
const ProbeName = "_cluster-health.invalid."

// DefaultReplicas is how many peers beyond the owner carry each hot key
// (K=2: with the owner that is three copies, so two failures leave the
// popular tail warm somewhere).
const DefaultReplicas = 2

// Node tuning.
const (
	// loadFactor is the bounded-load factor c in the ceil(c·(total+1)/N)
	// per-peer bound on in-flight forwards.
	loadFactor = 1.25
	// forwardTimeout bounds one peer forward, replication push or probe.
	forwardTimeout = 2 * time.Second
	// replicationInflight bounds concurrent replication pushes; beyond it
	// new pushes are dropped (the next prefetch refresh retries), so a
	// hot-set burst cannot starve query forwarding.
	replicationInflight = 16
)

// ErrClosed is returned for forwards attempted after Close.
var ErrClosed = errors.New("cluster: node closed")

// Node is one cluster member's routing layer. It sits between the DNS
// front ends and the local resolver: queries whose cache key the local
// instance owns (or already holds, via replication) are answered
// locally; misses owned by a peer are forwarded one hop over the
// transport layer. Members, Local, Forward and Cache are required.
type Node struct {
	// Members is the ring + health view. Required.
	Members *Membership
	// Local answers queries this instance serves itself (the recursive
	// resolver, typically cache-backed). Required.
	Local dns53.Handler
	// Forward exchanges marked queries with peers, addressed by the
	// peer ID (a transport endpoint). Required.
	Forward transport.Multi
	// Cache answers template hits before any routing and peer-owned keys
	// it holds a replicated copy of before they are forwarded. Usually
	// the same cache the local resolver writes. Required.
	Cache *resolver.Cache
	// ClusterID must match on every member; mismatched hops are REFUSED.
	ClusterID string
	// Replicas is how many peers beyond the owner receive hot-set
	// replication (default DefaultReplicas; negative disables).
	Replicas int
	// Now is the clock used for peer RTT measurement; nil uses
	// time.Now. Hand it netsim.NowFunc(clock) in virtual-time tests.
	Now func() time.Time

	initOnce sync.Once
	inflight map[string]*atomic.Int64 // per-peer in-flight forwards; fixed keys after init

	repMu   sync.Mutex
	repBusy map[repKey]bool
	repSem  chan struct{}

	closeMu sync.Mutex
	closed  bool
	wg      sync.WaitGroup

	mLocalHits    *obs.Counter
	mOwnerLocal   *obs.Counter
	mOwnerRemote  *obs.Counter
	mFallback     *obs.Counter
	mHopServed    *obs.Counter
	mHopRefused   *obs.Counter
	mRepDropped   *obs.Counter
	mProbes       *obs.Counter
	mForwards     *peerCounters
	mForwardFails *peerCounters
	mReplication  *peerCounters
}

// repKey identifies one in-flight replication push.
type repKey struct {
	peer string
	name string
	typ  dnswire.Type
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
		n.inflight = make(map[string]*atomic.Int64, len(n.Members.Remotes())+1)
		n.inflight[n.Members.Self()] = new(atomic.Int64)
		for _, p := range n.Members.Remotes() {
			n.inflight[p] = new(atomic.Int64)
		}
		n.repBusy = make(map[repKey]bool)
		n.repSem = make(chan struct{}, replicationInflight)
		reg := obs.Default()
		n.mLocalHits = reg.Counter("cluster_local_hits_total",
			"Queries answered from the local cache before routing (template hits) or from a replicated copy of a peer's key.")
		n.mOwnerLocal = reg.Counter("cluster_owner_local_total",
			"Queries whose cache key this instance owns (answered locally).")
		n.mOwnerRemote = reg.Counter("cluster_owner_remote_total",
			"Queries whose cache key a peer owns (forwarded one hop).")
		n.mFallback = reg.Counter("cluster_forward_fallback_local_total",
			"Forwards that failed and fell back to local resolution.")
		n.mHopServed = reg.Counter("cluster_hop_served_total",
			"Marked one-hop queries served for peers (forwards and replications).")
		n.mHopRefused = reg.Counter("cluster_hop_refused_total",
			"Marked queries refused for carrying a foreign cluster ID.")
		n.mRepDropped = reg.Counter("cluster_replication_dropped_total",
			"Replication pushes dropped by the in-flight budget or dedup.")
		n.mProbes = reg.Counter("cluster_probes_total",
			"Active peer health probes sent.")
		n.mForwards = &peerCounters{name: "cluster_forwards_total",
			help: "Cache misses forwarded to the owning peer.", m: map[string]*obs.Counter{}}
		n.mForwardFails = &peerCounters{name: "cluster_forward_failures_total",
			help: "Peer forwards that failed (timeout, network, refusal).", m: map[string]*obs.Counter{}}
		n.mReplication = &peerCounters{name: "cluster_replication_sent_total",
			help: "Hot-set replication pushes sent to each replica peer.", m: map[string]*obs.Counter{}}
	})
}

func (n *Node) now() time.Time {
	if n.Now != nil {
		return n.Now()
	}
	return time.Now()
}

func (n *Node) replicas() int {
	if n.Replicas < 0 {
		return 0
	}
	if n.Replicas == 0 {
		return DefaultReplicas
	}
	return n.Replicas
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

// Close stops accepting new forwards and replication pushes and waits
// for the in-flight ones to drain. Safe to call more than once. Callers
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
// one query. It routes first: a key this instance owns goes straight to
// Local, whose own cache lookup is the one the query counts in; only a
// key a peer owns is looked up in Cache — a replicated copy — before it
// is forwarded. A query without a question has no key to route and is
// answered FORMERR, as the resolvers answer it.
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
	owner, ok := n.Members.Ring().OwnerBounded(hash, n.peerLoad, loadFactor)
	if !ok || owner == n.Members.Self() {
		n.mOwnerLocal.Inc()
		return n.Local.ServeDNS(ctx, q)
	}
	if resp, ok := n.Cache.Reply(q); ok {
		n.mLocalHits.Inc()
		return resp, nil
	}
	n.mOwnerRemote.Inc()
	resp, err := n.forward(ctx, owner, q0)
	if err != nil {
		// The owner is unreachable (or we are closing): answer locally
		// rather than fail the client. The health tracker has already
		// seen the failure; a dead peer leaves the ring after
		// DownAfter consecutive misses and the fallback becomes the
		// steady-state owner.
		n.mFallback.Inc()
		return n.Local.ServeDNS(ctx, q)
	}
	out := q.Reply()
	out.Header.RA = true
	out.Header.RCode = resp.Header.RCode
	out.Answers = resp.Answers
	return out, nil
}

// AppendResponse implements the dns53.ResponseAppender fast path:
// local-partition (or replicated) hits are served straight from the
// cache's wire template; everything else — including hop-marked peer
// queries, which must run the full routing decision — declines back to
// ServeDNS.
func (n *Node) AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, int64, bool) {
	if _, _, ok := clusterHop(q); ok {
		return dst, 0, false
	}
	n.init()
	out, res, ok := n.Cache.AppendResponse(dst, q, rawQuestion)
	if !ok {
		return dst, 0, false
	}
	n.mLocalHits.Inc()
	return out, res.MinTTL(), true
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
// membership health tracker.
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
	start := n.now()
	resp, err := n.Forward.Exchange(ctx, fq, peer)
	rtt := n.now().Sub(start)
	if err == nil && resp.Header.RCode == dnswire.RCodeRefused {
		// A peer refusing the hop marker is misconfigured (foreign
		// cluster ID); treat it as down so the ring stops routing there.
		err = errors.New("cluster: peer refused hop (cluster ID mismatch)")
	}
	if err != nil {
		n.mForwardFails.get(peer).Inc()
		n.Members.Observe(peer, false, rtt, transport.Classify(err).String())
		return nil, err
	}
	n.Members.Observe(peer, true, rtt, "")
	return resp, nil
}

// NoteHot replicates one hot cache key to its replica peers. Wire it to
// resolver.Recursive.OnPrefetch: the prefetcher already identifies the
// hot set (keys re-requested late in their TTL), and every refresh
// re-announces the key, so replicas keep their copies warm without any
// separate hot-set bookkeeping. Only the key's owner fans out — a
// replica receiving the induced prefetch does not re-replicate, so
// fanout is bounded at Replicas per refresh.
func (n *Node) NoteHot(name string, t dnswire.Type) {
	n.init()
	k := n.replicas()
	if k == 0 {
		return
	}
	hash := keyhash.Key(name, uint16(t))
	set := n.Members.Ring().Successors(hash, k+1)
	if len(set) == 0 || set[0] != n.Members.Self() {
		return
	}
	for _, peer := range set[1:] {
		n.replicateAsync(peer, name, t)
	}
}

// replicateAsync pushes one hot-key announcement in the background,
// deduplicating concurrent pushes for the same (peer, key) and bounding
// total in-flight pushes.
func (n *Node) replicateAsync(peer, name string, t dnswire.Type) {
	k := repKey{peer: peer, name: name, typ: t}
	n.repMu.Lock()
	if n.repBusy[k] {
		n.repMu.Unlock()
		n.mRepDropped.Inc()
		return
	}
	select {
	case n.repSem <- struct{}{}:
	default:
		n.repMu.Unlock()
		n.mRepDropped.Inc()
		return
	}
	n.repBusy[k] = true
	n.repMu.Unlock()
	release := func() {
		n.repMu.Lock()
		delete(n.repBusy, k)
		n.repMu.Unlock()
		<-n.repSem
	}
	if !n.beginOp() {
		release()
		return
	}
	go func() {
		defer n.wg.Done()
		defer release()
		ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
		defer cancel()
		fq := dnswire.NewQuery(dns53.NewID(), name, t)
		setClusterHop(fq, purposeReplicate, n.ClusterID)
		start := n.now()
		_, err := n.Forward.Exchange(ctx, fq, peer)
		n.mReplication.get(peer).Inc()
		class := ""
		if err != nil {
			class = transport.Classify(err).String()
		}
		n.Members.Observe(peer, err == nil, n.now().Sub(start), class)
	}()
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
// outcomes into the health tracker. Passive observation alone cannot
// recover a Down peer — no forwards are routed to it, so nothing would
// ever observe it healthy again; the probe loop closes that loop.
// dohserver runs it on a ticker; virtual-time tests call it directly.
func (n *Node) ProbeOnce(ctx context.Context) {
	n.init()
	for _, peer := range n.Members.Remotes() {
		if !n.beginOp() {
			return
		}
		func() {
			defer n.wg.Done()
			pctx, cancel := context.WithTimeout(ctx, forwardTimeout)
			defer cancel()
			fq := ProbeQuery(n.ClusterID)
			start := n.now()
			_, err := n.Forward.Exchange(pctx, fq, peer)
			class := ""
			if err != nil {
				class = transport.Classify(err).String()
			}
			n.Members.Observe(peer, err == nil, n.now().Sub(start), class)
		}()
	}
}

// ProbeLoop runs ProbeOnce every interval until ctx is cancelled.
func (n *Node) ProbeLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
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
