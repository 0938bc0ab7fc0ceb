package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/keyhash"
	"encdns/internal/netsim"
	"encdns/internal/resolver"
	"encdns/internal/testutil"
)

// countingResolver is a stand-in for the local recursive resolver: it
// answers every A query and writes the answer into its cache, exactly
// what a cache-backed Recursive does on a miss.
type countingResolver struct {
	cache *resolver.Cache
	addr  netip.Addr
	calls atomic.Int64
}

func (c *countingResolver) ServeDNS(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	c.calls.Add(1)
	q0 := q.Question0()
	rr := dnswire.Record{
		Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: &dnswire.A{Addr: c.addr},
	}
	if c.cache != nil {
		c.cache.PutRRset(q0.Name, q0.Type, []dnswire.Record{rr})
	}
	resp := q.Reply()
	resp.Header.RA = true
	resp.Answers = []dnswire.Record{rr}
	return resp, nil
}

// loopNet is an in-memory transport.Multi wiring peer endpoints straight
// to their nodes' ServeDNS, with per-peer fault injection.
type loopNet struct {
	mu    sync.Mutex
	nodes map[string]*Node
	fail  map[string]bool
}

func newLoopNet() *loopNet {
	return &loopNet{nodes: map[string]*Node{}, fail: map[string]bool{}}
}

func (l *loopNet) setFail(peer string, down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail[peer] = down
}

func (l *loopNet) Exchange(ctx context.Context, q *dnswire.Message, endpoint string) (*dnswire.Message, error) {
	l.mu.Lock()
	down := l.fail[endpoint]
	n := l.nodes[endpoint]
	l.mu.Unlock()
	if down || n == nil {
		return nil, errors.New("loopnet: connection refused")
	}
	return n.ServeDNS(ctx, q)
}

// testCluster is three in-process nodes sharing one loopback net and one
// virtual clock.
type testCluster struct {
	net    *loopNet
	clock  *netsim.VirtualClock
	nodes  []*Node
	locals []*countingResolver
	caches []*resolver.Cache
	peers  []string
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	clock := netsim.NewVirtualClock(time.Unix(1700000000, 0))
	tc := &testCluster{net: newLoopNet(), clock: clock}
	for i := 0; i < n; i++ {
		tc.peers = append(tc.peers, fmt.Sprintf("udp://127.0.0.1:%d", 5301+i))
	}
	for i, self := range tc.peers {
		cache := resolver.NewCache(1024, clock.Now)
		local := &countingResolver{
			cache: cache,
			addr:  netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", i+1)),
		}
		node := &Node{
			Self:      self,
			Peers:     tc.peers, // Self among them is dropped
			Local:     local,
			Forward:   tc.net,
			ClusterID: "test-cluster",
			Now:       netsim.NowFunc(clock),
		}
		tc.net.nodes[self] = node
		tc.nodes = append(tc.nodes, node)
		tc.locals = append(tc.locals, local)
		tc.caches = append(tc.caches, cache)
	}
	t.Cleanup(func() {
		for _, n := range tc.nodes {
			n.Close()
		}
	})
	return tc
}

// ownedNames finds n distinct qnames whose A-keys the given peer index
// owns on node 0's current ring.
func (tc *testCluster) ownedNames(t *testing.T, idx, n int) []string {
	t.Helper()
	ring := tc.nodes[0].currentRing()
	var out []string
	for i := 0; i < 10000 && len(out) < n; i++ {
		name := fmt.Sprintf("owned-%d.example.com.", i)
		if o, _ := ring.Owner(keyhash.Key(name, uint16(dnswire.TypeA))); o == tc.peers[idx] {
			out = append(out, name)
		}
	}
	if len(out) < n {
		t.Fatal("not enough sample names owned by peer; ring broken")
	}
	return out
}

// ownedBy returns one qname the given peer index owns.
func (tc *testCluster) ownedBy(t *testing.T, idx int) string {
	t.Helper()
	return tc.ownedNames(t, idx, 1)[0]
}

func query(t *testing.T, n *Node, name string) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(dns53.NewID(), name, dnswire.TypeA)
	resp, err := n.ServeDNS(context.Background(), q)
	if err != nil {
		t.Fatalf("ServeDNS(%s): %v", name, err)
	}
	return resp
}

var _ dns53.Handler = (*Node)(nil)

func TestClusterForwardsMissToOwner(t *testing.T) {
	tc := newTestCluster(t, 3)
	name := tc.ownedBy(t, 1)

	resp := query(t, tc.nodes[0], name)
	if len(resp.Answers) != 1 {
		t.Fatalf("forwarded query returned %d answers", len(resp.Answers))
	}
	// The owner's resolver did the work; node 0 never resolved locally.
	if got := tc.locals[1].calls.Load(); got != 1 {
		t.Errorf("owner resolver calls = %d, want 1", got)
	}
	if got := tc.locals[0].calls.Load(); got != 0 {
		t.Errorf("origin resolver calls = %d, want 0 (miss was forwarded)", got)
	}
	// The answer carries the owner's address, proving who resolved it.
	if a := resp.Answers[0].Data.(*dnswire.A); a.Addr != netip.MustParseAddr("192.0.2.2") {
		t.Errorf("answer from %v, want owner 192.0.2.2", a.Addr)
	}
}

// gatedNet holds every exchange at its gate: it reports each arrival and
// passes the exchange on to net only once open is closed.
type gatedNet struct {
	net     *loopNet
	arrived chan struct{}
	open    chan struct{}
}

func (g *gatedNet) Exchange(ctx context.Context, q *dnswire.Message, endpoint string) (*dnswire.Message, error) {
	g.arrived <- struct{}{}
	<-g.open
	return g.net.Exchange(ctx, q, endpoint)
}

// TestClusterOwnerAnswersConcurrentForwards: a key goes to its owner
// however many forwards to that owner are already in flight. Node 0
// routes k names peer 1 owns one after another while every earlier
// forward is held at the gate, then the gate opens; peer 1's resolver
// must have answered all k, and neither node 0's nor peer 2's any.
func TestClusterOwnerAnswersConcurrentForwards(t *testing.T) {
	for _, k := range []int{2, 32} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			tc := newTestCluster(t, 3)
			gate := &gatedNet{net: tc.net, arrived: make(chan struct{}), open: make(chan struct{})}
			tc.nodes[0].Forward = gate
			names := tc.ownedNames(t, 1, k)
			answers := make(chan *dnswire.Message, k)
			for _, name := range names {
				done := make(chan struct{})
				go func() {
					defer close(done)
					resp, err := tc.nodes[0].ServeDNS(context.Background(), dnswire.NewQuery(dns53.NewID(), name, dnswire.TypeA))
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
					answers <- resp
				}()
				// The next name is routed only once this one is held at
				// the gate or was answered without an exchange.
				select {
				case <-gate.arrived:
				case <-done:
				}
			}
			close(gate.open)
			for range names {
				resp := <-answers
				if resp == nil {
					continue
				}
				if len(resp.Answers) != 1 {
					t.Fatalf("%s: %d answers", resp.Question0().Name, len(resp.Answers))
				}
				if a := resp.Answers[0].Data.(*dnswire.A); a.Addr != netip.MustParseAddr("192.0.2.2") {
					t.Errorf("%s answered by %v, want owner 192.0.2.2", resp.Question0().Name, a.Addr)
				}
			}
			for i, want := range []int64{0, int64(k), 0} {
				if got := tc.locals[i].calls.Load(); got != want {
					t.Errorf("node %d's resolver answered %d of %d queries, want %d", i, got, k, want)
				}
			}
		})
	}
}

// TestClusterOneHopOnly is the loop-prevention property: a marked query
// is answered locally even when the receiver does not own the key, so a
// ring disagreement costs one extra hop, never a forwarding loop.
func TestClusterOneHopOnly(t *testing.T) {
	tc := newTestCluster(t, 3)
	name := tc.ownedBy(t, 2) // owned by peer 2...

	q := dnswire.NewQuery(dns53.NewID(), name, dnswire.TypeA)
	setClusterHop(q, purposeForward, "test-cluster")
	resp, err := tc.nodes[1].ServeDNS(context.Background(), q) // ...delivered to peer 1
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("marked query returned %d answers", len(resp.Answers))
	}
	if got := tc.locals[1].calls.Load(); got != 1 {
		t.Errorf("receiver resolver calls = %d, want 1 (must answer locally)", got)
	}
	if got := tc.locals[2].calls.Load(); got != 0 {
		t.Errorf("owner resolver calls = %d, want 0 (marked query must not re-forward)", got)
	}
}

func TestClusterRefusesForeignClusterID(t *testing.T) {
	tc := newTestCluster(t, 2)
	q := dnswire.NewQuery(dns53.NewID(), "x.example.com.", dnswire.TypeA)
	setClusterHop(q, purposeForward, "someone-elses-cluster")
	resp, err := tc.nodes[0].ServeDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("foreign cluster ID got RCode %v, want REFUSED", resp.Header.RCode)
	}
	if tc.locals[0].calls.Load() != 0 {
		t.Error("foreign-cluster query must not reach the resolver")
	}
}

// TestClusterCountsEachClientLookupOnce puts each node over a Recursive
// with a cache of its own, as dohserver does, and checks the
// resolver_cache_* counters move once per client query: the node looks
// nothing up itself, so a key it owns is looked up by its resolver alone
// and a key a peer owns by the owner's resolver alone.
func TestClusterCountsEachClientLookupOnce(t *testing.T) {
	tc := newTestCluster(t, 2)
	for i, n := range tc.nodes {
		n.Local = &resolver.Recursive{Exchange: authAnswerer{}, Roots: []string{"198.41.0.4:53"},
			Cache: tc.caches[i], RNGSeed: 1}
	}
	step := func(name string, wantHits, wantMisses uint64) {
		t.Helper()
		hits, misses := testutil.CounterValue(t, "resolver_cache_hits_total"), testutil.CounterValue(t, "resolver_cache_misses_total")
		if resp := query(t, tc.nodes[0], name); len(resp.Answers) != 1 {
			t.Fatalf("%s: %d answers", name, len(resp.Answers))
		}
		hits, misses = testutil.CounterValue(t, "resolver_cache_hits_total")-hits, testutil.CounterValue(t, "resolver_cache_misses_total")-misses
		if hits != wantHits || misses != wantMisses {
			t.Errorf("%s: +%d hits +%d misses, want +%d +%d", name, hits, misses, wantHits, wantMisses)
		}
	}
	own := tc.ownedBy(t, 0)
	step(own, 0, 1) // owner-local miss: the resolver's lookup only
	step(own, 1, 0) // and the hit behind it
	peer := tc.ownedNames(t, 1, 2)
	step(peer[0], 0, 1) // forwarded: the owner's resolver only
	// A failed forward falls back to the local resolver, whose lookup is
	// then the query's one.
	tc.net.setFail(tc.peers[1], true)
	step(peer[1], 0, 1)
}

// cacheFirst is Local as a cache-backed resolver is: it answers from its
// cache and hands only what the cache lacks to the resolver behind it,
// whose calls then count the upstream lookups.
type cacheFirst struct{ *countingResolver }

func (c cacheFirst) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	if resp, ok := c.cache.Reply(q); ok {
		return resp, nil
	}
	return c.countingResolver.ServeDNS(ctx, q)
}

// TestClusterActsAsOneCache: a client-facing cluster partitions its keys
// over the ring, so N nodes of C entries each hold about as much as one
// cache of N·C, not N copies of the popular head. A seeded Zipf stream
// over 50 000 names is sent round-robin to the nodes; the share of
// queries that reach an upstream must match one big cache's within 1 %,
// and beat one small node's by at least 20 %.
func TestClusterActsAsOneCache(t *testing.T) {
	const (
		names   = 50000
		queries = 200000
	)
	pool := make([]string, names)
	for i := range pool {
		pool[i] = fmt.Sprintf("z%d.example.com.", i)
	}
	missRatio := func(nodes, entries int, s float64) float64 {
		tc := newTestCluster(t, nodes)
		locals := make([]*countingResolver, nodes)
		for i, n := range tc.nodes {
			cache := resolver.NewCache(entries, tc.clock.Now)
			t.Cleanup(cache.Close)
			locals[i] = &countingResolver{cache: cache, addr: netip.MustParseAddr("192.0.2.1")}
			n.Local = cacheFirst{locals[i]}
		}
		zipf := rand.NewZipf(rand.New(rand.NewPCG(41, 1)), s, 1, names-1)
		for i := 0; i < queries; i++ {
			if resp := query(t, tc.nodes[i%nodes], pool[zipf.Uint64()]); len(resp.Answers) != 1 {
				t.Fatalf("query %d: %d answers", i, len(resp.Answers))
			}
		}
		var upstream int64
		for _, l := range locals {
			upstream += l.calls.Load()
		}
		return float64(upstream) / queries
	}
	for _, s := range []float64{1.01, 1.2} {
		cluster, one := missRatio(3, 1024, s), missRatio(1, 3072, s)
		t.Logf("s=%.2f: 3×1024 nodes miss %.4f, one 3072 cache %.4f", s, cluster, one)
		if math.Abs(cluster-one) > 0.01*one {
			t.Errorf("s=%.2f: three 1024-entry nodes miss %.4f, one 3072-entry cache %.4f: not within 1%%", s, cluster, one)
		}
		if s != 1.01 {
			continue
		}
		small := missRatio(1, 1024, s)
		t.Logf("s=%.2f: one 1024 node miss %.4f", s, small)
		if cluster > 0.8*small {
			t.Errorf("s=%.2f: three 1024-entry nodes miss %.4f, one 1024-entry node %.4f: want at least 20%% fewer", s, cluster, small)
		}
	}
}

// TestClusterFastPathIsLocals: the node's fast path is Local's. A key in
// Local's cache is served from its wire template; a hop-marked query
// declines, as it must run the routing decision, and so does every query
// when Local has no fast path, its cache full or not.
func TestClusterFastPathIsLocals(t *testing.T) {
	tc := newTestCluster(t, 2)
	tc.nodes[0].Local = &resolver.Recursive{Exchange: authAnswerer{}, Roots: []string{"198.41.0.4:53"},
		Cache: tc.caches[0], RNGSeed: 1}
	fast := func(n *Node, q *dnswire.Message) bool {
		t.Helper()
		raw, err := q.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		rawQ, _ := dnswire.QuestionBytes(raw)
		_, _, ok := n.AppendResponse(nil, q, rawQ)
		return ok
	}
	own := tc.ownedBy(t, 0)
	q := dnswire.NewQuery(1, own, dnswire.TypeA)
	if fast(tc.nodes[0], q) {
		t.Fatal("the fast path answered a key nobody has resolved")
	}
	query(t, tc.nodes[0], own)
	hits := testutil.CounterValue(t, "cluster_local_hits_total")
	if !fast(tc.nodes[0], q) {
		t.Fatal("the fast path declined a key in Local's cache")
	}
	if got := testutil.CounterValue(t, "cluster_local_hits_total") - hits; got != 1 {
		t.Errorf("cluster_local_hits_total moved by %d, want 1", got)
	}
	setClusterHop(q, purposeForward, "test-cluster")
	if fast(tc.nodes[0], q) {
		t.Error("the fast path answered a hop-marked query")
	}
	// Node 1's Local, a countingResolver, caches what it answers but has
	// no fast path.
	hop := tc.ownedBy(t, 1)
	query(t, tc.nodes[1], hop)
	if _, ok := tc.caches[1].Lookup(hop, dnswire.TypeA); !ok {
		t.Fatal("node 1's resolver did not cache its answer")
	}
	if fast(tc.nodes[1], dnswire.NewQuery(2, hop, dnswire.TypeA)) {
		t.Error("the fast path answered though Local has none")
	}
}

// TestClusterEmptyQuestion: a query without a question has no key to
// route; the node answers it FORMERR, as the resolvers do, even when the
// ring gives the empty key to a peer, and nothing is exchanged.
func TestClusterEmptyQuestion(t *testing.T) {
	tc := newTestCluster(t, 3)
	n := tc.nodes[0]
	if owner, _ := n.currentRing().Owner(keyhash.Key("", 0)); owner == tc.peers[0] {
		n = tc.nodes[1] // a node the empty key is remote to
	}
	resp, err := n.ServeDNS(context.Background(), &dnswire.Message{Header: dnswire.Header{ID: 7, RD: true}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormat || resp.Header.ID != 7 || !resp.Header.QR {
		t.Errorf("reply header = %+v, want FORMERR answering ID 7", resp.Header)
	}
	for i, local := range tc.locals {
		if got := local.calls.Load(); got != 0 {
			t.Errorf("node %d's resolver answered %d queries, want none", i, got)
		}
	}
}

// TestClusterPeerFailureRebuildsRingAndRecovers drives the full
// membership lifecycle in virtual time: a dead peer leaves the ring
// after downAfter consecutive failed forwards (clients still get
// answers via local fallback), and active probes re-admit it once it
// comes back.
func TestClusterPeerFailureRebuildsRingAndRecovers(t *testing.T) {
	tc := newTestCluster(t, 3)
	names := tc.ownedNames(t, 1, 4)
	name := names[0]
	victim := tc.peers[1]

	tc.net.setFail(victim, true)
	rebuilds := testutil.CounterValue(t, "cluster_ring_rebuilds_total")

	// downAfter is 3 consecutive failures. Distinct names each
	// time — the local fallback caches its answer, so a repeat of the
	// same name would short-circuit at the cache and observe nothing.
	// Every query still gets an answer: the forward fails, the origin
	// resolves locally.
	for _, n := range names {
		tc.clock.Advance(time.Second)
		resp := query(t, tc.nodes[0], n)
		if len(resp.Answers) != 1 {
			t.Fatalf("query %s during peer outage returned %d answers", n, len(resp.Answers))
		}
	}
	if got := testutil.CounterValue(t, "cluster_ring_rebuilds_total") - rebuilds; got != 1 {
		t.Fatalf("%d ring rebuilds after the peer went down, want 1", got)
	}
	ring := tc.nodes[0].currentRing()
	if ring.Len() != 2 || slices.Contains(ring.Peers(), victim) {
		t.Fatalf("ring peers after failure = %v, want the two survivors", ring.Peers())
	}
	if o, _ := ring.Owner(keyhash.Key(name, uint16(dnswire.TypeA))); o == victim {
		t.Fatal("dead peer still owns its range")
	}

	// Recovery: the peer comes back; active probes observe it healthy.
	// Rejoining needs upAfter consecutive successes AND no failure in
	// the last cleanFor (1m), so let the failure burst age out of the
	// window first.
	tc.net.setFail(victim, false)
	rebuilds = testutil.CounterValue(t, "cluster_ring_rebuilds_total")
	tc.clock.Advance(90 * time.Second)
	for i := 0; i < 4; i++ {
		tc.clock.Advance(time.Second)
		tc.nodes[0].ProbeOnce(context.Background())
	}
	if got := testutil.CounterValue(t, "cluster_ring_rebuilds_total") - rebuilds; got != 1 {
		t.Fatalf("%d ring rebuilds after the probes, want 1 (re-admission)", got)
	}
	if ring := tc.nodes[0].currentRing(); !slices.Contains(ring.Peers(), victim) {
		t.Fatalf("recovered peer not back on the ring: %v", ring.Peers())
	}
}

// TestClusterPeerRejoinsAfterCleanMinute pins the rejoin rule on the
// virtual clock: a peer off the ring comes back only on a run of upAfter
// successes with no failure in the last cleanFor, however many successes
// follow a lone failure, while a peer that fails every other exchange
// never leaves. Every flip is one ring rebuild.
func TestClusterPeerRejoinsAfterCleanMinute(t *testing.T) {
	tc := newTestCluster(t, 2)
	victim := tc.peers[1]
	origin := tc.nodes[0]
	probe := func(fail bool) {
		t.Helper()
		tc.net.setFail(victim, fail)
		tc.clock.Advance(time.Second)
		origin.ProbeOnce(context.Background())
	}
	rebuilds := testutil.CounterValue(t, "cluster_ring_rebuilds_total")
	expect := func(step string, onRing bool, flips uint64) {
		t.Helper()
		if got := slices.Contains(origin.currentRing().Peers(), victim); got != onRing {
			t.Fatalf("%s: peer on the ring = %v, want %v", step, got, onRing)
		}
		if got := testutil.CounterValue(t, "cluster_ring_rebuilds_total") - rebuilds; got != flips {
			t.Fatalf("%s: %d ring rebuilds, want %d", step, got, flips)
		}
	}

	for i := 0; i < 40; i++ {
		probe(i%2 == 0)
	}
	expect("alternating ok and fail", true, 0)

	probe(true)
	probe(true)
	expect("two failures in a row", true, 0)
	probe(true)
	expect("three failures in a row", false, 1)

	// The outage ages out; then one lone failure and 30 successes, all
	// inside a minute. A 1-in-31 failure ratio would have let the peer
	// back; a failure in the last minute does not.
	tc.clock.Advance(90 * time.Second)
	probe(true)
	for i := 0; i < 30; i++ {
		probe(false)
	}
	expect("30 successes after a lone failure", false, 1)
	// Successes go on; the peer rejoins with the probe that ends the
	// clean minute, and not one before.
	for i := 0; i < 29; i++ {
		probe(false)
	}
	expect("59 s after the lone failure", false, 1)
	probe(false)
	expect("a minute after the lone failure", true, 2)

	// Down again, then a minute with no exchange at all: the first run
	// of three successes brings the peer back, and not its first two.
	for i := 0; i < 3; i++ {
		probe(true)
	}
	expect("down again", false, 3)
	tc.clock.Advance(time.Minute)
	probe(false)
	probe(false)
	expect("two successes after a clean minute", false, 3)
	probe(false)
	expect("three successes after a clean minute", true, 4)
}

// TestClusterHealthUnderConcurrentExchanges feeds one peer's health from
// many forwards and probes at once: however they interleave, the peer
// leaves the ring once while it fails and rejoins once after a clean
// minute, one rebuild each.
func TestClusterHealthUnderConcurrentExchanges(t *testing.T) {
	tc := newTestCluster(t, 3)
	victim := tc.peers[1]
	origin := tc.nodes[0]
	names := tc.ownedNames(t, 1, 64)
	rebuilds := testutil.CounterValue(t, "cluster_ring_rebuilds_total")
	concurrently := func(work func(i int)) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(i)
			}()
		}
		wg.Wait()
	}

	tc.net.setFail(victim, true)
	concurrently(func(i int) {
		for _, name := range names[i*8 : i*8+8] {
			if resp, err := origin.ServeDNS(context.Background(), dnswire.NewQuery(dns53.NewID(), name, dnswire.TypeA)); err != nil || len(resp.Answers) != 1 {
				t.Errorf("%s during the outage: %v", name, err)
			}
			origin.ProbeOnce(context.Background())
		}
	})
	if slices.Contains(origin.currentRing().Peers(), victim) {
		t.Fatal("failing peer still on the ring")
	}

	tc.net.setFail(victim, false)
	tc.clock.Advance(2 * time.Minute)
	concurrently(func(int) {
		for j := 0; j < 4; j++ {
			origin.ProbeOnce(context.Background())
		}
	})
	if !slices.Contains(origin.currentRing().Peers(), victim) {
		t.Fatal("recovered peer not back on the ring")
	}
	if got := testutil.CounterValue(t, "cluster_ring_rebuilds_total") - rebuilds; got != 2 {
		t.Errorf("%d ring rebuilds, want 2 (one down, one up)", got)
	}
}

func TestClusterCloseDrainsAndRejectsNewWork(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	tc := newTestCluster(t, 3)
	// Traffic through every path: forwards and probes.
	for i := 0; i < 3; i++ {
		query(t, tc.nodes[0], fmt.Sprintf("drain-%d.example.com.", i))
	}
	tc.nodes[0].ProbeOnce(context.Background())
	for _, n := range tc.nodes {
		n.Close()
		n.Close() // idempotent
	}
	// Forwards after Close fall back to local resolution, never error.
	name := tc.ownedBy(t, 1)
	resp := query(t, tc.nodes[0], name+"x.")
	if len(resp.Answers) != 1 {
		t.Fatal("post-Close query should still answer locally")
	}
	testutil.WaitNoLeaks(t, baseline)
}

// authAnswerer answers any query authoritatively in one exchange, so the
// recursive walk terminates immediately.
type authAnswerer struct{}

func (authAnswerer) Exchange(_ context.Context, q *dnswire.Message, _ string) (*dnswire.Message, error) {
	q0 := q.Question0()
	resp := q.Reply()
	resp.Header.AA = true
	resp.Answers = []dnswire.Record{{
		Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")},
	}}
	return resp, nil
}
