package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/keyhash"
	"encdns/internal/monitor"
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
		remotes := make([]string, 0, n-1)
		for _, p := range tc.peers {
			if p != self {
				remotes = append(remotes, p)
			}
		}
		cache := resolver.NewCache(1024, clock.Now)
		local := &countingResolver{
			cache: cache,
			addr:  netip.MustParseAddr(fmt.Sprintf("192.0.2.%d", i+1)),
		}
		node := &Node{
			Members: NewMembership(self, remotes, monitor.Config{
				Now:      netsim.NowFunc(clock),
				Interval: time.Second,
			}),
			Local:     local,
			Forward:   tc.net,
			Cache:     cache,
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
	ring := tc.nodes[0].Members.Ring()
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

func TestClusterReplicatedEntryAnswersLocally(t *testing.T) {
	tc := newTestCluster(t, 3)
	name := tc.ownedBy(t, 1)

	// Warm node 0's cache the way replication would: an induced local
	// resolution on a non-owner.
	mq := dnswire.NewQuery(dns53.NewID(), name, dnswire.TypeA)
	setClusterHop(mq, purposeReplicate, "test-cluster")
	if _, err := tc.nodes[0].ServeDNS(context.Background(), mq); err != nil {
		t.Fatal(err)
	}

	// A client query for the same name on node 0 now hits the local
	// replica; the owner is never consulted.
	resp := query(t, tc.nodes[0], name)
	if len(resp.Answers) != 1 {
		t.Fatalf("got %d answers", len(resp.Answers))
	}
	if got := tc.locals[1].calls.Load(); got != 0 {
		t.Errorf("owner resolver calls = %d, want 0 (replica answered)", got)
	}
}

// TestClusterCountsEachClientLookupOnce puts each node over a Recursive
// that shares the node's cache, as dohserver does, and checks the
// resolver_cache_* counters move once per cache a client query is looked
// up in: the node routes first, so a key it owns is looked up by the
// resolver alone, and a key a peer owns by the node alone (its replicated
// copy) before the forward, and then by the owner's resolver.
func TestClusterCountsEachClientLookupOnce(t *testing.T) {
	tc := newTestCluster(t, 2)
	for i, n := range tc.nodes {
		n.Local = &resolver.Recursive{Exchange: authAnswerer{}, Roots: []string{"198.41.0.4:53"},
			Cache: tc.caches[i], RNGSeed: 1, Now: tc.clock.Now}
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
	step(peer[0], 0, 2) // forwarded: the replica probe, then the owner's resolver
	// A failed forward falls back to the local resolver, which looks the
	// key up again: two misses for the one query, the replica probe's and
	// the resolver's.
	tc.net.setFail(tc.peers[1], true)
	step(peer[1], 0, 2)
}

// TestClusterEmptyQuestion: a query without a question has no key to
// route; the node answers it FORMERR, as the resolvers do, even when the
// ring gives the empty key to a peer, and nothing is exchanged.
func TestClusterEmptyQuestion(t *testing.T) {
	tc := newTestCluster(t, 3)
	n := tc.nodes[0]
	if owner, _ := n.Members.Ring().Owner(keyhash.Key("", 0)); owner == tc.peers[0] {
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

func TestClusterNoteHotReplicatesToReplicaSet(t *testing.T) {
	tc := newTestCluster(t, 3)
	name := tc.ownedBy(t, 0) // node 0 owns the key, so it fans out

	tc.nodes[0].NoteHot(name, dnswire.TypeA)
	tc.nodes[0].Close() // drains the async replication pushes

	// K=2 replicas with 3 peers: both other nodes resolved the induced
	// prefetch and warmed their caches.
	for i := 1; i <= 2; i++ {
		if got := tc.locals[i].calls.Load(); got != 1 {
			t.Errorf("replica %d resolver calls = %d, want 1", i, got)
		}
		if _, ok := tc.caches[i].Lookup(name, dnswire.TypeA); !ok {
			t.Errorf("replica %d cache not warmed for %s", i, name)
		}
	}

	// A non-owner announcing the same key does nothing.
	before := tc.locals[0].calls.Load()
	tc.nodes[1].NoteHot(name, dnswire.TypeA)
	tc.nodes[1].Close()
	if got := tc.locals[0].calls.Load(); got != before {
		t.Error("non-owner NoteHot must not replicate")
	}
}

// TestClusterPeerFailureRebuildsRingAndRecovers drives the full
// membership lifecycle in virtual time: a dead peer leaves the ring
// after DownAfter consecutive failed forwards (clients still get
// answers via local fallback), and active probes re-admit it once it
// comes back.
func TestClusterPeerFailureRebuildsRingAndRecovers(t *testing.T) {
	tc := newTestCluster(t, 3)
	names := tc.ownedNames(t, 1, 4)
	name := names[0]
	victim := tc.peers[1]

	tc.net.setFail(victim, true)
	rebuilds := testutil.CounterValue(t, "cluster_ring_rebuilds_total")

	// Default DownAfter is 3 consecutive failures. Distinct names each
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
	ring := tc.nodes[0].Members.Ring()
	if ring.Len() != 2 || slices.Contains(ring.Peers(), victim) {
		t.Fatalf("ring peers after failure = %v, want the two survivors", ring.Peers())
	}
	if o, _ := ring.Owner(keyhash.Key(name, uint16(dnswire.TypeA))); o == victim {
		t.Fatal("dead peer still owns its range")
	}

	// Recovery: the peer comes back; active probes observe it healthy.
	// Leaving Down needs HealthyAfter consecutive successes AND the
	// failure ratio over DegradedWindow (1m) back under the hysteresis
	// band, so let the failure burst age out of the window first.
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
	if ring := tc.nodes[0].Members.Ring(); !slices.Contains(ring.Peers(), victim) {
		t.Fatalf("recovered peer not back on the ring: %v", ring.Peers())
	}
}

func TestClusterCloseDrainsAndRejectsNewWork(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	tc := newTestCluster(t, 3)
	// Traffic through every path: forwards, replication, probes.
	for i := 0; i < 3; i++ {
		query(t, tc.nodes[0], fmt.Sprintf("drain-%d.example.com.", i))
	}
	tc.nodes[0].NoteHot(tc.ownedBy(t, 0), dnswire.TypeA)
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

// TestRecursiveOnPrefetchFiresForHotKeys wires the resolver's
// refresh-ahead hook end to end: a hit late in an entry's TTL triggers a
// background refresh, which announces the key as hot.
func TestRecursiveOnPrefetchFiresForHotKeys(t *testing.T) {
	clock := netsim.NewVirtualClock(time.Unix(1700000000, 0))
	cache := resolver.NewCache(256, clock.Now)
	var mu sync.Mutex
	hot := map[string]int{}
	rec := &resolver.Recursive{
		Exchange:         authAnswerer{},
		Roots:            []string{"198.41.0.4:53"},
		Cache:            cache,
		RNGSeed:          1,
		Now:              clock.Now,
		PrefetchFraction: 0.5,
		OnPrefetch: func(name string, tpe dnswire.Type) {
			mu.Lock()
			hot[name]++
			mu.Unlock()
		},
	}
	q := dnswire.NewQuery(1, "hot.example.com.", dnswire.TypeA)
	if _, err := rec.ServeDNS(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// Advance into the final half of the 60s TTL; the next hit triggers
	// refresh-ahead, whose completion fires OnPrefetch.
	clock.Advance(40 * time.Second)
	if _, err := rec.ServeDNS(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	rec.Close() // drains the background refresh
	mu.Lock()
	defer mu.Unlock()
	if hot["hot.example.com."] == 0 {
		t.Fatal("OnPrefetch never fired for the hot key")
	}
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
