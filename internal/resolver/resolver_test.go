package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/dnswire"
)

// fixedClock is a controllable clock for cache TTL tests.
type fixedClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fixedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fixedClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// cacheCounts is a reading of the process-wide resolver_cache_* counters,
// the one count of lookups and evictions; tests take deltas of it, so the
// package's tests do not run in parallel.
type cacheCounts struct{ hits, misses, evictions uint64 }

func readCacheCounts() cacheCounts {
	return cacheCounts{cacheHits.Value(), cacheMisses.Value(), cacheEvictions.Value()}
}

// since is the change from before to c.
func (c cacheCounts) since(before cacheCounts) cacheCounts {
	return cacheCounts{c.hits - before.hits, c.misses - before.misses, c.evictions - before.evictions}
}

func aRecord(name string, ttl uint32, addr string) dnswire.Record {
	return dnswire.Record{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
		Data: &dnswire.A{Addr: netip.MustParseAddr(addr)},
	}
}

func TestCachePositiveHit(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := NewCache(100, clk.Now)
	c.PutRRset("a.example.", dnswire.TypeA, []dnswire.Record{aRecord("a.example.", 60, "1.2.3.4")})
	before := readCacheCounts()
	res, ok := c.Lookup("A.EXAMPLE", dnswire.TypeA) // case-insensitive
	if !ok || res.Negative || len(res.Records) != 1 {
		t.Fatalf("lookup = %+v, %v", res, ok)
	}
	if d := readCacheCounts().since(before); d.hits != 1 || d.misses != 0 {
		t.Errorf("counted %d hits, %d misses", d.hits, d.misses)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := NewCache(100, clk.Now)
	c.PutRRset("a.example.", dnswire.TypeA, []dnswire.Record{aRecord("a.example.", 60, "1.2.3.4")})
	clk.advance(59 * time.Second)
	if res, ok := c.Lookup("a.example.", dnswire.TypeA); !ok {
		t.Fatal("entry expired early")
	} else if res.Records[0].TTL != 1 {
		t.Errorf("aged TTL = %d, want 1", res.Records[0].TTL)
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Lookup("a.example.", dnswire.TypeA); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry not swept: len=%d", c.Len())
	}
}

func TestCacheUsesMinTTLOfRRset(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := NewCache(100, clk.Now)
	c.PutRRset("m.example.", dnswire.TypeA, []dnswire.Record{
		aRecord("m.example.", 300, "1.1.1.1"),
		aRecord("m.example.", 30, "2.2.2.2"),
	})
	clk.advance(31 * time.Second)
	if _, ok := c.Lookup("m.example.", dnswire.TypeA); ok {
		t.Error("RRset outlived its shortest TTL")
	}
}

func TestCacheNegative(t *testing.T) {
	clk := &fixedClock{now: time.Unix(0, 0)}
	c := NewCache(100, clk.Now)
	c.PutNegative("nx.example.", dnswire.TypeA, true, 30)
	c.PutNegative("nodata.example.", dnswire.TypeTXT, false, 30)
	res, ok := c.Lookup("nx.example.", dnswire.TypeA)
	if !ok || !res.Negative || !res.NXDomain {
		t.Errorf("nx lookup = %+v, %v", res, ok)
	}
	res, ok = c.Lookup("nodata.example.", dnswire.TypeTXT)
	if !ok || !res.Negative || res.NXDomain {
		t.Errorf("nodata lookup = %+v, %v", res, ok)
	}
	clk.advance(31 * time.Second)
	if _, ok := c.Lookup("nx.example.", dnswire.TypeA); ok {
		t.Error("negative entry outlived TTL")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(16, nil) // minimum size
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("h%d.example.", i)
		c.PutRRset(name, dnswire.TypeA, []dnswire.Record{aRecord(name, 300, "1.2.3.4")})
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d, want 16", c.Len())
	}
	// The oldest entries are gone, the newest remain.
	if _, ok := c.Lookup("h0.example.", dnswire.TypeA); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Lookup("h31.example.", dnswire.TypeA); !ok {
		t.Error("newest entry evicted")
	}
}

func TestCacheLRUTouchOnLookup(t *testing.T) {
	c := NewCache(16, nil)
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("h%d.example.", i)
		c.PutRRset(name, dnswire.TypeA, []dnswire.Record{aRecord(name, 300, "1.2.3.4")})
	}
	// Touch h0 so it is most recent, then overflow by one.
	if _, ok := c.Lookup("h0.example.", dnswire.TypeA); !ok {
		t.Fatal("h0 missing")
	}
	c.PutRRset("new.example.", dnswire.TypeA, []dnswire.Record{aRecord("new.example.", 300, "9.9.9.9")})
	if _, ok := c.Lookup("h0.example.", dnswire.TypeA); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Lookup("h1.example.", dnswire.TypeA); ok {
		t.Error("least recently used entry survived")
	}
}

func TestCacheReplaceUpdates(t *testing.T) {
	c := NewCache(100, nil)
	c.PutRRset("x.example.", dnswire.TypeA, []dnswire.Record{aRecord("x.example.", 300, "1.1.1.1")})
	c.PutRRset("x.example.", dnswire.TypeA, []dnswire.Record{aRecord("x.example.", 300, "2.2.2.2")})
	res, ok := c.Lookup("x.example.", dnswire.TypeA)
	if !ok || len(res.Records) != 1 {
		t.Fatalf("lookup = %+v", res)
	}
	if a := res.Records[0].Data.(*dnswire.A); a.Addr.String() != "2.2.2.2" {
		t.Errorf("addr = %v, want replacement", a.Addr)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheLenBoundedProperty(t *testing.T) {
	f := func(names []string) bool {
		c := NewCache(32, nil)
		for _, n := range names {
			if dnswire.ValidateName(n) != nil {
				continue
			}
			c.PutRRset(n, dnswire.TypeA, []dnswire.Record{aRecord(n, 300, "1.2.3.4")})
			if c.Len() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newTestResolver builds a Recursive over the in-memory hierarchy.
func newTestResolver(t *testing.T) (*Recursive, *authdns.Hierarchy) {
	t.Helper()
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	r := &Recursive{
		Exchange: h.Registry,
		Roots:    h.RootServers,
		Cache:    NewCache(4096, nil),
		RNGSeed:  1,
	}
	return r, h
}

func TestRecursiveResolveA(t *testing.T) {
	r, _ := newTestResolver(t)
	resp, err := r.ServeDNS(context.Background(), dnswire.NewQuery(1, "google.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if !resp.Header.RA {
		t.Error("RA not set")
	}
	found := false
	for _, rr := range resp.Answers {
		if a, ok := rr.Data.(*dnswire.A); ok && a.Addr.String() == "142.250.64.78" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected google.com A record, got %v", resp.Answers)
	}
}

func TestRecursiveResolveCNAME(t *testing.T) {
	r, _ := newTestResolver(t)
	resp, err := r.ServeDNS(context.Background(), dnswire.NewQuery(1, "www.amazon.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	var sawCNAME, sawA bool
	for _, rr := range resp.Answers {
		switch rr.Type {
		case dnswire.TypeCNAME:
			sawCNAME = true
		case dnswire.TypeA:
			sawA = true
		}
	}
	if !sawCNAME || !sawA {
		t.Errorf("answers = %v, want CNAME chain with A", resp.Answers)
	}
}

func TestRecursiveNXDomain(t *testing.T) {
	r, _ := newTestResolver(t)
	resp, err := r.ServeDNS(context.Background(), dnswire.NewQuery(1, "doesnotexist.google.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
}

func TestRecursiveNXDomainIsCached(t *testing.T) {
	r, _ := newTestResolver(t)
	ctx := context.Background()
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(1, "nx.google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	res, ok := r.Cache.Lookup("nx.google.com.", dnswire.TypeA)
	if !ok || !res.Negative || !res.NXDomain {
		t.Errorf("negative cache entry = %+v, %v", res, ok)
	}
}

func TestRecursiveUsesCache(t *testing.T) {
	r, h := newTestResolver(t)
	ctx := context.Background()
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(1, "google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	// Sever the network: cached answers must still come back.
	r.Exchange = exchangerFunc(func(context.Context, *dnswire.Message, string) (*dnswire.Message, error) {
		return nil, errors.New("network gone")
	})
	_ = h
	resp, err := r.ServeDNS(ctx, dnswire.NewQuery(2, "google.com", dnswire.TypeA))
	if err != nil {
		t.Fatalf("cached resolve failed: %v", err)
	}
	if len(resp.Answers) == 0 {
		t.Error("no cached answers")
	}
}

func TestRecursiveCachesIntermediateNS(t *testing.T) {
	r, _ := newTestResolver(t)
	ctx := context.Background()
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(1, "google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Cache.Lookup("com.", dnswire.TypeNS); !ok {
		t.Error("com. NS set not cached")
	}
	if _, ok := r.Cache.Lookup("google.com.", dnswire.TypeNS); !ok {
		t.Error("google.com. NS set not cached")
	}
}

type exchangerFunc func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error)

func (f exchangerFunc) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	return f(ctx, q, server)
}

func TestRecursiveSurvivesOneDeadRoot(t *testing.T) {
	r, h := newTestResolver(t)
	// First root is unreachable; resolution must still succeed via the
	// second.
	dead := h.RootServers[0]
	inner := r.Exchange
	r.Exchange = exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		if server == dead {
			return nil, errors.New("unreachable")
		}
		return inner.Exchange(ctx, q, server)
	})
	resp, err := r.ServeDNS(context.Background(), dnswire.NewQuery(1, "wikipedia.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestRecursiveAllServersDead(t *testing.T) {
	r, _ := newTestResolver(t)
	r.Exchange = exchangerFunc(func(context.Context, *dnswire.Message, string) (*dnswire.Message, error) {
		return nil, errors.New("unreachable")
	})
	_, err := r.ServeDNS(context.Background(), dnswire.NewQuery(1, "google.com", dnswire.TypeA))
	if !errors.Is(err, ErrNoServers) {
		t.Fatalf("err = %v, want ErrNoServers", err)
	}
}

func TestRecursiveCNAMELoopBounded(t *testing.T) {
	// A malicious zone with a CNAME loop must not hang the resolver.
	loop := exchangerFunc(func(_ context.Context, q *dnswire.Message, _ string) (*dnswire.Message, error) {
		resp := q.Reply()
		name := dnswire.CanonicalName(q.Question0().Name)
		target := "a.loop.example."
		if name == "a.loop.example." {
			target = "b.loop.example."
		} else if name == "b.loop.example." {
			target = "a.loop.example."
		}
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: name, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 60,
			Data: &dnswire.CNAME{Target: target},
		})
		return resp, nil
	})
	r := &Recursive{Exchange: loop, Roots: []string{"198.18.0.1:53"}, Cache: NewCache(128, nil), RNGSeed: 1}
	_, err := r.ServeDNS(context.Background(), dnswire.NewQuery(1, "a.loop.example", dnswire.TypeA))
	if !errors.Is(err, ErrLoop) {
		t.Fatalf("err = %v, want ErrLoop", err)
	}
}

func TestRecursiveEmptyQuestion(t *testing.T) {
	r, _ := newTestResolver(t)
	resp, err := r.ServeDNS(context.Background(), &dnswire.Message{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormat {
		t.Errorf("rcode = %v, want FORMERR", resp.Header.RCode)
	}
}

func TestRecursiveContextCancelled(t *testing.T) {
	r, _ := newTestResolver(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.ServeDNS(ctx, dnswire.NewQuery(1, "google.com", dnswire.TypeA))
	if err == nil {
		t.Fatal("cancelled context resolved anyway")
	}
}

func TestForwarderBasic(t *testing.T) {
	rec, h := newTestResolver(t)
	// Serve the recursive resolver as the upstream at a virtual address.
	upstream := exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		if server != "10.0.0.1:53" {
			return nil, fmt.Errorf("unknown upstream %s", server)
		}
		return rec.ServeDNS(ctx, q)
	})
	_ = h
	f := &Forwarder{Exchange: upstream, Upstreams: []string{"10.0.0.1:53"}, Cache: NewCache(128, nil)}
	resp, err := f.ServeDNS(context.Background(), dnswire.NewQuery(9, "google.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("resp = %v", resp)
	}
	if resp.Header.ID != 9 {
		t.Errorf("ID = %d", resp.Header.ID)
	}
}

// TestForwarderDrawsUpstreamIDs: the upstream query carries an ID of the
// forwarder's choosing, not the client's, while the client's reply keeps
// the client's ID.
func TestForwarderDrawsUpstreamIDs(t *testing.T) {
	rec, _ := newTestResolver(t)
	upstreamIDs := map[uint16]bool{}
	upstream := exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		upstreamIDs[q.Header.ID] = true
		return rec.ServeDNS(ctx, q)
	})
	f := &Forwarder{Exchange: upstream, Upstreams: []string{"10.0.0.1:53"}, Cache: NewCache(128, nil)}
	for i := 0; i < 20; i++ { // a name a query, so that each goes upstream
		resp, err := f.ServeDNS(context.Background(), dnswire.NewQuery(9, fmt.Sprintf("n%d.google.com", i), dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.ID != 9 {
			t.Fatalf("reply ID = %d, want the client's 9", resp.Header.ID)
		}
	}
	if len(upstreamIDs) == 1 && upstreamIDs[9] {
		t.Error("every upstream query reused the client's ID 9")
	}
}

func TestForwarderCaches(t *testing.T) {
	rec, _ := newTestResolver(t)
	calls := 0
	upstream := exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		calls++
		return rec.ServeDNS(ctx, q)
	})
	f := &Forwarder{Exchange: upstream, Upstreams: []string{"10.0.0.1:53"}, Cache: NewCache(128, nil)}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := f.ServeDNS(ctx, dnswire.NewQuery(uint16(i), "google.com", dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Errorf("upstream calls = %d, want 1 (cached)", calls)
	}
}

func TestForwarderCachesNegative(t *testing.T) {
	rec, _ := newTestResolver(t)
	calls := 0
	upstream := exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		calls++
		return rec.ServeDNS(ctx, q)
	})
	f := &Forwarder{Exchange: upstream, Upstreams: []string{"10.0.0.1:53"}, Cache: NewCache(128, nil)}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		resp, err := f.ServeDNS(ctx, dnswire.NewQuery(uint16(i), "missing.google.com", dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("rcode = %v", resp.Header.RCode)
		}
	}
	if calls != 1 {
		t.Errorf("upstream calls = %d, want 1", calls)
	}
}

func TestForwarderFailover(t *testing.T) {
	rec, _ := newTestResolver(t)
	upstream := exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		if server == "10.0.0.1:53" {
			return nil, errors.New("down")
		}
		return rec.ServeDNS(ctx, q)
	})
	f := &Forwarder{Exchange: upstream, Upstreams: []string{"10.0.0.1:53", "10.0.0.2:53"}, Cache: NewCache(128, nil)}
	resp, err := f.ServeDNS(context.Background(), dnswire.NewQuery(1, "google.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) == 0 {
		t.Error("no answers via failover")
	}
}

func TestForwarderNoUpstreams(t *testing.T) {
	f := &Forwarder{Exchange: exchangerFunc(func(context.Context, *dnswire.Message, string) (*dnswire.Message, error) {
		return nil, errors.New("unused")
	}), Cache: NewCache(128, nil)}
	if _, err := f.ServeDNS(context.Background(), dnswire.NewQuery(1, "x.example", dnswire.TypeA)); !errors.Is(err, ErrNoUpstreams) {
		t.Fatalf("err = %v", err)
	}
}

// TestForwarderEmptyQuestion: a query without a question is answered
// FORMERR, as the recursive resolver answers it, and never sent upstream.
func TestForwarderEmptyQuestion(t *testing.T) {
	exchanges := 0
	f := &Forwarder{Exchange: exchangerFunc(func(context.Context, *dnswire.Message, string) (*dnswire.Message, error) {
		exchanges++
		return nil, errors.New("unused")
	}), Upstreams: []string{"10.0.0.1:53"}, Cache: NewCache(128, nil)}
	resp, err := f.ServeDNS(context.Background(), &dnswire.Message{Header: dnswire.Header{ID: 7, RD: true}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormat || resp.Header.ID != 7 || !resp.Header.QR {
		t.Errorf("reply header = %+v, want FORMERR answering ID 7", resp.Header)
	}
	if exchanges != 0 {
		t.Errorf("%d upstream exchanges, want none", exchanges)
	}
}
