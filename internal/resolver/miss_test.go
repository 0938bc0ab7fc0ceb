package resolver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/netsim"
)

// tallyExchanger counts exchanges and fails the servers listed in dead.
type tallyExchanger struct {
	inner Exchanger
	dead  map[string]bool
	calls atomic.Int64
}

func (e *tallyExchanger) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	e.calls.Add(1)
	if e.dead[server] {
		return nil, errors.New("unreachable")
	}
	return e.inner.Exchange(ctx, q, server)
}

// answer runs one packed query through dns53.Answer, as every frontend
// does, and returns the response bytes.
func answer(tb testing.TB, h dns53.Handler, raw []byte) []byte {
	tb.Helper()
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	if err := msg.Unpack(raw); err != nil {
		tb.Fatal(err)
	}
	out, _, _ := dns53.Answer(context.Background(), h, nil, msg, raw, dnswire.MaxMessageSize)
	return out
}

func rawQuery(t *testing.T, id uint16, name string, qt dnswire.Type) []byte {
	raw, _ := packQuery(t, name, qt, id, 0, false)
	return raw
}

// TestWalkRNGMatchesRand: the walk's stack-resident generator draws what
// a rand.Rand over the same PCG draws, so seeded selection did not move
// when the walk stopped allocating one.
func TestWalkRNGMatchesRand(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		var g walkRNG
		g.pcg.Seed(seed, seed*7919)
		ref := rand.New(rand.NewPCG(seed, seed*7919))
		for i := 0; i < 400; i++ {
			switch n := 1 + i%13; {
			case i%5 == 0:
				if got, want := g.Uint32(), ref.Uint32(); got != want {
					t.Fatalf("seed %d draw %d: Uint32 %d, want %d", seed, i, got, want)
				}
			default:
				if got, want := g.IntN(n), ref.IntN(n); got != want {
					t.Fatalf("seed %d draw %d: IntN(%d) %d, want %d", seed, i, n, got, want)
				}
			}
		}
	}
}

// TestNegativeTemplateMatchesPack: the computed negative template is the
// packed one, for names that take the arithmetic and for names that must
// not (escapes, and what the codec rejects).
func TestNegativeTemplateMatchesPack(t *testing.T) {
	long := strings.Repeat("a", 63)
	names := []string{
		".", "com.", "a.b.c.example.com.", "0123456789abcdef.google.com.",
		long + ".example.", long + "a.example.", // 63 fits, 64 does not
		long + "." + long + "." + long + "." + strings.Repeat("b", 61) + ".", // 255 octets on the wire
		long + "." + long + "." + long + "." + strings.Repeat("b", 62) + ".", // 256
		"a..b.", "nodot", `a\.b.example.`, `a\065.example.`, `dangling\`, "x\x00y.example.",
	}
	for _, name := range names {
		key := cacheKey{name: name, typ: dnswire.TypeA}
		got, want := negativeTemplate(key), buildTemplate(key, nil)
		if got.qlen != want.qlen || got.ancount != want.ancount || len(got.wire) != len(want.wire) || len(got.ttlOffs) != 0 {
			t.Errorf("%q: computed %+v, packed %+v", name, got, want)
		}
	}
}

// TestPutNegativeOneAlloc: a negative entry is its cacheEntry and nothing
// else — no template behind a pointer, no pack to size it.
func TestPutNegativeOneAlloc(t *testing.T) {
	c := NewCache(4096, nil)
	names := make([]string, 1200)
	for i := range names {
		names[i] = fmt.Sprintf("%016x.google.com.", i)
	}
	i := 0
	if got := testing.AllocsPerRun(len(names)-1, func() {
		c.PutNegative(names[i], dnswire.TypeA, true, 60)
		i++
	}); got != 1 {
		t.Fatalf("PutNegative of a fresh name allocates %v times, want 1", got)
	}
}

// TestMissAllocs: one NXDOMAIN miss through dns53.Answer on a warm
// delegation — resolver, in-memory upstream and unpacking the query
// together — in at most ten allocations (31 before delegation memos).
func TestMissAllocs(t *testing.T) {
	r := missStack(t)
	queries := missQueries(1100)
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	out := make([]byte, 0, 512)
	ctx := context.Background()
	i := 0
	got := testing.AllocsPerRun(len(queries)-1, func() {
		raw := queries[i]
		i++
		if err := msg.Unpack(raw); err != nil {
			t.Fatal(err)
		}
		if resp, _, err := dns53.Answer(ctx, r, out[:0], msg, raw, dnswire.MaxMessageSize); err != nil || resp[3]&0x0f != byte(dnswire.RCodeNXDomain) {
			t.Fatalf("miss answered %x, %v", resp, err)
		}
	})
	if got > 10 {
		t.Fatalf("one miss allocates %v times, want ≤ 10", got)
	}
}

// TestMissCountsOnce: the cache counters count what clients asked. A miss
// is one miss — not one per NS, glue and CNAME probe of the walk — and
// the walk's infrastructure hits are nobody's hits.
func TestMissCountsOnce(t *testing.T) {
	r := missStack(t)
	before := readCacheCounts()
	resp := answer(t, r, rawQuery(t, 1, "no-such-name.google.com.", dnswire.TypeA))
	if resp[3]&0x0f != byte(dnswire.RCodeNXDomain) {
		t.Fatalf("response %x", resp)
	}
	if d := readCacheCounts().since(before); d.hits != 0 || d.misses != 1 {
		t.Fatalf("resolver_cache_{hits,misses}_total moved by %d and %d, want 0 and 1", d.hits, d.misses)
	}
	// The repeat is a hit, served from the negative template.
	before = readCacheCounts()
	answer(t, r, rawQuery(t, 2, "no-such-name.google.com.", dnswire.TypeA))
	if d := readCacheCounts().since(before); d.hits != 1 || d.misses != 0 {
		t.Fatalf("the repeat moved hits by %d and misses by %d, want 1 and 0", d.hits, d.misses)
	}
}

// TestMissFloodKeepsDelegation: ten thousand distinct misses through a
// 4096-entry cache cost ten thousand exchanges. Reading the delegation
// memo counts as a use of the NS entry; if it did not, the flood's own
// inserts would evict google.com.'s delegation every few hundred misses
// and each time the next walk would start over from the root.
func TestMissFloodKeepsDelegation(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	up := &tallyExchanger{inner: h.Registry}
	r := &Recursive{Exchange: up, Roots: h.RootServers, Cache: NewCache(4096, nil)}
	answer(t, r, rawQuery(t, 0, "google.com.", dnswire.TypeA))
	queries := missQueries(10000)
	before, counts := up.calls.Load(), readCacheCounts()
	for _, raw := range queries {
		if resp := answer(t, r, raw); resp[3]&0x0f != byte(dnswire.RCodeNXDomain) {
			t.Fatalf("response %x", resp)
		}
	}
	if got := up.calls.Load() - before; got != int64(len(queries)) {
		t.Fatalf("%d misses cost %d upstream exchanges, want one each", len(queries), got)
	}
	if ev := readCacheCounts().since(counts).evictions; ev < 5000 {
		t.Fatalf("only %d evictions: the flood never filled the cache", ev)
	}
}

// TestFailedServerLeavesMemoWhole: a walk that drops an unreachable
// server drops it from its own copy; the memo the next walk starts from
// still lists both.
func TestFailedServerLeavesMemoWhole(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	up := &tallyExchanger{inner: h.Registry, dead: map[string]bool{}}
	r := &Recursive{Exchange: up, Roots: h.RootServers, Cache: NewCache(4096, nil), RNGSeed: 1}
	ctx := context.Background()
	if _, _, err := r.Resolve(ctx, "google.com.", dnswire.TypeA, 0); err != nil {
		t.Fatal(err)
	}
	now := r.Cache.now()
	want, cut := r.startServers(ctx, "x.google.com.", now, 0)
	if cut != "google.com." || len(want) != 2 {
		t.Fatalf("start = %v at %q, want google.com.'s two servers", want, cut)
	}
	want = slices.Clone(want)
	up.dead[want[0]] = true
	// Enough distinct names that the seeded pick lands on the dead server.
	for _, raw := range missQueries(32) {
		if resp := answer(t, r, raw); resp[3]&0x0f != byte(dnswire.RCodeNXDomain) {
			t.Fatalf("response %x", resp)
		}
	}
	if got, _ := r.startServers(ctx, "y.google.com.", now, 0); !slices.Equal(got, want) {
		t.Fatalf("memo after failures = %v, want %v", got, want)
	}
	if up.calls.Load() < 32+8 {
		t.Fatalf("%d exchanges: the dead server was never picked", up.calls.Load())
	}
}

// TestConcurrentMissesShareMemo: walks on eight goroutines start from one
// memo while a dead server makes them drop entries from their lists and a
// small cache makes them re-derive it now and then. Run under -race.
func TestConcurrentMissesShareMemo(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	up := &tallyExchanger{inner: h.Registry, dead: map[string]bool{}}
	r := &Recursive{Exchange: up, Roots: h.RootServers, Cache: NewCache(128, nil)}
	ctx := context.Background()
	if _, _, err := r.Resolve(ctx, "google.com.", dnswire.TypeA, 0); err != nil {
		t.Fatal(err)
	}
	want, _ := r.startServers(ctx, "x.google.com.", r.Cache.now(), 0)
	want = slices.Clone(want)
	up.dead[want[1]] = true
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				name := fmt.Sprintf("g%d-%d.google.com.", g, i)
				if _, rcode, err := r.Resolve(ctx, name, dnswire.TypeA, 0); err != nil || rcode != dnswire.RCodeNXDomain {
					t.Errorf("%s = %s, %v", name, rcode, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, _ := r.startServers(ctx, "y.google.com.", r.Cache.now(), 0); !slices.Equal(got, want) {
		t.Fatalf("servers after the storm = %v, want %v", got, want)
	}
}

// TestMemoExpiresWithItsAddresses: a memo is good until the first of the
// RRsets it was built from expires — here the name servers' addresses,
// half the NS set's lifetime — and not a second longer, however long the
// NS entry it hangs on lives.
func TestMemoExpiresWithItsAddresses(t *testing.T) {
	clk := netsim.NewVirtualClock(time.Unix(1_700_000_000, 0))
	c := NewCache(256, clk.Now)
	nsRR := func(host string) dnswire.Record {
		return dnswire.Record{Name: "example.org.", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 600, Data: &dnswire.NS{Host: host}}
	}
	c.PutRRset("example.org.", dnswire.TypeNS, []dnswire.Record{nsRR("ns1.example.org."), nsRR("ns2.example.org.")})
	c.PutRRset("ns1.example.org.", dnswire.TypeA, []dnswire.Record{aRecord("ns1.example.org.", 300, "198.19.0.3")})
	c.PutRRset("ns2.example.org.", dnswire.TypeA, []dnswire.Record{aRecord("ns2.example.org.", 400, "198.19.0.4")})
	r := &Recursive{Cache: c, Roots: []string{"198.18.0.1:53"}, RNGSeed: 1,
		Exchange: exchangerFunc(func(context.Context, *dnswire.Message, string) (*dnswire.Message, error) {
			return nil, errors.New("unreachable")
		})}
	ctx := context.Background()
	old := []string{"198.19.0.3:53", "198.19.0.4:53"}
	if got, cut := r.startServers(ctx, "www.example.org.", clk.Now(), 0); !slices.Equal(got, old) || cut != "example.org." {
		t.Fatalf("derived %v at %q", got, cut)
	}
	e, _ := c.find(cacheKey{"example.org.", dnswire.TypeNS}, clk.Now())
	d := e.deleg.Load()
	if d == nil || !d.expires.Equal(clk.Now().Add(300*time.Second)) {
		t.Fatalf("memo %+v, want one expiring with ns1's address in 300 s", d)
	}
	clk.Advance(299 * time.Second)
	if got := memoFor(c, "www.example.org.", clk.Now()); !slices.Equal(got, old) {
		t.Fatalf("memo at 299 s = %v", got)
	}
	clk.Advance(2 * time.Second)
	// ns1's address is gone and cannot be resolved: what is left is ns2,
	// and no memo is made of a list that needed a resolution.
	if got, _ := r.startServers(ctx, "www.example.org.", clk.Now(), 0); !slices.Equal(got, old[1:]) {
		t.Fatalf("at 301 s the walk starts from %v, want only %v", got, old[1:])
	}
	if got := memoFor(c, "www.example.org.", clk.Now()); got != nil {
		t.Fatalf("memo at 301 s = %v, want none", got)
	}
}

// lyingExchanger answers honestly except that every referral to
// google.com. also plants a delegation and glue for amazon.com., an
// address for www.wikipedia.com., and glue for a google.com. name server
// that lives outside the zone the responder (com.) speaks for.
type lyingExchanger struct{ inner Exchanger }

const evil = "203.0.113.66"

func (l lyingExchanger) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	resp, err := l.inner.Exchange(ctx, q, server)
	if err != nil || len(resp.Authority) == 0 || resp.Authority[0].Type != dnswire.TypeNS ||
		dnswire.CanonicalName(resp.Authority[0].Name) != "google.com." {
		return resp, err
	}
	ns := func(owner, host string) dnswire.Record {
		return dnswire.Record{Name: owner, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 86400, Data: &dnswire.NS{Host: host}}
	}
	resp.Authority = append(resp.Authority,
		ns("amazon.com.", "ns.evil.com."),
		ns("com.", "ns.evil.com."),             // the responder's own zone: not a delegation
		ns("google.com.", "ns.elsewhere.org.")) // a real cut, a server outside com.
	resp.Additional = append(resp.Additional,
		aRecord("ns.evil.com.", 86400, evil),
		aRecord("www.wikipedia.com.", 86400, evil),
		aRecord("ns.elsewhere.org.", 86400, evil))
	return resp, nil
}

// TestReferralBailiwick: out of a referral the resolver keeps the NS
// RRsets of cuts between the responder's zone and the query name and the
// addresses of their targets inside the responder's zone, and nothing
// else — in the cache, in a memo, or in the walk at hand.
func TestReferralBailiwick(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	up := &tallyExchanger{inner: lyingExchanger{h.Registry}}
	r := &Recursive{Exchange: up, Roots: h.RootServers, Cache: NewCache(4096, nil), RNGSeed: 1}
	ctx := context.Background()
	rrs, rcode, err := r.Resolve(ctx, "www.google.com.", dnswire.TypeA, 0)
	if err != nil || rcode != dnswire.RCodeSuccess || len(rrs) != 1 || rrs[0].Data.(*dnswire.A).Addr.String() != "142.250.64.68" {
		t.Fatalf("www.google.com. = %v %v %v", rrs, rcode, err)
	}
	for _, k := range []cacheKey{
		{"amazon.com.", dnswire.TypeNS}, {"ns.evil.com.", dnswire.TypeA},
		{"www.wikipedia.com.", dnswire.TypeA}, {"ns.elsewhere.org.", dnswire.TypeA},
	} {
		if _, ok := r.Cache.Lookup(k.name, k.typ); ok {
			t.Errorf("%s %s from a google.com. referral was cached", k.name, k.typ)
		}
	}
	if res, ok := r.Cache.Lookup("com.", dnswire.TypeNS); !ok || len(res.Records) != 2 {
		t.Errorf("com. NS = %v: the planted record replaced or joined the root's delegation", res.Records)
	}
	// The real cut is cached, planted host included (its NS record is in
	// bailiwick; its address is not), and every server a walk starts from
	// is one of the hierarchy's.
	if res, ok := r.Cache.Lookup("google.com.", dnswire.TypeNS); !ok || len(res.Records) != 3 {
		t.Fatalf("google.com. NS = %v", res.Records)
	}
	for _, name := range []string{"a.google.com.", "amazon.com.", "www.wikipedia.com.", "b.com."} {
		servers, cut := r.startServers(ctx, name, r.Cache.now(), 0)
		for _, s := range servers {
			if z, ok := h.Registry.Zone(s); !ok || z.Origin() != cut {
				t.Errorf("walk for %s starts at %s for cut %q", name, s, cut)
			}
		}
	}
	if rrs, _, err := r.Resolve(ctx, "www.wikipedia.com.", dnswire.TypeA, 0); err != nil ||
		!hasType(rrs, dnswire.TypeA) || rrs[len(rrs)-1].Data.(*dnswire.A).Addr.String() == evil {
		t.Fatalf("www.wikipedia.com. = %v, %v", rrs, err)
	}
}

// TestUpwardReferralIsLame: a server that answers with a referral to the
// root has nothing in bailiwick to offer. That is a lame server, to be
// dropped for the next one — not a referral to follow round in circles,
// and not a NODATA to cache.
func TestUpwardReferralIsLame(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	var lame string
	up := &tallyExchanger{inner: exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		if server != lame {
			return h.Registry.Exchange(ctx, q, server)
		}
		resp := q.Reply()
		resp.Authority = []dnswire.Record{{Name: ".", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 518400,
			Data: &dnswire.NS{Host: "a.root-servers.net."}}}
		return resp, nil
	})}
	r := &Recursive{Exchange: up, Roots: h.RootServers, Cache: NewCache(4096, nil), RNGSeed: 1}
	ctx := context.Background()
	if _, _, err := r.Resolve(ctx, "google.com.", dnswire.TypeA, 0); err != nil {
		t.Fatal(err)
	}
	servers, _ := r.startServers(ctx, "google.com.", r.Cache.now(), 0)
	lame = servers[0]
	before := up.calls.Load()
	for i := 0; i < 16; i++ { // enough names for the seeded pick to land on the lame server
		name := fmt.Sprintf("txt%d.google.com.", i)
		if _, rcode, err := r.Resolve(ctx, name, dnswire.TypeA, 0); err != nil || rcode != dnswire.RCodeNXDomain {
			t.Fatalf("%s = %s, %v; want NXDOMAIN from the other server", name, rcode, err)
		}
	}
	if n := up.calls.Load() - before; n <= 16 || n > 32 {
		t.Fatalf("%d exchanges for 16 names: the lame server was never picked, or its referral was followed", n)
	}
	// Both servers lame: the walk ends in SERVFAIL, nothing is cached.
	lameToo := servers[1]
	inner := up.inner
	up.inner = exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		if server == lameToo {
			server = lame
		}
		return inner.Exchange(ctx, q, server)
	})
	if _, rcode, err := r.Resolve(ctx, "www.google.com.", dnswire.TypeTXT, 0); !errors.Is(err, ErrNoServers) || rcode != dnswire.RCodeServFail {
		t.Fatalf("all servers lame: %s, %v", rcode, err)
	}
	if _, ok := r.Cache.Lookup("www.google.com.", dnswire.TypeTXT); ok {
		t.Fatal("an upward referral was cached as a negative answer")
	}
}

// diffHierarchy is the built-in hierarchy plus a second TLD whose leaf
// has short TTLs that differ: example.org.'s NS set lives 600 s, the
// addresses of its servers 300 s, its negative answers 60 s.
func diffHierarchy() *authdns.Hierarchy {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	addr := func(i byte) netip.Addr { return netip.AddrFrom4([4]byte{198, 19, 0, i}) }
	org := authdns.NewZone("org.")
	org.SetSOA("a.nic.org.", "hostmaster.nic.org.", 1, 900)
	h.Root.Delegate("org.", map[string]netip.Addr{"a.nic.org.": addr(1), "b.nic.org.": addr(2)})
	leaf := authdns.NewZone("example.org.")
	leaf.SetSOA("ns1.example.org.", "hostmaster.example.org.", 1, 60)
	for i, ns := range []string{"a.nic.org.", "b.nic.org."} {
		org.Add(dnswire.Record{Name: "org.", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 172800, Data: &dnswire.NS{Host: ns}})
		org.AddA(ns, 172800, addr(byte(1+i)))
		h.Registry.Register(addr(byte(1+i)).String()+":53", org)
	}
	for i, ns := range []string{"ns1.example.org.", "ns2.example.org."} {
		for _, z := range []*authdns.Zone{org, leaf} {
			z.Add(dnswire.Record{Name: "example.org.", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 600, Data: &dnswire.NS{Host: ns}})
			z.AddA(ns, 300, addr(byte(3+i)))
		}
		h.Registry.Register(addr(byte(3+i)).String()+":53", leaf)
	}
	leaf.AddA("example.org.", 120, netip.MustParseAddr("192.0.2.10"))
	leaf.AddA("deep.under.example.org.", 120, netip.MustParseAddr("192.0.2.11"))
	leaf.Add(dnswire.Record{Name: "www.example.org.", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 90,
		Data: &dnswire.CNAME{Target: "example.org."}})
	h.TLDs["org."], h.Leaves["example.org."] = org, leaf
	return h
}

// TestDelegationMemoMatchesDerivation drives seeded random sequences of
// queries and clock advances through the resolver over a 64-entry cache
// and, at every query, compares it with the reference walk
// (reference_test.go) run on a copy of the same cache: the servers the
// walk would start from, and the bytes of the answer.
//
// The memo is allowed one difference from a fresh derivation: it still
// names a server whose address RRset has since been evicted for space
// (not expired), where a derivation names what is left or resolves the
// host again — a subset, every one a true server of the cut.
//
// Odd seeds also kill google.com.'s second server and example.org.'s first,
// so walks drop servers from lists they share. One thing follows, counted
// and bounded: where the reference has to resolve a cut's glueless hosts —
// through the very delegation it is deriving — it can be left holding
// only the dead server's address and fail, while a memo still names the
// live one and answers. Then, and only then, the reference is asked again
// with every server up, and the bytes must be what it answers when it can
// reach anyone at all. With every server up (even seeds) every step is
// held to the byte as it stands.
func TestDelegationMemoMatchesDerivation(t *testing.T) {
	leaves := []string{"google.com.", "amazon.com.", "wikipedia.com.", "example.org."}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeTXT, dnswire.TypeNS}
	advances := []time.Duration{time.Second, 20 * time.Second, 61 * time.Second, 150 * time.Second,
		301 * time.Second, 450 * time.Second, 601 * time.Second, 3 * time.Hour, 25 * time.Hour}
	var steps, exact, evicted, memoHits, derived, rescued int
	for seed := uint64(1); seed <= 8; seed++ {
		h := diffHierarchy()
		clk := netsim.NewVirtualClock(time.Unix(1_700_000_000, 0))
		up := &tallyExchanger{inner: h.Registry}
		if seed%2 == 1 {
			ns2, _ := h.Leaves["google.com."].ServeDNS(context.Background(), dnswire.NewQuery(0, "ns2.google.com.", dnswire.TypeA))
			up.dead = map[string]bool{"198.19.0.3:53": true, ns2.Answers[0].Data.(*dnswire.A).Addr.String() + ":53": true}
		}
		r := &Recursive{Exchange: up, Roots: h.RootServers, Cache: NewCache(64, clk.Now), RNGSeed: seed}
		counts := readCacheCounts() // the reference's caches evict into it too
		rng := rand.New(rand.NewPCG(seed, 20))
		ctx := context.Background()
		for step := 0; step < 2500; step++ {
			if rng.IntN(12) == 0 {
				clk.Advance(advances[rng.IntN(len(advances))])
				continue
			}
			leaf := leaves[rng.IntN(len(leaves))]
			var name string
			switch rng.IntN(8) {
			case 0:
				name = leaf
			case 1:
				name = "www." + leaf
			case 2:
				name = "ns1." + leaf
			case 3:
				name = "under." + leaf // an empty non-terminal under example.org., NXDOMAIN elsewhere
			default:
				name = fmt.Sprintf("nx%d.%s", rng.IntN(60), leaf)
			}
			typ := types[rng.IntN(len(types))]
			raw := rawQuery(t, uint16(step), name, typ)
			steps++
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d %s %s: %s", seed, step, name, typ, fmt.Sprintf(format, args...))
			}

			// Where would each walk start? (Asked whether or not the query
			// turns out to be a hit: it is the same question either way.)
			before := cloneCache(r.Cache)
			ref := &refRecursive{Exchange: up, Roots: h.RootServers, Cache: before, RNGSeed: seed}
			now := clk.Now()
			memo := memoFor(r.Cache, name, now)
			fanouts := nsFanoutResolves.Value()
			got, cut := r.startServers(ctx, name, now, 0)
			want := ref.startServers(ctx, name, 0)
			before.Close()
			if memo != nil {
				memoHits++
				if !slices.Equal(got, memo) {
					fail("a live memo %v was not what the walk started from: %v", memo, got)
				}
			} else {
				derived++
			}
			for _, s := range got {
				if z, ok := h.Registry.Zone(s); !ok || z.Origin() != cut {
					fail("%s is no server of %q", s, cut)
				}
			}
			fanned := func() bool { return nsFanoutResolves.Value() != fanouts || ref.fanouts > 0 }
			switch {
			case slices.Equal(got, want):
				exact++
			case memo != nil && subset(want, got):
				evicted++
			case memo == nil && fanned() && (sameSet(got, want) || up.dead != nil):
				// Glueless hosts resolved: the real fan-out returns them in
				// arrival order.
			default:
				fail("walk starts from %v at %q (memo %v), reference derives %v", got, cut, memo, want)
			}

			// The answer, from the state the probe above left behind.
			twin, spare := cloneCache(r.Cache), cloneCache(r.Cache)
			ref.Cache = twin
			gotResp := answer(t, r, raw)
			wantResp := answer(t, ref, raw)
			if up.dead != nil && fanned() && wantResp[3]&0x0f == byte(dnswire.RCodeServFail) && !bytes.Equal(gotResp, wantResp) {
				rescued++
				ref.Exchange, ref.Cache = h.Registry, spare
				wantResp = answer(t, ref, raw)
			}
			twin.Close()
			spare.Close()
			if !bytes.Equal(gotResp, wantResp) {
				fail("\n got %x\nwant %x", gotResp, wantResp)
			}
		}
		if ev := readCacheCounts().since(counts).evictions; ev < 500 {
			t.Fatalf("seed %d: %d evictions, the cache was never under pressure", seed, ev)
		}
	}
	t.Logf("%d queries. Starts: %d equal to the derivation, %d a memo outliving an evicted address; %d from a memo, %d derived. "+
		"%d answers the reference needed a live server for", steps, exact, evicted, memoHits, derived, rescued)
	if memoHits < 1000 || derived < 200 || evicted == 0 {
		t.Fatalf("sequences too tame: %d memo starts, %d derivations, %d memos outliving an address", memoHits, derived, evicted)
	}
	if rescued > steps/50 {
		t.Fatalf("the reference failed on %d of %d queries: dead servers, not the memo, are being tested", rescued, steps)
	}
}

// memoFor returns the live memo a walk for name would start from, found
// without touching the LRU: the closest enclosing fresh NS entry's, or
// nil when that entry has none (the walk derives).
func memoFor(c *Cache, name string, now time.Time) []string {
	for zone := dnswire.CanonicalName(name); ; zone = dnswire.ParentName(zone) {
		key := cacheKey{name: zone, typ: dnswire.TypeNS}
		s := c.shard(key)
		s.mu.Lock()
		e := s.items[key]
		s.mu.Unlock()
		if e != nil && !e.negative && e.expires.After(now) {
			if d := e.deleg.Load(); d != nil && now.Before(d.expires) {
				return d.servers
			}
			return nil
		}
		if zone == "." {
			return nil
		}
	}
}

func subset(a, b []string) bool {
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return len(a) > 0
}

func sameSet(a, b []string) bool { return subset(a, b) && subset(b, a) }
