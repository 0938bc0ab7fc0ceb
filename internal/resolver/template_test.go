package resolver

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/dnswire"
)

// tmplClock is a controllable cache clock for aging tests.
type tmplClock struct{ now time.Time }

func (c *tmplClock) Now() time.Time { return c.now }

// mangleCase flips lowercase question-label bytes of a packed message to
// uppercase, driven by an LCG over seed — the 0x20 case randomization a
// defensive stub applies. Label lengths (and so the wire length) never
// change.
func mangleCase(wire []byte, seed uint64) {
	off := 12
	for off < len(wire) {
		n := int(wire[off])
		if n == 0 || n&0xC0 != 0 {
			break
		}
		off++
		for i := 0; i < n; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			if c := wire[off+i]; c >= 'a' && c <= 'z' && seed>>63 == 1 {
				wire[off+i] = c - 'a' + 'A'
			}
		}
		off += n
	}
}

// lowerQuestion lowercases the question-label bytes of a packed message
// in place, mapping a template-served response (verbatim 0x20 echo) onto
// the materialize path's canonical output for byte comparison.
func lowerQuestion(wire []byte) {
	off := 12
	for off < len(wire) {
		n := int(wire[off])
		if n == 0 || n&0xC0 != 0 {
			break
		}
		off++
		for i := 0; i < n; i++ {
			if c := wire[off+i]; c >= 'A' && c <= 'Z' {
				wire[off+i] = c - 'A' + 'a'
			}
		}
		off += n
	}
}

// packQuery packs a query for (name, t) and returns the wire plus the
// parsed message, optionally case-mangled and with an EDNS OPT attached.
func packQuery(t *testing.T, name string, qt dnswire.Type, id uint16, caseSeed uint64, edns bool) ([]byte, *dnswire.Message) {
	t.Helper()
	q := dnswire.NewQuery(id, name, qt)
	if edns {
		q.SetEDNS(1232, false)
	}
	wire, err := q.AppendPack(nil)
	if err != nil {
		t.Fatalf("packing query: %v", err)
	}
	if caseSeed != 0 {
		mangleCase(wire, caseSeed)
	}
	parsed, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatalf("unpacking query: %v", err)
	}
	return wire, parsed
}

// materializeServe reproduces the server slow path exactly: the cache's
// Reply (Lookup, aged records), full AppendPack.
func materializeServe(t *testing.T, c *Cache, q *dnswire.Message) ([]byte, bool) {
	t.Helper()
	resp, ok := c.Reply(q)
	if !ok {
		return nil, false
	}
	out, err := resp.AppendPack(nil)
	if err != nil {
		t.Fatalf("materialize pack: %v", err)
	}
	return out, true
}

func addrOf(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestTemplateEquivalence asserts the template fast path emits responses
// byte-identical to materialize+AppendPack across record shapes, aging,
// negatives, and 0x20 mixed-case questions.
func TestTemplateEquivalence(t *testing.T) {
	clk := &tmplClock{now: time.Unix(1700000000, 0)}
	c := NewCache(1024, clk.Now)

	a1 := dnswire.Record{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 300, Data: &dnswire.A{Addr: addrOf(t, "192.0.2.1")}}
	a2 := dnswire.Record{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 600, Data: &dnswire.A{Addr: addrOf(t, "192.0.2.2")}}
	aaaa := dnswire.Record{Name: "v6.example.com.", Type: dnswire.TypeAAAA, Class: dnswire.ClassIN,
		TTL: 60, Data: &dnswire.AAAA{Addr: addrOf(t, "2001:db8::1")}}
	cname := dnswire.Record{Name: "alias.example.com.", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN,
		TTL: 120, Data: &dnswire.CNAME{Target: "www.example.com."}}
	mx := dnswire.Record{Name: "example.com.", Type: dnswire.TypeMX, Class: dnswire.ClassIN,
		TTL: 900, Data: &dnswire.MX{Preference: 10, Host: "mail.example.com."}}
	txt := dnswire.Record{Name: "txt.example.com.", Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
		TTL: 30, Data: &dnswire.TXT{Strings: []string{"v=spf1 -all"}}}

	c.PutRRset("www.example.com.", dnswire.TypeA, []dnswire.Record{a1, a2})
	c.PutRRset("v6.example.com.", dnswire.TypeAAAA, []dnswire.Record{aaaa})
	c.PutRRset("alias.example.com.", dnswire.TypeCNAME, []dnswire.Record{cname})
	c.PutRRset("example.com.", dnswire.TypeMX, []dnswire.Record{mx})
	c.PutRRset("txt.example.com.", dnswire.TypeTXT, []dnswire.Record{txt})
	c.PutNegative("nodata.example.com.", dnswire.TypeAAAA, false, 60)
	c.PutNegative("nx.example.com.", dnswire.TypeA, true, 60)

	cases := []struct {
		label    string
		name     string
		qt       dnswire.Type
		caseSeed uint64
		edns     bool
		age      time.Duration
	}{
		{label: "a-rrset", name: "www.example.com.", qt: dnswire.TypeA},
		{label: "a-rrset-aged", name: "www.example.com.", qt: dnswire.TypeA, age: 150 * time.Second},
		{label: "a-rrset-near-expiry", name: "www.example.com.", qt: dnswire.TypeA, age: 300*time.Second - time.Nanosecond},
		{label: "aaaa", name: "v6.example.com.", qt: dnswire.TypeAAAA},
		{label: "cname-direct", name: "alias.example.com.", qt: dnswire.TypeCNAME},
		{label: "mx-compressed-rdata", name: "example.com.", qt: dnswire.TypeMX},
		{label: "txt", name: "txt.example.com.", qt: dnswire.TypeTXT},
		{label: "nodata", name: "nodata.example.com.", qt: dnswire.TypeAAAA},
		{label: "nxdomain", name: "nx.example.com.", qt: dnswire.TypeA},
		{label: "mixed-case", name: "www.example.com.", qt: dnswire.TypeA, caseSeed: 0xbeef},
		{label: "mixed-case-mx", name: "example.com.", qt: dnswire.TypeMX, caseSeed: 7},
		{label: "edns-query", name: "www.example.com.", qt: dnswire.TypeA, edns: true},
	}
	for i, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			clk.now = time.Unix(1700000000, 0).Add(tc.age)
			raw, q := packQuery(t, tc.name, tc.qt, uint16(1000+i), tc.caseSeed, tc.edns)
			rawQ, ok := dnswire.QuestionBytes(raw)
			if !ok {
				t.Fatal("QuestionBytes declined a plain query")
			}
			tmplResp, _, ok := c.AppendResponse(nil, q, rawQ)
			if !ok {
				t.Fatal("AppendResponse declined a fresh cached entry")
			}
			matResp, ok := materializeServe(t, c, q)
			if !ok {
				t.Fatal("materialize path missed after template hit")
			}
			// The template echoes the client's exact question bytes; the
			// materialize path re-packs the decoder's canonical (lowercase)
			// name. Everything else must match byte for byte.
			if got := tmplResp[12 : 12+len(rawQ)]; !bytes.Equal(got, rawQ) {
				t.Fatalf("question not echoed verbatim:\n got %x\nwant %x", got, rawQ)
			}
			norm := bytes.Clone(tmplResp)
			lowerQuestion(norm)
			if !bytes.Equal(norm, matResp) {
				t.Fatalf("template response differs from materialize+pack:\ntmpl %x\n mat %x", norm, matResp)
			}
		})
	}
}

// TestTemplateDeclines pins every condition that must fall back to the
// materialize path, and that declining leaves no counter turds behind.
func TestTemplateDeclines(t *testing.T) {
	clk := &tmplClock{now: time.Unix(1700000000, 0)}
	c := NewCache(1024, clk.Now)
	rr := dnswire.Record{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 60, Data: &dnswire.A{Addr: addrOf(t, "192.0.2.1")}}
	c.PutRRset("www.example.com.", dnswire.TypeA, []dnswire.Record{rr})
	raw, q := packQuery(t, "www.example.com.", dnswire.TypeA, 7, 0, false)
	rawQ, _ := dnswire.QuestionBytes(raw)

	t.Run("miss", func(t *testing.T) {
		_, miss := packQuery(t, "other.example.com.", dnswire.TypeA, 8, 0, false)
		before := readCacheCounts()
		if _, _, ok := c.AppendResponse(nil, miss, rawQ); ok {
			t.Fatal("served a miss")
		}
		if d := readCacheCounts().since(before); d.misses != 0 {
			t.Fatalf("declined fast path counted %d misses", d.misses)
		}
	})
	t.Run("qlen-mismatch", func(t *testing.T) {
		// A differently-spelled raw question (extra label) cannot be echoed
		// over this entry's template.
		if _, _, ok := c.AppendResponse(nil, q, rawQ[:len(rawQ)-1]); ok {
			t.Fatal("served with mismatched question length")
		}
	})
	t.Run("expired", func(t *testing.T) {
		clk.now = clk.now.Add(61 * time.Second)
		defer func() {
			clk.now = clk.now.Add(-61 * time.Second)
			c.PutRRset("www.example.com.", dnswire.TypeA, []dnswire.Record{rr})
		}()
		before := readCacheCounts()
		if _, _, ok := c.AppendResponse(nil, q, rawQ); ok {
			t.Fatal("served an expired entry")
		}
		// The first reader of an expired entry evicts it, the fast path
		// included; the materialize path behind it then finds nothing to
		// evict, so the eviction is counted once.
		if _, ok := materializeServe(t, c, q); ok {
			t.Fatal("materialize path served an expired entry")
		}
		if d := readCacheCounts().since(before); c.Len() != 0 || d.evictions != 1 {
			t.Fatalf("want the entry evicted once: %d evictions, %d entries left", d.evictions, c.Len())
		}
	})
	t.Run("ttl-zero-put", func(t *testing.T) {
		c.PutRRset("zero.example.com.", dnswire.TypeA, []dnswire.Record{{
			Name: "zero.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 0, Data: &dnswire.A{Addr: addrOf(t, "192.0.2.9")},
		}})
		rawZ, qZ := packQuery(t, "zero.example.com.", dnswire.TypeA, 9, 0, false)
		rawQZ, _ := dnswire.QuestionBytes(rawZ)
		if _, _, ok := c.AppendResponse(nil, qZ, rawQZ); ok {
			t.Fatal("served a TTL=0 entry the materialize path would miss")
		}
		if _, ok := c.Lookup("zero.example.com.", dnswire.TypeA); ok {
			t.Fatal("materialize path served a TTL=0 entry")
		}
	})
	t.Run("hit-counting", func(t *testing.T) {
		before := readCacheCounts()
		if _, _, ok := c.AppendResponse(nil, q, rawQ); !ok {
			t.Fatal("fresh entry declined")
		}
		if d := readCacheCounts().since(before); d.hits != 1 {
			t.Fatalf("template hit counted %d times", d.hits)
		}
	})
}

// TestTemplateHitZeroAllocs asserts the complete template serve —
// cache lookup, header, question echo, answer copy, TTL aging — runs
// allocation-free into a reused buffer, through both the cache entry
// point and the Recursive handler fast path.
func TestTemplateHitZeroAllocs(t *testing.T) {
	c := NewCache(1024, nil)
	c.PutRRset("www.example.com.", dnswire.TypeA, []dnswire.Record{
		{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 3600, Data: &dnswire.A{Addr: addrOf(t, "192.0.2.1")}},
		{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 3600, Data: &dnswire.A{Addr: addrOf(t, "192.0.2.2")}},
	})
	raw, q := packQuery(t, "www.example.com.", dnswire.TypeA, 42, 0xcafe, false)
	rawQ, _ := dnswire.QuestionBytes(raw)
	buf := make([]byte, 0, 4096)

	if allocs := testing.AllocsPerRun(200, func() {
		out, _, ok := c.AppendResponse(buf[:0], q, rawQ)
		if !ok || len(out) == 0 {
			t.Fatal("template hit declined")
		}
	}); allocs != 0 {
		t.Fatalf("Cache.AppendResponse allocated %.1f/op, want 0", allocs)
	}

	rec := &Recursive{Cache: c}
	if allocs := testing.AllocsPerRun(200, func() {
		out, _, ok := rec.AppendResponse(buf[:0], q, rawQ)
		if !ok || len(out) == 0 {
			t.Fatal("recursive template hit declined")
		}
	}); allocs != 0 {
		t.Fatalf("Recursive.AppendResponse allocated %.1f/op, want 0", allocs)
	}
}

// FuzzTemplateEquivalence cross-checks the template and materialize
// paths over arbitrary names, types, TTLs, entry kinds, aging, and 0x20
// case mangling: whenever the fast path answers, its bytes (question
// canonicalised) must equal the materialize pack exactly.
func FuzzTemplateEquivalence(f *testing.F) {
	f.Add("www.example.com.", uint16(dnswire.TypeA), uint32(300), uint64(0), uint8(0), uint32(0))
	f.Add("a.b.c.d.example.org.", uint16(dnswire.TypeAAAA), uint32(1), uint64(99), uint8(0), uint32(1))
	f.Add("nodata.test.", uint16(dnswire.TypeTXT), uint32(60), uint64(5), uint8(1), uint32(30))
	f.Add("nx.test.", uint16(dnswire.TypeA), uint32(86400), uint64(1<<40), uint8(2), uint32(86399))
	f.Add(".", uint16(dnswire.TypeNS), uint32(518400), uint64(3), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, name string, qtype uint16, ttl uint32, caseSeed uint64, kind uint8, ageSec uint32) {
		if dnswire.ValidateName(name) != nil {
			t.Skip()
		}
		qt := dnswire.Type(qtype)
		if qt == dnswire.TypeOPT {
			t.Skip() // pseudo-type: never a real question or cache key
		}
		ttl %= 7 * 24 * 3600
		clk := &tmplClock{now: time.Unix(1700000000, 0)}
		c := NewCache(64, clk.Now)
		canonical := dnswire.CanonicalName(name)
		switch kind % 3 {
		case 0:
			c.PutRRset(canonical, qt, []dnswire.Record{
				{Name: canonical, Type: dnswire.TypeA, Class: dnswire.ClassIN,
					TTL: ttl, Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})}},
				{Name: canonical, Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
					TTL: ttl | 1, Data: &dnswire.TXT{Strings: []string{"fuzz"}}},
			})
		case 1:
			c.PutNegative(canonical, qt, false, ttl)
		case 2:
			c.PutNegative(canonical, qt, true, ttl)
		}
		if ttl > 0 {
			clk.now = clk.now.Add(time.Duration(ageSec%(ttl+1)) * time.Second)
		}
		q := dnswire.NewQuery(0x2222, canonical, qt)
		raw, err := q.AppendPack(nil)
		if err != nil {
			t.Skip()
		}
		mangleCase(raw, caseSeed)
		parsed, err := dnswire.Unpack(raw)
		if err != nil {
			t.Fatalf("round-trip unpack: %v", err)
		}
		rawQ, ok := dnswire.QuestionBytes(raw)
		if !ok {
			t.Fatal("QuestionBytes declined our own packed query")
		}
		tmplResp, _, served := c.AppendResponse(nil, parsed, rawQ)
		matResp, hit := materializeServe(t, c, parsed)
		if served && !hit {
			t.Fatal("template served what materialize missed")
		}
		if !served {
			return
		}
		if got := tmplResp[12 : 12+len(rawQ)]; !bytes.Equal(got, rawQ) {
			t.Fatalf("question not echoed verbatim")
		}
		norm := bytes.Clone(tmplResp)
		lowerQuestion(norm)
		if !bytes.Equal(norm, matResp) {
			t.Fatalf("template != materialize:\ntmpl %x\n mat %x", norm, matResp)
		}
	})
}
