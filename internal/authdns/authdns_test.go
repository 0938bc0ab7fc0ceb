package authdns

import (
	"context"
	"net/netip"
	"strings"
	"testing"

	"encdns/internal/dnswire"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	z := NewZone("example.com")
	z.SetSOA("ns1.example.com.", "hostmaster.example.com.", 1, 300)
	z.AddA("example.com.", 300, netip.MustParseAddr("93.184.216.34"))
	z.AddA("www.example.com.", 300, netip.MustParseAddr("93.184.216.35"))
	z.AddA("www.example.com.", 300, netip.MustParseAddr("2606:2800:220:1::1"))
	z.Add(dnswire.Record{
		Name: "alias.example.com.", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.CNAME{Target: "www.example.com."},
	})
	z.Add(dnswire.Record{
		Name: "ext.example.com.", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.CNAME{Target: "other.example.net."},
	})
	z.Delegate("sub.example.com.", map[string]netip.Addr{
		"ns1.sub.example.com.": netip.MustParseAddr("198.51.100.1"),
	})
	return z
}

func query(t *testing.T, z *Zone, name string, typ dnswire.Type) *dnswire.Message {
	t.Helper()
	resp, err := z.ServeDNS(context.Background(), dnswire.NewQuery(1, name, typ))
	if err != nil {
		t.Fatalf("ServeDNS(%s %s): %v", name, typ, err)
	}
	return resp
}

func TestAuthoritativeAnswer(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "www.example.com", dnswire.TypeA)
	if !resp.Header.AA {
		t.Error("AA not set")
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("rcode=%v answers=%d", resp.Header.RCode, len(resp.Answers))
	}
	if a := resp.Answers[0].Data.(*dnswire.A); a.Addr.String() != "93.184.216.35" {
		t.Errorf("addr = %v", a.Addr)
	}
}

func TestAAAAAnswer(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "www.example.com", dnswire.TypeAAAA)
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
}

func TestCNAMEChaseInZone(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "alias.example.com", dnswire.TypeA)
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %d, want CNAME + A", len(resp.Answers))
	}
	if resp.Answers[0].Type != dnswire.TypeCNAME || resp.Answers[1].Type != dnswire.TypeA {
		t.Errorf("types = %v, %v", resp.Answers[0].Type, resp.Answers[1].Type)
	}
}

func TestCNAMEQueryDirect(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "alias.example.com", dnswire.TypeCNAME)
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dnswire.TypeCNAME {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func TestCNAMEOutOfZoneTarget(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "ext.example.com", dnswire.TypeA)
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dnswire.TypeCNAME {
		t.Fatalf("answers = %v, want bare CNAME", resp.Answers)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestNXDomain(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "nope.example.com", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %v, want SOA", resp.Authority)
	}
}

func TestNODATA(t *testing.T) {
	z := testZone(t)
	// www exists but has no TXT: NODATA, not NXDOMAIN.
	resp := query(t, z, "www.example.com", dnswire.TypeTXT)
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %v, want NOERROR (NODATA)", resp.Header.RCode)
	}
	if len(resp.Answers) != 0 {
		t.Errorf("answers = %v", resp.Answers)
	}
	if len(resp.Authority) == 0 {
		t.Error("no SOA in authority")
	}
}

func TestEmptyNonTerminal(t *testing.T) {
	z := NewZone("example.org")
	z.SetSOA("ns1.example.org.", "h.example.org.", 1, 300)
	z.AddA("a.b.example.org.", 300, netip.MustParseAddr("192.0.2.1"))
	// "b.example.org" has no records but has a child: NODATA, not NXDOMAIN.
	resp := query(t, z, "b.example.org", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Errorf("rcode = %v, want NOERROR for empty non-terminal", resp.Header.RCode)
	}
}

func TestReferral(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "deep.sub.example.com", dnswire.TypeA)
	if resp.Header.AA {
		t.Error("referral must not be authoritative")
	}
	if len(resp.Answers) != 0 {
		t.Errorf("answers = %v", resp.Answers)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeNS {
		t.Fatalf("authority = %v", resp.Authority)
	}
	if len(resp.Additional) != 1 {
		t.Fatalf("additional = %v, want glue", resp.Additional)
	}
	if a := resp.Additional[0].Data.(*dnswire.A); a.Addr.String() != "198.51.100.1" {
		t.Errorf("glue = %v", a.Addr)
	}
}

func TestOutOfZoneRefused(t *testing.T) {
	z := testZone(t)
	resp := query(t, z, "www.google.com", dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestNonINRefused(t *testing.T) {
	z := testZone(t)
	q := dnswire.NewQuery(1, "www.example.com", dnswire.TypeA)
	q.Questions[0].Class = dnswire.ClassCH
	resp, err := z.ServeDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestAddOutsideZonePanics(t *testing.T) {
	z := NewZone("example.com")
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	z.AddA("www.google.com.", 300, netip.MustParseAddr("1.2.3.4"))
}

func TestRegistryExchange(t *testing.T) {
	reg := NewRegistry()
	z := testZone(t)
	reg.Register("198.18.0.1:53", z)

	q := dnswire.NewQuery(77, "www.example.com", dnswire.TypeA)
	resp, err := reg.Exchange(context.Background(), q, "198.18.0.1:53")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 77 {
		t.Errorf("ID = %d", resp.Header.ID)
	}
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %d", len(resp.Answers))
	}
	if _, err := reg.Exchange(context.Background(), q, "198.18.9.9:53"); err == nil {
		t.Error("unknown server answered")
	}
}

func TestBuildHierarchyShape(t *testing.T) {
	h := BuildHierarchy(MeasurementLeaves())
	if len(h.RootServers) != 2 {
		t.Fatalf("root servers = %d", len(h.RootServers))
	}
	if len(h.TLDs) != 1 {
		t.Fatalf("TLDs = %v, want just com", h.TLDs)
	}
	if _, ok := h.TLDs["com."]; !ok {
		t.Fatal("no com TLD zone")
	}
	for _, leaf := range []string{"google.com.", "amazon.com.", "wikipedia.com."} {
		if _, ok := h.Leaves[leaf]; !ok {
			t.Errorf("missing leaf %s", leaf)
		}
	}
}

func TestHierarchyWalk(t *testing.T) {
	// Manually follow the referral chain root → com → google.com.
	h := BuildHierarchy(MeasurementLeaves())
	ctx := context.Background()

	q := dnswire.NewQuery(1, "google.com", dnswire.TypeA)
	resp, err := h.Registry.Exchange(ctx, q, h.RootServers[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 0 || len(resp.Authority) == 0 {
		t.Fatalf("root should refer: %v", resp)
	}
	// Follow glue to the com servers.
	var comServer string
	for _, rr := range resp.Additional {
		if a, ok := rr.Data.(*dnswire.A); ok {
			comServer = a.Addr.String() + ":53"
			break
		}
	}
	if comServer == "" {
		t.Fatal("no glue from root")
	}
	resp, err = h.Registry.Exchange(ctx, q, comServer)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 0 || len(resp.Authority) == 0 {
		t.Fatalf("com should refer: %v", resp)
	}
	var leafServer string
	for _, rr := range resp.Additional {
		if a, ok := rr.Data.(*dnswire.A); ok {
			leafServer = a.Addr.String() + ":53"
			break
		}
	}
	if leafServer == "" {
		t.Fatal("no glue from com")
	}
	resp, err = h.Registry.Exchange(ctx, q, leafServer)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.AA || len(resp.Answers) == 0 {
		t.Fatalf("leaf should answer authoritatively: %v", resp)
	}
}

func TestHierarchyCNAMELeaf(t *testing.T) {
	h := BuildHierarchy(MeasurementLeaves())
	lz := h.Leaves["amazon.com."]
	resp, err := lz.ServeDNS(context.Background(), dnswire.NewQuery(1, "www.amazon.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) < 2 {
		t.Fatalf("answers = %v, want CNAME + A records", resp.Answers)
	}
}

// nameExistsScan is nameExists as it was before the names index: one pass
// over every record for the owner itself, another for something below it.
func nameExistsScan(z *Zone, name string) bool {
	name = dnswire.CanonicalName(name)
	for k := range z.records {
		if k.name == name {
			return true
		}
	}
	suffix := "." + name
	if name == "." {
		suffix = "."
	}
	for k := range z.records {
		if strings.HasSuffix(k.name, suffix) && k.name != name {
			return true
		}
	}
	return false
}

// TestNameIndexMatchesScan: existence by the names index is existence by
// the scan it replaced, for owners, empty non-terminals at every depth,
// names beside and below them, and the apex — and the answers follow:
// NODATA for a name that exists only as an ancestor, NXDOMAIN beside it.
func TestNameIndexMatchesScan(t *testing.T) {
	z := testZone(t)
	z.AddA("a.b.example.com.", 300, netip.MustParseAddr("192.0.2.1")) // b. is an empty non-terminal
	z.AddA("x.y.z.deep.example.com.", 300, netip.MustParseAddr("192.0.2.2"))
	z.Add(dnswire.Record{Name: "_dmarc.example.com.", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.TXT{Strings: []string{"v=DMARC1"}}})
	root := NewZone(".")
	root.SetSOA("a.root-servers.net.", "nstld.example.", 1, 86400)
	root.AddA("a.root-servers.net.", 300, netip.MustParseAddr("198.41.0.4"))

	for _, c := range []struct {
		z     *Zone
		names []string
	}{
		{z, []string{"example.com.", "www.example.com.", "b.example.com.", "a.b.example.com.", "c.b.example.com.",
			"x.a.b.example.com.", "bb.example.com.", "deep.example.com.", "z.deep.example.com.", "y.z.deep.example.com.",
			"x.y.z.deep.example.com.", "w.x.y.z.deep.example.com.", "y.deep.example.com.", "nope.example.com.",
			"_dmarc.example.com.", "sub.example.com.", "ns1.sub.example.com.", "com.", "."}},
		{root, []string{".", "net.", "root-servers.net.", "a.root-servers.net.", "b.root-servers.net.", "org."}},
	} {
		for _, name := range c.names {
			if !dnswire.IsSubdomain(name, c.z.origin) {
				continue // never asked: ServeDNS refuses names outside the zone first
			}
			if got, want := c.z.nameExists(name), nameExistsScan(c.z, name); got != want {
				t.Errorf("zone %s: nameExists(%q) = %v, the scan says %v", c.z.origin, name, got, want)
			}
		}
	}
	if resp := query(t, z, "b.example.com.", dnswire.TypeA); resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("b.example.com. (empty non-terminal) = %s with %d answers, want NODATA", resp.Header.RCode, len(resp.Answers))
	}
	if resp := query(t, z, "c.b.example.com.", dnswire.TypeA); resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("c.b.example.com. = %s, want NXDOMAIN", resp.Header.RCode)
	}
}
