package authdns

import (
	"context"
	"strings"
	"testing"
	"time"

	"encdns/internal/dnswire"
)

const sampleZone = `
$ORIGIN example.com.
$TTL 300
@   IN SOA ns1 hostmaster (
        2024050901 ; serial
        7200       ; refresh
        3600       ; retry
        1209600    ; expire
        300 )      ; minimum
@       IN NS  ns1
@       IN NS  ns2.example.net.
ns1     IN A   192.0.2.1
        IN AAAA 2001:db8::1
www     600 IN A 192.0.2.80
alias   IN CNAME www
@       IN MX 10 mail
mail    IN A 192.0.2.25
txt     IN TXT "hello world" "second; string"
_dns._tcp IN SRV 0 5 853 dot
dot     IN A 192.0.2.53
@       IN CAA 0 issue "letsencrypt.org"
`

func TestParseZoneFull(t *testing.T) {
	z, err := ParseZone("example.com", strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	q := func(name string, typ dnswire.Type) *dnswire.Message {
		t.Helper()
		resp, err := z.ServeDNS(context.Background(), dnswire.NewQuery(1, name, typ))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// SOA with multi-line parens.
	resp := q("example.com", dnswire.TypeSOA)
	if len(resp.Answers) != 1 {
		t.Fatalf("SOA answers = %v", resp.Answers)
	}
	soa := resp.Answers[0].Data.(*dnswire.SOA)
	if soa.Serial != 2024050901 || soa.Minimum != 300 || soa.MName != "ns1.example.com." {
		t.Errorf("soa = %+v", soa)
	}
	// Owner repetition: AAAA under ns1 (blank owner on next line).
	resp = q("ns1.example.com", dnswire.TypeAAAA)
	if len(resp.Answers) != 1 {
		t.Fatalf("ns1 AAAA = %v", resp.Answers)
	}
	// Explicit TTL overrides $TTL.
	resp = q("www.example.com", dnswire.TypeA)
	if len(resp.Answers) != 1 || resp.Answers[0].TTL != 600 {
		t.Errorf("www = %v", resp.Answers)
	}
	// Relative and absolute NS targets.
	resp = q("example.com", dnswire.TypeNS)
	if len(resp.Answers) != 2 {
		t.Fatalf("NS = %v", resp.Answers)
	}
	hosts := map[string]bool{}
	for _, rr := range resp.Answers {
		hosts[rr.Data.(*dnswire.NS).Host] = true
	}
	if !hosts["ns1.example.com."] || !hosts["ns2.example.net."] {
		t.Errorf("NS hosts = %v", hosts)
	}
	// CNAME chase.
	resp = q("alias.example.com", dnswire.TypeA)
	if len(resp.Answers) != 2 {
		t.Errorf("alias chain = %v", resp.Answers)
	}
	// MX with relative host.
	resp = q("example.com", dnswire.TypeMX)
	mx := resp.Answers[0].Data.(*dnswire.MX)
	if mx.Preference != 10 || mx.Host != "mail.example.com." {
		t.Errorf("mx = %+v", mx)
	}
	// TXT with quoted strings, semicolon inside quotes preserved.
	resp = q("txt.example.com", dnswire.TypeTXT)
	txt := resp.Answers[0].Data.(*dnswire.TXT)
	if len(txt.Strings) != 2 || txt.Strings[0] != "hello world" || txt.Strings[1] != "second; string" {
		t.Errorf("txt = %+v", txt.Strings)
	}
	// SRV.
	resp = q("_dns._tcp.example.com", dnswire.TypeSRV)
	srv := resp.Answers[0].Data.(*dnswire.SRV)
	if srv.Port != 853 || srv.Target != "dot.example.com." {
		t.Errorf("srv = %+v", srv)
	}
	// CAA.
	resp = q("example.com", dnswire.TypeCAA)
	caa := resp.Answers[0].Data.(*dnswire.CAA)
	if caa.Tag != "issue" || caa.Value != "letsencrypt.org" {
		t.Errorf("caa = %+v", caa)
	}
}

func TestParseZoneRoundTripsThroughWire(t *testing.T) {
	// Every parsed record must survive pack/unpack.
	z, err := ParseZone("example.com", strings.NewReader(sampleZone))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := z.ServeDNS(context.Background(), dnswire.NewQuery(1, "example.com", dnswire.TypeSOA))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnswire.Unpack(wire); err != nil {
		t.Fatal(err)
	}
}

func TestParseZoneOriginDirective(t *testing.T) {
	zone := `
$ORIGIN sub.example.com.
www IN A 192.0.2.1
`
	z, err := ParseZone("example.com", strings.NewReader(zone))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := z.ServeDNS(context.Background(), dnswire.NewQuery(1, "www.sub.example.com", dnswire.TypeA))
	if len(resp.Answers) != 1 {
		t.Errorf("www.sub = %v", resp.Answers)
	}
}

func TestParseZoneErrors(t *testing.T) {
	cases := []struct {
		name string
		zone string
	}{
		{"unknown type", "@ IN WAT 1.2.3.4\n"},
		{"bad A", "@ IN A not-an-ip\n"},
		{"A with v6", "@ IN A 2001:db8::1\n"},
		{"AAAA with v4", "@ IN AAAA 1.2.3.4\n"},
		{"missing type", "www 300 IN\n"},
		{"bad ttl directive", "$TTL lots\n"},
		{"bad origin arity", "$ORIGIN a b\n"},
		{"include unsupported", "$INCLUDE other.zone\n"},
		{"unbalanced parens", "@ IN SOA ns1 h ( 1 2 3 4 5\n"},
		{"close without open", "@ IN A 1.2.3.4 )\n"},
		{"bad mx pref", "@ IN MX lots mail\n"},
		{"srv arity", "@ IN SRV 1 2 853\n"},
		{"soa arity", "@ IN SOA ns1 h 1 2 3\n"},
		{"bad caa flags", "@ IN CAA x issue y\n"},
		{"owner outside the zone", "www.example.net. IN A 192.0.2.1\n"},
		{"origin outside the zone", "$ORIGIN example.net.\nwww IN A 192.0.2.1\n"},
	}
	for _, c := range cases {
		if _, err := ParseZone("example.com", strings.NewReader(c.zone)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseZoneCommentsAndBlanks(t *testing.T) {
	zone := `
; a full-line comment

@ IN A 192.0.2.1 ; trailing comment
`
	z, err := ParseZone("example.com", strings.NewReader(zone))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := z.ServeDNS(context.Background(), dnswire.NewQuery(1, "example.com", dnswire.TypeA))
	if len(resp.Answers) != 1 {
		t.Errorf("answers = %v", resp.Answers)
	}
}

func TestTokenizeQuotes(t *testing.T) {
	got := tokenize(`a "b c" "" d`)
	want := []string{"a", "b c", "", "d"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %q", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %q", got)
		}
	}
}

// FuzzParseZone drives the zone-file parser with arbitrary text and
// origins: it must return, with a zone or an error, and never panic.
func FuzzParseZone(f *testing.F) {
	f.Add("example.com", sampleZone)
	f.Add("example.com", "$ORIGIN sub.example.com.\nwww IN A 192.0.2.1\n")
	f.Add(".", "@ IN SOA a. b. ( 1 2 3 4 5 )\n")
	f.Add("example.com", "txt IN TXT \"unterminated ; not a comment\n")
	f.Add("example.com", "x ( IN A\n 192.0.2.1 ) )\n")
	f.Add("example.com", "  IN MX 10 mail\n$TTL 99999999999\n$INCLUDE other\n")
	f.Fuzz(func(t *testing.T, origin, zone string) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = ParseZone(origin, strings.NewReader(zone))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("ParseZone(%q, %q) did not return", origin, zone)
		}
	})
}
