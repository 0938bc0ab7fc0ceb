package dnswire

import (
	"bytes"
	"strings"
	"testing"
)

// wireName encodes a presentation name label by label, keeping its case:
// appendName writes the lowercase form, and these fixtures need the bytes
// a signer sent.
func wireName(name string) []byte {
	var b []byte
	for _, l := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		b = append(b, byte(len(l)))
		b = append(b, l...)
	}
	return append(b, 0)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// signedRRs is a signed answer carrying each of the six DNSSEC and
// SVCB/HTTPS types once. The RRSIG signer, the NSEC next name and the
// SVCB/HTTPS targets are mixed case, and the NSEC bitmap uses windows 0
// and 1 (A NS SOA RRSIG NSEC DNSKEY, then CAA).
func signedRRs() []Record {
	rr := func(name string, t Type, rdata []byte) Record {
		return Record{Name: name, Type: t, Class: ClassIN, TTL: 300, Data: &Raw{Data: rdata}}
	}
	return []Record{
		rr("example.com.", TypeDNSKEY, []byte{0x01, 0x01, 3, 13, 0xAB, 0xCD, 0xEF, 0x01}),
		rr("example.com.", TypeDS, []byte{0x30, 0x39, 13, 2, 0xAA, 0xBB, 0xCC}),
		rr("example.com.", TypeRRSIG, cat(
			[]byte{0, 1, 13, 2, 0, 0, 0x01, 0x2C}, // covers A, alg 13, 2 labels, TTL 300
			[]byte{0x65, 0x53, 0xF1, 0x00, 0x64, 0xB9, 0x8E, 0x80, 0x30, 0x39},
			wireName("Example.COM."),
			[]byte{0xDE, 0xAD, 0xBE, 0xEF})),
		rr("example.com.", TypeNSEC, cat(
			wireName("Mail.Example.COM."),
			[]byte{0, 7, 0x62, 0, 0, 0, 0, 0x03, 0x80},
			[]byte{1, 1, 0x40})),
		rr("_dns.example.com.", TypeSVCB, cat(
			[]byte{0, 1}, wireName("DoH.Example.COM."), []byte{0, 1, 0, 3, 2, 'h', '2'})),
		rr("example.com.", TypeHTTPS, cat(
			[]byte{0, 1}, wireName("CDN.Example.NET."), []byte{0, 3, 0, 2, 0x01, 0xBB})),
	}
}

// oneRR is a response whose answer section holds one record of type t
// with the given RDATA, and nothing else.
func oneRR(t Type, rdata []byte) []byte {
	b := []byte{0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0}
	b = append(b, 0)
	b = append(b, byte(t>>8), byte(t))
	b = append(b, 0, 1, 0, 0, 0, 60)
	b = append(b, byte(len(rdata)>>8), byte(len(rdata)))
	return append(b, rdata...)
}

// TestDNSSECRecordsRoundTrip: the six types decode as Raw on the plain and
// the pooled decoder, and Pack(Unpack(x)) is x byte for byte. That holds
// for a signed answer whose names are mixed case, and for RDATA the codec
// used to reject as malformed, which it now carries verbatim.
func TestDNSSECRecordsRoundTrip(t *testing.T) {
	signed := &Message{Header: Header{ID: 1, QR: true}}
	signed.Answers = signedRRs()
	cases := []struct {
		name string
		wire []byte
	}{
		{"signed answer", mustPack(t, signed)},
		{"DNSKEY short", oneRR(TypeDNSKEY, []byte{1, 2})},
		{"DS short", oneRR(TypeDS, []byte{1})},
		{"RRSIG short", oneRR(TypeRRSIG, []byte{1, 2, 3})},
		{"RRSIG signer overruns", oneRR(TypeRRSIG, cat(make([]byte, 18), []byte{9, 'x'}))},
		{"NSEC bad bitmap len", oneRR(TypeNSEC, []byte{0, 0, 33})},
		{"NSEC zero block", oneRR(TypeNSEC, []byte{0, 0, 0})},
		{"NSEC truncated block", oneRR(TypeNSEC, []byte{0, 0, 4, 0x80})},
		{"NSEC next name is a pointer", oneRR(TypeNSEC, []byte{0xC0, 0x0C, 0, 1, 0x40})},
		{"SVCB short", oneRR(TypeSVCB, []byte{0})},
		{"HTTPS param overruns", oneRR(TypeHTTPS, []byte{0, 1, 0, 0, 3, 0, 9, 1})},
		{"DNSKEY empty", oneRR(TypeDNSKEY, nil)},
		{"RRSIG empty", oneRR(TypeRRSIG, nil)},
		{"NSEC empty", oneRR(TypeNSEC, nil)},
	}
	pm := AcquireMessage()
	defer ReleaseMessage(pm)
	for _, c := range cases {
		plain, err := Unpack(c.wire)
		if err != nil {
			t.Errorf("%s: plain unpack: %v", c.name, err)
			continue
		}
		if err := pm.Unpack(c.wire); err != nil {
			t.Errorf("%s: pooled unpack: %v", c.name, err)
			continue
		}
		for _, m := range []*Message{plain, pm} {
			for i, rr := range m.Answers {
				if _, ok := rr.Data.(*Raw); !ok {
					t.Errorf("%s: %v record %d decoded as %T, want *Raw", c.name, rr.Type, i, rr.Data)
				}
			}
			if got := mustPack(t, m); !bytes.Equal(got, c.wire) {
				t.Errorf("%s: Pack(Unpack(x)) != x\n got %x\nwant %x", c.name, got, c.wire)
			}
		}
	}
}

// TestDNSSECStrings: the six types keep their mnemonics both ways, and
// their RDATA prints in the RFC 3597 generic form.
func TestDNSSECStrings(t *testing.T) {
	for _, name := range []string{"DS", "RRSIG", "NSEC", "DNSKEY", "SVCB", "HTTPS"} {
		tp, ok := ParseType(name)
		if !ok || tp.String() != name {
			t.Errorf("ParseType(%q) = %v, %v", name, tp, ok)
		}
	}
	cases := []struct {
		data []byte
		want string
	}{
		{nil, `\# 0`},
		{[]byte{}, `\# 0`},
		{[]byte{0xAB}, `\# 1 ab`},
		{[]byte{0, 1, 0, 0, 3, 0, 2, 0x01, 0xBB}, `\# 9 0001000003000201bb`},
	}
	for _, c := range cases {
		if got := (&Raw{Data: c.data}).String(); got != c.want {
			t.Errorf("Raw%v.String() = %q, want %q", c.data, got, c.want)
		}
	}
	rr := Record{Name: "svc.example.", Type: TypeHTTPS, Class: ClassIN, TTL: 300,
		Data: &Raw{Data: cat([]byte{0, 1}, wireName("CDN.Example."))}}
	if got, want := rr.String(), `svc.example. 300 IN HTTPS \# 15 00010343444e074578616d706c6500`; got != want {
		t.Errorf("HTTPS record = %q, want %q", got, want)
	}
}
