package dnswire

import (
	"bytes"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	return b
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "google.com", TypeA)
	b := mustPack(t, q)
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if got.Header.ID != 0x1234 || got.Header.QR || !got.Header.RD {
		t.Errorf("header = %+v", got.Header)
	}
	q0 := got.Question0()
	if q0.Name != "google.com." || q0.Type != TypeA || q0.Class != ClassIN {
		t.Errorf("question = %+v", q0)
	}
}

func TestQuestion0Empty(t *testing.T) {
	var m Message
	if q := m.Question0(); q != (Question{}) {
		t.Errorf("Question0 of empty = %+v", q)
	}
}

func TestResponseRoundTripAllSections(t *testing.T) {
	m := NewQuery(7, "www.example.com", TypeA)
	r := m.Reply()
	r.Header.RA = true
	r.Header.AA = true
	r.Answers = []Record{
		{Name: "www.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 300,
			Data: &CNAME{Target: "example.com"}},
		{Name: "example.com", Type: TypeA, Class: ClassIN, TTL: 60,
			Data: &A{Addr: netip.MustParseAddr("93.184.216.34")}},
	}
	r.Authority = []Record{
		{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 86400,
			Data: &NS{Host: "ns1.example.com"}},
	}
	r.Additional = []Record{
		{Name: "ns1.example.com", Type: TypeA, Class: ClassIN, TTL: 86400,
			Data: &A{Addr: netip.MustParseAddr("192.0.2.1")}},
	}
	b := mustPack(t, r)
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if !got.Header.QR || !got.Header.AA || !got.Header.RA {
		t.Errorf("flags = %+v", got.Header)
	}
	if len(got.Answers) != 2 || len(got.Authority) != 1 || len(got.Additional) != 1 {
		t.Fatalf("sections = %d/%d/%d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	cn, ok := got.Answers[0].Data.(*CNAME)
	if !ok || cn.Target != "example.com." {
		t.Errorf("answer[0] = %v", got.Answers[0])
	}
	a, ok := got.Answers[1].Data.(*A)
	if !ok || a.Addr != netip.MustParseAddr("93.184.216.34") {
		t.Errorf("answer[1] = %v", got.Answers[1])
	}
	if got.Answers[1].TTL != 60 {
		t.Errorf("TTL = %d", got.Answers[1].TTL)
	}
}

func TestCompressionShrinksMessages(t *testing.T) {
	m := NewQuery(1, "www.example.com", TypeA)
	r := m.Reply()
	for i := 0; i < 10; i++ {
		r.Answers = append(r.Answers, Record{
			Name: "www.example.com", Type: TypeA, Class: ClassIN, TTL: 60,
			Data: &A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})},
		})
	}
	b := mustPack(t, r)
	// Uncompressed, each answer would repeat the 17-byte name; compressed
	// it is a 2-byte pointer. 10 answers: saving of ~150 bytes.
	uncompressedEstimate := 12 + 21 + 10*(17+14)
	if len(b) >= uncompressedEstimate-100 {
		t.Errorf("message is %d bytes; compression seems ineffective", len(b))
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range got.Answers {
		if rr.Name != "www.example.com." {
			t.Errorf("answer %d name = %q", i, rr.Name)
		}
	}
}

func TestAllRDataRoundTrip(t *testing.T) {
	records := []Record{
		{Name: "a.example", Type: TypeA, Class: ClassIN, TTL: 1,
			Data: &A{Addr: netip.MustParseAddr("1.2.3.4")}},
		{Name: "aaaa.example", Type: TypeAAAA, Class: ClassIN, TTL: 2,
			Data: &AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
		{Name: "ns.example", Type: TypeNS, Class: ClassIN, TTL: 3,
			Data: &NS{Host: "ns1.example."}},
		{Name: "cn.example", Type: TypeCNAME, Class: ClassIN, TTL: 4,
			Data: &CNAME{Target: "target.example."}},
		{Name: "soa.example", Type: TypeSOA, Class: ClassIN, TTL: 5,
			Data: &SOA{MName: "ns1.example.", RName: "hostmaster.example.",
				Serial: 2024050901, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300}},
		{Name: "4.3.2.1.in-addr.arpa", Type: TypePTR, Class: ClassIN, TTL: 6,
			Data: &PTR{Target: "a.example."}},
		{Name: "mx.example", Type: TypeMX, Class: ClassIN, TTL: 7,
			Data: &MX{Preference: 10, Host: "mail.example."}},
		{Name: "txt.example", Type: TypeTXT, Class: ClassIN, TTL: 8,
			Data: &TXT{Strings: []string{"hello", "world"}}},
		{Name: "_dns.example", Type: TypeSRV, Class: ClassIN, TTL: 9,
			Data: &SRV{Priority: 1, Weight: 5, Port: 853, Target: "dot.example."}},
		{Name: "caa.example", Type: TypeCAA, Class: ClassIN, TTL: 10,
			Data: &CAA{Flags: 0, Tag: "issue", Value: "letsencrypt.org"}},
		{Name: "svcb.example", Type: TypeHTTPS, Class: ClassIN, TTL: 11,
			Data: &Raw{Data: []byte{0, 1, 0, 0, 3, 0, 2, 0x01, 0xbb}}},
		{Name: "raw.example", Type: Type(999), Class: ClassIN, TTL: 12,
			Data: &Raw{Data: []byte{0xde, 0xad}}},
	}
	m := &Message{Header: Header{ID: 9, QR: true}}
	m.Answers = records
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if len(got.Answers) != len(records) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(records))
	}
	for i, want := range records {
		g := got.Answers[i]
		if g.Name != CanonicalName(want.Name) || g.Type != want.Type || g.TTL != want.TTL {
			t.Errorf("record %d header = %+v", i, g)
		}
		if !reflect.DeepEqual(g.Data, want.Data) {
			t.Errorf("record %d data = %#v, want %#v", i, g.Data, want.Data)
		}
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	m := NewQuery(1, "example.com", TypeA)
	m.SetEDNS(MaxEDNSSize, true)
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	opt, ok := got.EDNS()
	if !ok {
		t.Fatal("no OPT record after round trip")
	}
	if opt.UDPSize != MaxEDNSSize || !opt.DO || opt.Version != 0 {
		t.Errorf("opt = %+v", opt)
	}
}

func TestSetEDNSReplacesExisting(t *testing.T) {
	m := NewQuery(1, "example.com", TypeA)
	m.SetEDNS(512, false)
	m.SetEDNS(4096, true)
	n := 0
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("OPT count = %d, want 1", n)
	}
	opt, _ := m.EDNS()
	if opt.UDPSize != 4096 || !opt.DO {
		t.Errorf("opt = %+v", opt)
	}
}

func TestExtendedRCode(t *testing.T) {
	// BADVERS (16) needs the OPT extended RCODE bits.
	m := &Message{Header: Header{ID: 2, QR: true, RCode: RCode(16 & 0xF)}}
	m.Additional = append(m.Additional, Record{
		Name: ".", Type: TypeOPT,
		Data: &OPT{UDPSize: 512, ExtRCode: 16 >> 4},
	})
	b := mustPack(t, m)
	got, err := Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.RCode != RCode(16) {
		t.Errorf("extended rcode = %d, want 16", got.Header.RCode)
	}
}

func TestReplyEchoesQuestion(t *testing.T) {
	q := NewQuery(42, "example.org", TypeAAAA)
	r := q.Reply()
	if r.Header.ID != 42 || !r.Header.QR || !r.Header.RD {
		t.Errorf("reply header = %+v", r.Header)
	}
	if r.Question0() != q.Question0() {
		t.Errorf("reply question = %+v", r.Question0())
	}
}

func TestUnpackErrors(t *testing.T) {
	q := NewQuery(1, "example.com", TypeA)
	good := mustPack(t, q)

	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short header", good[:11]},
		{"truncated question", good[:14]},
		{"trailing garbage", append(append([]byte{}, good...), 0xFF)},
	}
	for _, c := range cases {
		if _, err := Unpack(c.b); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestUnpackSectionCountLies(t *testing.T) {
	// Claim one answer but provide none.
	q := NewQuery(1, "example.com", TypeA)
	b := mustPack(t, q)
	b[6], b[7] = 0, 1 // ANCOUNT = 1
	if _, err := Unpack(b); !errors.Is(err, ErrTruncatedMessage) && err == nil {
		t.Errorf("lying ANCOUNT accepted (err=%v)", err)
	}
}

func TestUnpackBadRDataLengths(t *testing.T) {
	mk := func(tp Type, rdata []byte) []byte {
		// Hand-assemble: header with 1 answer, root name.
		b := []byte{0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0}
		b = append(b, 0) // root owner name
		b = append(b, byte(tp>>8), byte(tp))
		b = append(b, 0, 1)        // class IN
		b = append(b, 0, 0, 0, 60) // TTL
		b = append(b, byte(len(rdata)>>8), byte(len(rdata)))
		return append(b, rdata...)
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"A with 3 bytes", mk(TypeA, []byte{1, 2, 3})},
		{"A with 5 bytes", mk(TypeA, []byte{1, 2, 3, 4, 5})},
		{"AAAA with 4 bytes", mk(TypeAAAA, []byte{1, 2, 3, 4})},
		{"MX too short", mk(TypeMX, []byte{0})},
		{"SRV too short", mk(TypeSRV, []byte{0, 1, 0, 2})},
		{"TXT overrun", mk(TypeTXT, []byte{5, 'a'})},
		{"TXT empty", mk(TypeTXT, nil)},
		{"CAA empty", mk(TypeCAA, nil)},
		{"CAA zero tag", mk(TypeCAA, []byte{0, 0})},
		{"SOA truncated", mk(TypeSOA, []byte{0, 0, 0, 0, 0, 1})},
		{"OPT option overrun", mk(TypeOPT, []byte{0, 1, 0, 9, 'x'})},
	}
	for _, c := range cases {
		if _, err := Unpack(c.b); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestUnpackFuzzSafety(t *testing.T) {
	// Unpack must never panic on arbitrary input.
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", b, r)
			}
		}()
		_, _ = Unpack(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackMutatedMessagesNeverPanic(t *testing.T) {
	// Take a valid message and flip every byte through several values;
	// Unpack must return cleanly each time.
	m := NewQuery(3, "www.example.com", TypeA)
	r := m.Reply()
	r.Answers = append(r.Answers, Record{
		Name: "www.example.com", Type: TypeA, Class: ClassIN, TTL: 60,
		Data: &A{Addr: netip.MustParseAddr("10.0.0.1")},
	})
	r.SetEDNS(1232, false)
	good := mustPack(t, r)
	for i := range good {
		for _, v := range []byte{0x00, 0x3F, 0x40, 0x80, 0xC0, 0xFF} {
			b := append([]byte{}, good...)
			b[i] = v
			_, _ = Unpack(b) // must not panic
		}
	}
}

func TestPackRejectsNilRData(t *testing.T) {
	m := &Message{Header: Header{ID: 1}}
	m.Answers = append(m.Answers, Record{Name: "x.", Type: TypeA, Class: ClassIN})
	if _, err := m.Pack(); err == nil {
		t.Error("nil RDATA accepted")
	}
}

func TestPackRejectsBadAddressFamilies(t *testing.T) {
	m := &Message{Header: Header{ID: 1}}
	m.Answers = []Record{{Name: "x.", Type: TypeA, Class: ClassIN,
		Data: &A{Addr: netip.MustParseAddr("2001:db8::1")}}}
	if _, err := m.Pack(); err == nil {
		t.Error("A with IPv6 accepted")
	}
	m.Answers = []Record{{Name: "x.", Type: TypeAAAA, Class: ClassIN,
		Data: &AAAA{Addr: netip.MustParseAddr("1.2.3.4")}}}
	if _, err := m.Pack(); err == nil {
		t.Error("AAAA with IPv4 accepted")
	}
}

func TestPackRoundTripProperty(t *testing.T) {
	// Random well-formed messages survive pack → unpack → pack unchanged.
	f := func(id uint16, n uint8, rd, ra bool) bool {
		m := NewQuery(id, "bench.example.com", TypeA)
		m.Header.RD = rd
		r := m.Reply()
		r.Header.RA = ra
		for i := 0; i < int(n%10); i++ {
			r.Answers = append(r.Answers, Record{
				Name: "bench.example.com", Type: TypeA, Class: ClassIN, TTL: uint32(i),
				Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
			})
		}
		b1, err := r.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(b1)
		if err != nil {
			return false
		}
		b2, err := got.Pack()
		if err != nil {
			return false
		}
		return bytes.Equal(b1, b2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageString(t *testing.T) {
	m := NewQuery(5, "example.com", TypeA)
	r := m.Reply()
	r.Header.RA = true
	r.Answers = append(r.Answers, Record{
		Name: "example.com", Type: TypeA, Class: ClassIN, TTL: 60,
		Data: &A{Addr: netip.MustParseAddr("93.184.216.34")},
	})
	s := r.String()
	for _, want := range []string{"NOERROR", "example.com.", "93.184.216.34", "qr", "ANSWER: 1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTypeClassRCodeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeHTTPS.String() != "HTTPS" {
		t.Error("type names wrong")
	}
	if Type(4242).String() != "TYPE4242" {
		t.Errorf("unknown type = %s", Type(4242))
	}
	if tp, ok := ParseType("AAAA"); !ok || tp != TypeAAAA {
		t.Error("ParseType(AAAA) failed")
	}
	if _, ok := ParseType("NOPE"); ok {
		t.Error("ParseType accepted junk")
	}
	if ClassIN.String() != "IN" || Class(9).String() != "CLASS9" {
		t.Error("class names wrong")
	}
	if RCodeNXDomain.String() != "NXDOMAIN" || RCode(99).String() != "RCODE99" {
		t.Error("rcode names wrong")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(7).String() != "OPCODE7" {
		t.Error("opcode names wrong")
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	f := func(qr, aa, tc, rd, ra, ad, cd bool, op, rc uint8) bool {
		h := Header{
			QR: qr, AA: aa, TC: tc, RD: rd, RA: ra, AD: ad, CD: cd,
			Opcode: Opcode(op & 0xF), RCode: RCode(rc & 0xF),
		}
		return unpackFlags(h.packFlags()) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
