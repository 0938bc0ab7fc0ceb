package dnswire

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// FuzzUnpack drives the wire parser with arbitrary bytes; it must never
// panic, and anything it accepts must re-pack and re-parse consistently
// (the parse → pack → parse fixpoint property). Seeds cover real message
// shapes; `go test` runs the seed corpus, `go test -fuzz=FuzzUnpack`
// explores further.
func FuzzUnpack(f *testing.F) {
	seed := func(m *Message) {
		if b, err := m.Pack(); err == nil {
			f.Add(b)
		}
	}
	seed(NewQuery(1, "google.com", TypeA))
	q := NewQuery(2, "www.example.com", TypeAAAA)
	q.SetEDNS(MaxEDNSSize, true)
	seed(q)
	r := NewQuery(3, "amazon.com", TypeA).Reply()
	r.Answers = append(r.Answers,
		Record{Name: "amazon.com", Type: TypeCNAME, Class: ClassIN, TTL: 60,
			Data: &CNAME{Target: "www.amazon.com"}},
		Record{Name: "www.amazon.com", Type: TypeA, Class: ClassIN, TTL: 60,
			Data: &A{Addr: netip.MustParseAddr("52.94.236.248")}})
	r.Authority = append(r.Authority, Record{
		Name: "amazon.com", Type: TypeSOA, Class: ClassIN, TTL: 300,
		Data: &SOA{MName: "ns1.amazon.com.", RName: "root.amazon.com.",
			Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5}})
	seed(r)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1})
	signed := NewQuery(4, "example.com", TypeA).Reply()
	signed.Answers = signedRRs()
	seed(signed)
	for _, rr := range signedRRs() {
		f.Add(oneRR(rr.Type, rr.Data.(*Raw).Data))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		// The pooled decoder must agree with the plain one: same verdict,
		// and an accepted message must repack to the same bytes.
		pm := AcquireMessage()
		defer ReleaseMessage(pm)
		perr := pm.Unpack(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("pooled/plain unpack disagree: plain=%v pooled=%v\ninput: %x", err, perr, data)
		}
		if err != nil {
			return
		}
		pb, pbErr := m.Pack()
		pb2, pb2Err := pm.Pack()
		if (pbErr == nil) != (pb2Err == nil) || (pbErr == nil && !bytes.Equal(pb, pb2)) {
			t.Fatalf("pooled/plain repack disagree:\nplain:  %x (%v)\npooled: %x (%v)", pb, pbErr, pb2, pb2Err)
		}
		// Opaque RDATA is carried verbatim: a Raw record holds the octets
		// it arrived in, on either decoder.
		in := rdatas(data)
		for _, dm := range []*Message{m, pm} {
			for i, rr := range records(dm) {
				if raw, ok := rr.Data.(*Raw); ok && !bytes.Equal(raw.Data, in[i]) {
					t.Fatalf("%v record %d: Raw %x, wire RDATA %x", rr.Type, i, raw.Data, in[i])
				}
			}
		}
		repacked, err := m.Pack()
		if err != nil {
			// Some parses are not re-encodable (e.g. counts the packer
			// cannot reproduce); that is acceptable as long as nothing
			// panicked.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message does not parse: %v\noriginal: %x\nrepacked: %x", err, data, repacked)
		}
		// A Raw record also repacks to the octets it arrived in.
		out := rdatas(repacked)
		for i, rr := range records(m) {
			if _, ok := rr.Data.(*Raw); ok && !bytes.Equal(out[i], in[i]) {
				t.Fatalf("%v record %d repacked as %x, arrived as %x", rr.Type, i, out[i], in[i])
			}
		}
		b3, err := m2.Pack()
		if err != nil {
			t.Fatalf("second pack failed: %v", err)
		}
		if !bytes.Equal(repacked, b3) {
			t.Fatalf("pack not a fixpoint:\nfirst:  %x\nsecond: %x", repacked, b3)
		}
	})
}

// rdatas returns the RDATA of every record of a message Unpack accepts, in
// wire order: answer, authority, then additional section.
func rdatas(msg []byte) [][]byte {
	var out [][]byte
	off := 12
	for i := 0; i < int(binary.BigEndian.Uint16(msg[4:])); i++ {
		_, off, _ = readName(msg, off)
		off += 4
	}
	n := int(binary.BigEndian.Uint16(msg[6:])) + int(binary.BigEndian.Uint16(msg[8:])) +
		int(binary.BigEndian.Uint16(msg[10:]))
	for i := 0; i < n; i++ {
		_, off, _ = readName(msg, off)
		rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
		off += 10
		out = append(out, msg[off:off+rdlen])
		off += rdlen
	}
	return out
}

// records is m's answer, authority and additional records, in wire order.
func records(m *Message) []Record {
	return append(append(append([]Record(nil), m.Answers...), m.Authority...), m.Additional...)
}

// FuzzReadName drives the name decoder alone, where the compression
// pointer logic lives.
func FuzzReadName(f *testing.F) {
	b, _ := appendName(nil, "www.example.com", nil)
	f.Add(b, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Add([]byte{3, 'c', 'o', 'm', 0}, 0)
	f.Fuzz(func(t *testing.T, data []byte, off int) {
		if off < 0 || off > len(data) {
			return
		}
		name, end, err := readName(data, off)
		if err != nil {
			return
		}
		if end < off || end > len(data) {
			t.Fatalf("end %d out of range [%d, %d]", end, off, len(data))
		}
		if err := ValidateName(name); err != nil && name != "." {
			t.Fatalf("decoder produced invalid name %q: %v", name, err)
		}
	})
}

// FuzzNameRoundTrip checks the presentation ↔ wire name codec both ways:
// any name that encodes must decode back to its canonical form, and that
// canonical form must re-encode to the identical wire bytes (fixpoint).
// Escaped labels (RFC 4343) are the interesting corner.
func FuzzNameRoundTrip(f *testing.F) {
	f.Add("www.example.com")
	f.Add(".")
	f.Add("a.b.c.d.e.f.g.h")
	f.Add(`ex\.ample.com`)
	f.Add(`wei\\rd.example`)
	f.Add(`\000\255.example`)
	f.Add("UPPER.Case.Example.COM.")
	f.Fuzz(func(t *testing.T, name string) {
		wire, err := appendName(nil, name, nil)
		if err != nil {
			return
		}
		decoded, end, err := readName(wire, 0)
		if err != nil {
			t.Fatalf("encoded name %q does not decode: %v\nwire: %x", name, err, wire)
		}
		if end != len(wire) {
			t.Fatalf("decode of %q consumed %d of %d bytes", name, end, len(wire))
		}
		wire2, err := appendName(nil, decoded, nil)
		if err != nil {
			t.Fatalf("decoded form %q of %q does not re-encode: %v", decoded, name, err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("name round trip not a fixpoint for %q:\nfirst:  %x (via %q)\nsecond: %x", name, wire, decoded, wire2)
		}
		decoded2, _, err := readName(wire2, 0)
		if err != nil || decoded2 != decoded {
			t.Fatalf("canonical form unstable: %q → %q (%v)", decoded, decoded2, err)
		}
	})
}
