package dnswire

import (
	"net/netip"
	"testing"
)

// Hot-path performance tests: the pooled codec must pack and unpack a
// typical query/response with zero allocations per operation, and the
// benchmarks below feed the CI bench smoke step.

// typicalQuery is the message every probe sends: one question plus an
// EDNS OPT advertising a 1232-byte UDP payload.
func typicalQuery() *Message {
	m := NewQuery(0x1234, "www.example.com.", TypeA)
	m.SetEDNS(1232, false)
	return m
}

// typicalResponse is a CNAME + two A records with an OPT, the common
// shape of a public-resolver answer.
func typicalResponse() *Message {
	m := &Message{
		Header: Header{ID: 0x1234, QR: true, RD: true, RA: true},
		Questions: []Question{
			{Name: "www.example.com.", Type: TypeA, Class: ClassIN},
		},
		Answers: []Record{
			{Name: "www.example.com.", Type: TypeCNAME, Class: ClassIN, TTL: 300,
				Data: &CNAME{Target: "web.example.com."}},
			{Name: "web.example.com.", Type: TypeA, Class: ClassIN, TTL: 300,
				Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})}},
			{Name: "web.example.com.", Type: TypeA, Class: ClassIN, TTL: 300,
				Data: &A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 2})}},
		},
	}
	m.SetEDNS(1232, false)
	return m
}

func mustWire(t testing.TB, m *Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestAppendPackZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  *Message
	}{
		{"query", typicalQuery()},
		{"response", typicalResponse()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, 0, 512)
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				buf, err = tc.msg.AppendPack(buf[:0])
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("AppendPack allocs/op = %v, want 0", allocs)
			}
		})
	}
}

func TestPooledUnpackZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  *Message
	}{
		{"query", typicalQuery()},
		{"response", typicalResponse()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := mustWire(t, tc.msg)
			m := AcquireMessage()
			defer ReleaseMessage(m)
			// Warm the decoder so slice capacities and the intern table
			// reach steady state before measuring.
			for i := 0; i < 4; i++ {
				if err := m.Unpack(wire); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := m.Unpack(wire); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("pooled Unpack allocs/op = %v, want 0", allocs)
			}
		})
	}
}

// TestAppendPackPrefix packs behind a 2-octet length prefix, the DoT/TCP
// framing path: compression offsets must stay message-relative.
func TestAppendPackPrefix(t *testing.T) {
	m := typicalResponse()
	buf, err := m.AppendPack(make([]byte, 2, 512))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(buf[2:])
	if err != nil {
		t.Fatalf("unpack after prefixed pack: %v", err)
	}
	if len(got.Answers) != 3 || got.Answers[0].Name != "www.example.com." {
		t.Fatalf("round trip through prefixed pack mangled message: %+v", got)
	}
}

// TestPooledUnpackReuse checks that a pooled message can decode many
// different messages in sequence without cross-contamination.
func TestPooledUnpackReuse(t *testing.T) {
	q := mustWire(t, typicalQuery())
	r := mustWire(t, typicalResponse())
	m := AcquireMessage()
	defer ReleaseMessage(m)
	for i := 0; i < 8; i++ {
		if err := m.Unpack(q); err != nil {
			t.Fatal(err)
		}
		if len(m.Answers) != 0 || m.Header.QR {
			t.Fatalf("query decode polluted by previous response: %+v", m.Header)
		}
		if err := m.Unpack(r); err != nil {
			t.Fatal(err)
		}
		if len(m.Answers) != 3 || !m.Header.QR {
			t.Fatalf("response decode wrong: %+v", m.Header)
		}
		a, ok := m.Answers[1].Data.(*A)
		if !ok || a.Addr != netip.AddrFrom4([4]byte{192, 0, 2, 1}) {
			t.Fatalf("answer A record wrong: %+v", m.Answers[1].Data)
		}
	}
}

func BenchmarkPack(b *testing.B) {
	m := typicalResponse()
	buf := make([]byte, 0, 512)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = m.AppendPack(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	wire := mustWire(b, typicalResponse())
	m := AcquireMessage()
	defer ReleaseMessage(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}
