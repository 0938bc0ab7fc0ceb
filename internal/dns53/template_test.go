// End-to-end coverage of the wire-template fast path through the real
// server frontends. This is an external test package: the cache-backed
// handlers live in internal/resolver, which depends on internal/transport
// and therefore (indirectly) on dns53 itself, so an in-package test would
// form an import cycle.
package dns53_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/resolver"
)

// warmForwarder returns a cache-backed handler holding one A RRset for
// www.example.com. — a Forwarder with no upstreams, so any fallback past
// the cache fails loudly rather than silently resolving.
func warmForwarder() *resolver.Forwarder {
	c := resolver.NewCache(256, nil)
	c.PutRRset("www.example.com.", dnswire.TypeA, []dnswire.Record{{
		Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}})
	return &resolver.Forwarder{Cache: c}
}

// mixedCaseQuery packs an A query and rewrites its question labels to
// WwW.eXaMpLe alternating case, returning the wire and the byte range of
// the question section.
func mixedCaseQuery(t testing.TB, id uint16) (wire []byte, question []byte) {
	t.Helper()
	q := dnswire.NewQuery(id, "www.example.com.", dnswire.TypeA)
	wire, err := q.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	upper := false
	off := 12
	for wire[off] != 0 {
		n := int(wire[off])
		off++
		for i := 0; i < n; i++ {
			if c := wire[off+i]; c >= 'a' && c <= 'z' && upper {
				wire[off+i] = c - 'a' + 'A'
			}
			upper = !upper
		}
		off += n
	}
	return wire, wire[12 : off+5]
}

// checkTemplateResponse asserts resp is the template-served answer for
// the mixed-case query: same ID, the question echoed byte-for-byte in
// the client's spelling (the materialize path would re-pack it
// lowercase), and the cached A record present.
func checkTemplateResponse(t *testing.T, resp []byte, id uint16, question []byte) {
	t.Helper()
	if len(resp) < 12+len(question) {
		t.Fatalf("short response: %d bytes", len(resp))
	}
	if got := binary.BigEndian.Uint16(resp); got != id {
		t.Fatalf("response ID = %d, want %d", got, id)
	}
	if got := resp[12 : 12+len(question)]; !bytes.Equal(got, question) {
		t.Fatalf("question not echoed in client case:\n got %x\nwant %x", got, question)
	}
	m, err := dnswire.Unpack(resp)
	if err != nil {
		t.Fatalf("response does not parse: %v", err)
	}
	if m.Header.RCode != dnswire.RCodeSuccess || len(m.Answers) != 1 {
		t.Fatalf("rcode=%v answers=%d", m.Header.RCode, len(m.Answers))
	}
	if a, ok := m.Answers[0].Data.(*dnswire.A); !ok || a.Addr.String() != "192.0.2.1" {
		t.Fatalf("answer = %v", m.Answers[0])
	}
}

// TestTemplateServedOverUDP drives the full UDP pipeline — batched
// receive, miss dispatch, template append into the batch writer — with
// a raw socket so the mixed-case question bytes survive untouched.
func TestTemplateServedOverUDP(t *testing.T) {
	srv := &dns53.Server{Handler: warmForwarder()}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	t.Cleanup(srv.Shutdown)

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, question := mixedCaseQuery(t, 0x1234)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	checkTemplateResponse(t, buf[:n], 0x1234, question)
}

// TestTemplateServedOverTCP drives the stream path (shared by DoT via
// ServeStream): the template packs straight behind the two-octet length
// prefix.
func TestTemplateServedOverTCP(t *testing.T) {
	srv := &dns53.Server{Handler: warmForwarder()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(ln)
	t.Cleanup(srv.Shutdown)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wire, question := mixedCaseQuery(t, 0x4321)
	frame := make([]byte, 2+len(wire))
	binary.BigEndian.PutUint16(frame, uint16(len(wire)))
	copy(frame[2:], wire)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [2]byte
	if _, err := readFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint16(hdr[:]))
	if _, err := readFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	checkTemplateResponse(t, resp, 0x4321, question)
}

func readFull(conn net.Conn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := conn.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestTemplateUDPTruncation forces a template response over the UDP
// limit: the server must shrink it to header+question with TC set, and
// the client's spelling still echoes.
func TestTemplateUDPTruncation(t *testing.T) {
	f := warmForwarder()
	var rrs []dnswire.Record
	for i := 0; i < 40; i++ {
		rrs = append(rrs, dnswire.Record{
			Name: "big.example.com.", Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
			TTL: 300, Data: &dnswire.TXT{Strings: []string{string(make([]byte, 40))}}})
	}
	f.Cache.PutRRset("big.example.com.", dnswire.TypeTXT, rrs)

	srv := &dns53.Server{Handler: f}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	t.Cleanup(srv.Shutdown)

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(5, "big.example.com.", dnswire.TypeTXT)
	wire, err := q.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n > dnswire.MaxUDPSize {
		t.Fatalf("truncated response still %d bytes", n)
	}
	m, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.TC || len(m.Answers) != 0 {
		t.Fatalf("TC=%v answers=%d, want truncated empty answer", m.Header.TC, len(m.Answers))
	}
}
