package dns53

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/dnswire"
	"encdns/internal/testutil"
)

// startServer launches a Server with the handler on loopback UDP and TCP,
// returning the address (same port is not guaranteed between the two, so
// both are returned) and a shutdown func.
func startServer(t *testing.T, h Handler) (udpAddr, tcpAddr string, srv *Server) {
	t.Helper()
	srv = &Server{Handler: h}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen tcp: %v", err)
	}
	go srv.ServeUDP(pc)
	go srv.ServeTCP(ln)
	t.Cleanup(srv.Shutdown)
	return pc.LocalAddr().String(), ln.Addr().String(), srv
}

func staticHandler() Handler {
	z := authdns.NewZone(".")
	z.AddA("google.com.", 300, netip.MustParseAddr("142.250.1.100"))
	z.AddA("wikipedia.com.", 300, netip.MustParseAddr("208.80.154.224"))
	z.AddA("wikipedia.com.", 300, netip.MustParseAddr("2620:0:861:ed1a::1"))
	return z
}

// exchange asks q of server over network, "udp" or "tcp", on a
// connection of its own with this package's exchange functions, and
// checks the answer.
func exchange(network, server string, q *dnswire.Message) (*dnswire.Message, error) {
	conn, err := net.DialTimeout(network, server, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	var resp *dnswire.Message
	if network == "udp" {
		resp, err = ExchangeUDP(conn, q, wire)
	} else {
		resp, err = ExchangeConn(conn, wire)
	}
	if err != nil {
		return nil, err
	}
	return resp, CheckResponse(q, resp)
}

// ask exchanges one query for name and type with server over UDP.
func ask(server, name string, t dnswire.Type) (*dnswire.Message, error) {
	return exchange("udp", server, dnswire.NewQuery(NewID(), name, t))
}

func TestUDPQuery(t *testing.T) {
	udp, _, _ := startServer(t, staticHandler())
	resp, err := ask(udp, "google.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	a := resp.Answers[0].Data.(*dnswire.A)
	if a.Addr.String() != "142.250.1.100" {
		t.Errorf("addr = %v", a.Addr)
	}
}

func TestUDPNXDomain(t *testing.T) {
	udp, _, _ := startServer(t, staticHandler())
	resp, err := ask(udp, "nonexistent.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", resp.Header.RCode)
	}
}

func TestTCPQuery(t *testing.T) {
	_, tcp, _ := startServer(t, staticHandler())
	resp, err := exchange("tcp", tcp, dnswire.NewQuery(NewID(), "google.com", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	_, tcp, _ := startServer(t, staticHandler())
	conn, err := net.Dial("tcp", tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		wire, err := dnswire.NewQuery(NewID(), "google.com", dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ExchangeConn(conn, wire)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("query %d answers = %d", i, len(resp.Answers))
		}
	}
}

func TestAAAAQuery(t *testing.T) {
	udp, _, _ := startServer(t, staticHandler())
	resp, err := ask(udp, "wikipedia.com", dnswire.TypeAAAA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	aaaa := resp.Answers[0].Data.(*dnswire.AAAA)
	if aaaa.Addr.String() != "2620:0:861:ed1a::1" {
		t.Errorf("addr = %v", aaaa.Addr)
	}
}

func TestEDNSRaisesUDPLimit(t *testing.T) {
	// ~30 TXT answers ≈ 1.7 KB: over 512 but under a 4096 EDNS buffer, so
	// with EDNS the answer arrives over UDP un-truncated.
	big := testutil.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		for i := 0; i < 30; i++ {
			r.Answers = append(r.Answers, dnswire.Record{
				Name: "txt.example.", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60,
				Data: &dnswire.TXT{Strings: []string{strings.Repeat("y", 50)}},
			})
		}
		return r, nil
	})
	udp, _, _ := startServer(t, big)
	q := dnswire.NewQuery(NewID(), "txt.example", dnswire.TypeTXT)
	q.SetEDNS(4096, false)
	resp, err := exchange("udp", udp, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.TC || len(resp.Answers) != 30 {
		t.Errorf("TC=%v answers=%d, want full UDP answer", resp.Header.TC, len(resp.Answers))
	}
}

func TestServerAnswersServfailOnHandlerError(t *testing.T) {
	h := testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, errors.New("boom")
	})
	udp, _, _ := startServer(t, h)
	resp, err := ask(udp, "any.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", resp.Header.RCode)
	}
}

func TestServerContainsHandlerPanic(t *testing.T) {
	h := testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		panic("handler bug")
	})
	udp, _, _ := startServer(t, h)
	resp, err := ask(udp, "any.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL after panic", resp.Header.RCode)
	}
}

func TestServerIgnoresGarbageUDP(t *testing.T) {
	udp, _, _ := startServer(t, staticHandler())
	conn, err := net.Dial("udp", udp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not dns")); err != nil {
		t.Fatal(err)
	}
	// Server must survive; a real query afterwards still works.
	if _, err := ask(udp, "google.com", dnswire.TypeA); err != nil {
		t.Fatalf("query after garbage: %v", err)
	}
}

func TestServerIgnoresGarbageTCP(t *testing.T) {
	_, tcp, _ := startServer(t, staticHandler())
	conn, err := net.Dial("tcp", tcp)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte{0, 3, 'b', 'a', 'd'})
	conn.Close()
	if _, err := exchange("tcp", tcp, dnswire.NewQuery(NewID(), "google.com", dnswire.TypeA)); err != nil {
		t.Fatalf("query after garbage: %v", err)
	}
}

// TestServerDropsResponses: a message with QR set is no query. Over UDP it
// is dropped and counted as malformed — two servers that answered each
// other's answers would loop on one spoofed packet — and a stream that
// carries one is closed.
func TestServerDropsResponses(t *testing.T) {
	udp, tcp, _ := startServer(t, staticHandler())
	response := func(id uint16) []byte {
		q := dnswire.NewQuery(id, "google.com.", dnswire.TypeA)
		q.Header.QR = true
		wire, err := q.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	conn, err := net.Dial("udp", udp)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	malformed := serverMalformed.Value()
	query, err := dnswire.NewQuery(0x5252, "google.com.", dnswire.TypeA).AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The response goes first: its answer, if any, arrives first too.
	for _, d := range [][]byte{response(0x5151), query} {
		if _, err := conn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := dnswire.Unpack(buf[:n]); err != nil || m.Header.ID != 0x5252 {
		t.Fatalf("first datagram back: %v, %v; want the answer to query 0x5252, the response unanswered", m, err)
	}
	if got := serverMalformed.Value() - malformed; got != 1 {
		t.Fatalf("dns53_server_malformed_total moved by %d, want 1", got)
	}

	stream, err := net.Dial("tcp", tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	_ = stream.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteTCPMsg(stream, response(0x5353)); err != nil {
		t.Fatal(err)
	}
	if resp, err := ReadTCPMsg(stream); err == nil {
		t.Fatalf("TCP answered a response with %x, want the connection closed", resp)
	}
}

func TestClientIgnoresMismatchedID(t *testing.T) {
	// A fake server that first sends a response with the wrong ID, then
	// the right one; the UDP exchange must skip the first.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 4096)
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(buf[:n])
		if err != nil {
			return
		}
		bad := q.Reply()
		bad.Header.ID ^= 0xFFFF
		badWire, _ := bad.Pack()
		_, _ = pc.WriteTo(badWire, from)
		good := q.Reply()
		goodWire, _ := good.Pack()
		_, _ = pc.WriteTo(goodWire, from)
	}()
	resp, err := ask(pc.LocalAddr().String(), "example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp == nil || !resp.Header.QR {
		t.Error("no valid response")
	}
}

// TestCheckResponseWithoutQuestion: a reply that drops the question may
// end an exchange only as an error that speaks about no name. NOERROR and
// NXDOMAIN without the question would let a reply assert anything about
// a name the query never asked for.
func TestCheckResponseWithoutQuestion(t *testing.T) {
	query := dnswire.NewQuery(7, "innocent.example.", dnswire.TypeA)
	for rcode, want := range map[dnswire.RCode]error{
		dnswire.RCodeFormat:   nil,
		dnswire.RCodeServFail: nil,
		dnswire.RCodeNotImpl:  nil,
		dnswire.RCodeRefused:  nil,
		dnswire.RCodeSuccess:  ErrQuestionMismatch,
		dnswire.RCodeNXDomain: ErrQuestionMismatch,
	} {
		resp := query.Reply()
		resp.Questions = nil
		resp.Header.RCode = rcode
		if got := CheckResponse(query, resp); got != want {
			t.Errorf("question-less %v: %v, want %v", rcode, got, want)
		}
	}
}

func TestFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte{1, 2, 3, 4, 5}
	if err := WriteTCPMsg(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTCPMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("round trip = %v", got)
	}
}

func TestFramingZeroLength(t *testing.T) {
	if _, err := ReadTCPMsg(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Error("zero-length frame accepted")
	}
}

func TestFramingShortRead(t *testing.T) {
	if _, err := ReadTCPMsg(bytes.NewReader([]byte{0, 5, 1, 2})); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := ReadTCPMsg(bytes.NewReader([]byte{0})); err == nil {
		t.Error("short prefix accepted")
	}
}

func TestFramingTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTCPMsg(&buf, make([]byte, dnswire.MaxMessageSize+1)); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestNewIDVaries(t *testing.T) {
	seen := make(map[uint16]bool)
	for i := 0; i < 100; i++ {
		seen[NewID()] = true
	}
	if len(seen) < 50 {
		t.Errorf("only %d distinct IDs in 100 draws", len(seen))
	}
}

func TestShutdownUnblocksServe(t *testing.T) {
	srv := &Server{Handler: staticHandler()}
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	errs := make(chan error, 2)
	go func() { errs <- srv.ServeUDP(pc) }()
	go func() { errs <- srv.ServeTCP(ln) }()
	time.Sleep(20 * time.Millisecond)
	srv.Shutdown()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("serve returned %v after shutdown", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("serve did not return after shutdown")
		}
	}
	// Serving after shutdown refuses.
	pc2, _ := net.ListenPacket("udp", "127.0.0.1:0")
	if err := srv.ServeUDP(pc2); err == nil {
		t.Error("ServeUDP after shutdown succeeded")
	}
}
