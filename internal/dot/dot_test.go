package dot_test

import (
	"bytes"
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/dot"
	"encdns/internal/obs"
	"encdns/internal/transport"
)

// startDoT stands up a DoT server over a fresh CA and returns the address,
// a trusting client config, and a cleanup registration.
func startDoT(t *testing.T, h dns53.Handler) (addr string, clientTLS *tls.Config) {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig([]string{"dot.test"}, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: h}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		inner.Shutdown()
	})
	return ln.Addr().String(), ca.ClientConfig("dot.test")
}

func static() dns53.Handler {
	z := authdns.NewZone(".")
	z.AddA("google.com.", 300, netip.MustParseAddr("142.250.1.100"))
	return z
}

// ask exchanges one google.com. A query with the DoT server at addr in
// one attempt of transport's tls:// client, which dials afresh for it.
func ask(addr string, opts transport.Options) (*dnswire.Message, error) {
	noRetry := transport.NoRetry()
	opts.Retry = &noRetry
	ex, err := transport.Dial("tls://"+addr, opts)
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	return ex.Exchange(context.Background(), dnswire.NewQuery(dns53.NewID(), "google.com", dnswire.TypeA))
}

func TestDoTQuery(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	resp, err := ask(addr, transport.Options{TLS: cliTLS})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestDoTUntrustedCertRejected(t *testing.T) {
	addr, _ := startDoT(t, static())
	// A client with the system roots trusts no test CA.
	_, err := ask(addr, transport.Options{TLS: &tls.Config{RootCAs: nil, ServerName: "dot.test"}})
	if err == nil {
		t.Fatal("untrusted certificate accepted")
	}
}

// dialDoT opens a test-side TLS connection to addr, handshaken.
func dialDoT(t *testing.T, addr string, cfg *tls.Config) *tls.Conn {
	t.Helper()
	conn, err := tls.Dial("tcp", addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// askOn exchanges one google.com. A query on conn.
func askOn(conn *tls.Conn) (*dnswire.Message, error) {
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	q := dnswire.NewQuery(dns53.NewID(), "google.com", dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	resp, err := dns53.ExchangeConn(conn, wire)
	if err != nil {
		return nil, err
	}
	return resp, dns53.CheckResponse(q, resp)
}

// TestDoTReuse: the server answers query after query on one connection,
// as RFC 7858 §3.4 asks of it.
func TestDoTReuse(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	conn := dialDoT(t, addr, cliTLS)
	for i := 0; i < 5; i++ {
		resp, err := askOn(conn)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("query %d: answers = %d", i, len(resp.Answers))
		}
	}
}

// TestDoTReuseSurvivesServerClosingConn: the server's ReadTimeout closes
// a connection left idle, and a client query after it dials afresh and
// is answered.
func TestDoTReuseSurvivesServerClosingConn(t *testing.T) {
	ca, _ := certs.NewCA(0)
	srvTLS, _ := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	inner := &dns53.Server{Handler: static(), ReadTimeout: 50 * time.Millisecond}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(ln)
	defer ln.Close()
	defer inner.Shutdown()

	conn := dialDoT(t, ln.Addr().String(), ca.ClientConfig("127.0.0.1"))
	if _, err := askOn(conn); err != nil {
		t.Fatalf("first query: %v", err)
	}
	// Idle past the read timeout: the server hangs up.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle connection read %d octets, %v; want EOF", n, err)
	}
	if _, err := ask(ln.Addr().String(), transport.Options{TLS: ca.ClientConfig("127.0.0.1")}); err != nil {
		t.Fatalf("query after idle close: %v", err)
	}
}

func TestDoTTimeout(t *testing.T) {
	// TCP listener that accepts but never handshakes.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	start := time.Now()
	_, err = ask(ln.Addr().String(), transport.Options{Timeout: 100 * time.Millisecond, TLS: &tls.Config{InsecureSkipVerify: true}})
	if err == nil {
		t.Fatal("expected handshake timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout not enforced")
	}
}

func TestDoTServerNameInferred(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	// Clear ServerName; client should infer the host part (127.0.0.1,
	// which the cert carries as an IP SAN).
	cfg := cliTLS.Clone()
	cfg.ServerName = ""
	if _, err := ask(addr, transport.Options{TLS: cfg}); err != nil {
		t.Fatalf("query with inferred server name: %v", err)
	}
}

func TestDoTServerRequiresTLSConfig(t *testing.T) {
	srv := &dot.Server{DNS: &dns53.Server{Handler: static()}}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve without TLS config succeeded")
	}
}

// TestShutdownStopsServe: the DoT listener belongs to the dns53 server it
// was handed to, so Shutdown closes it, drops a live idle connection, and
// Serve returns nil.
func TestShutdownStopsServe(t *testing.T) {
	ca, _ := certs.NewCA(0)
	srvTLS, _ := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	inner := &dns53.Server{Handler: static()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- (&dot.Server{DNS: inner, TLS: srvTLS}).Serve(ln) }()

	if _, err := askOn(dialDoT(t, ln.Addr().String(), ca.ClientConfig("127.0.0.1"))); err != nil {
		t.Fatal(err)
	}
	shut := make(chan struct{})
	go func() { inner.Shutdown(); close(shut) }()
	select {
	case <-shut:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hangs with an idle DoT connection open")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after Shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still accepting after Shutdown")
	}
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepts after Shutdown")
	}
}

// echoHits answers every query on the dns53 fast path: header and
// question echoed, no records.
type echoHits struct{ dns53.Handler }

func (echoHits) AppendResponse(dst []byte, q *dnswire.Message, rawQ []byte) ([]byte, int64, bool) {
	flags := dnswire.Header{QR: true, RD: q.Header.RD}.Flags()
	return append(dnswire.AppendRawHeader(dst, q.Header.ID, flags, 1, 0, 0, 0), rawQ...), -1, true
}

// TestDoTPipelinedBurst: 32 queries sent in one TLS record come back in
// order from one write of the stream loop.
func TestDoTPipelinedBurst(t *testing.T) {
	addr, cliTLS := startDoT(t, echoHits{static()})
	cliTLS.DynamicRecordSizingDisabled = true // or the first records are cut to one TCP segment
	conn, err := tls.Dial("tcp", addr, cliTLS)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var burst bytes.Buffer
	for id := uint16(0); id < 32; id++ {
		wire, err := dnswire.NewQuery(id, "google.com.", dnswire.TypeA).AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		_ = dns53.WriteTCPMsg(&burst, wire)
	}
	writes := obs.Default().Counter("dns53_stream_writes_total", "")
	queries := obs.Default().Counter("dns53_stream_queries_total", "")
	w0, q0 := writes.Value(), queries.Value()
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for id := uint16(0); id < 32; id++ {
		msg, err := dns53.ReadTCPMsg(conn)
		if err != nil {
			t.Fatalf("answer %d: %v", id, err)
		}
		if got := uint16(msg[0])<<8 | uint16(msg[1]); got != id {
			t.Fatalf("answer %d carries ID %d", id, got)
		}
	}
	if dw, dq := writes.Value()-w0, queries.Value()-q0; dw != 1 || dq != 32 {
		t.Errorf("stream loop: %d writes for %d queries, want 1 for 32", dw, dq)
	}
}
