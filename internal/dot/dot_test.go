package dot

import (
	"bytes"
	"context"
	"crypto/tls"
	"net"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/testutil"
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
	srv := &Server{DNS: inner, TLS: srvTLS}
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

// ask exchanges one google.com. A query with server.
func ask(c *Client, server string) (*dnswire.Message, error) {
	return c.Exchange(context.Background(), dnswire.NewQuery(dns53.NewID(), "google.com", dnswire.TypeA), server)
}

// poolCounts is a reading of the transport_dot_pool_* series.
type poolCounts struct {
	hits, misses, evictions uint64
	idle                    int64
}

func readPool(t *testing.T) poolCounts {
	t.Helper()
	return poolCounts{
		hits:      testutil.CounterValue(t, "transport_dot_pool_hits_total"),
		misses:    testutil.CounterValue(t, "transport_dot_pool_misses_total"),
		evictions: testutil.CounterValue(t, "transport_dot_pool_evictions_total"),
		idle:      poolIdle.Value(),
	}
}

// since is the change from an earlier reading.
func (p poolCounts) since(before poolCounts) poolCounts {
	return poolCounts{p.hits - before.hits, p.misses - before.misses, p.evictions - before.evictions, p.idle - before.idle}
}

func TestDoTQuery(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	c := &Client{TLS: cliTLS}
	resp, err := ask(c, addr)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestDoTUntrustedCertRejected(t *testing.T) {
	addr, _ := startDoT(t, static())
	// Client with empty root pool trusts nothing.
	c := &Client{TLS: &tls.Config{RootCAs: nil, ServerName: "dot.test"}}
	_, err := ask(c, addr)
	if err == nil {
		t.Fatal("untrusted certificate accepted")
	}
}

func TestDoTReuse(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	c := &Client{TLS: cliTLS, Reuse: true}
	defer c.Close()
	for i := 0; i < 5; i++ {
		resp, err := ask(c, addr)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("query %d: answers = %d", i, len(resp.Answers))
		}
	}
}

func TestDoTReuseSurvivesServerClosingConn(t *testing.T) {
	// Short server read timeout kills idle connections; the client's
	// cached connection then fails and it must transparently redial.
	ca, _ := certs.NewCA(0)
	srvTLS, _ := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	inner := &dns53.Server{Handler: static(), ReadTimeout: 50 * time.Millisecond}
	srv := &Server{DNS: inner, TLS: srvTLS}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(ln)
	defer ln.Close()
	defer inner.Shutdown()

	c := &Client{TLS: ca.ClientConfig("127.0.0.1"), Reuse: true}
	defer c.Close()
	before := readPool(t)
	if _, err := ask(c, ln.Addr().String()); err != nil {
		t.Fatalf("first query: %v", err)
	}
	time.Sleep(150 * time.Millisecond) // server read deadline passes
	if _, err := ask(c, ln.Addr().String()); err != nil {
		t.Fatalf("query after idle close: %v", err)
	}
	// The dead cached connection is an eviction, not a hit, and the redial
	// a second miss.
	if d := readPool(t).since(before); d.hits != 0 || d.misses != 2 || d.evictions != 1 || d.idle != 1 {
		t.Errorf("pool deltas = %+v, want 0 hits, 2 misses, 1 eviction, 1 idle", d)
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
	c := &Client{Timeout: 100 * time.Millisecond, TLS: &tls.Config{InsecureSkipVerify: true}}
	start := time.Now()
	_, err = ask(c, ln.Addr().String())
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
	c := &Client{TLS: cfg}
	if _, err := ask(c, addr); err != nil {
		t.Fatalf("query with inferred server name: %v", err)
	}
}

func TestDoTServerRequiresTLSConfig(t *testing.T) {
	srv := &Server{DNS: &dns53.Server{Handler: static()}}
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve without TLS config succeeded")
	}
}

func TestDoTClientCloseIdempotent(t *testing.T) {
	c := &Client{}
	if err := c.Close(); err != nil {
		t.Errorf("close empty client: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestDoTPoolStatsCounters(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	c := &Client{TLS: cliTLS, Reuse: true}
	defer c.Close()
	before := readPool(t)
	for i := 0; i < 3; i++ {
		if _, err := ask(c, addr); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if d := readPool(t).since(before); d.misses != 1 || d.hits != 2 || d.idle != 1 || d.evictions != 0 {
		t.Errorf("pool deltas = %+v, want 1 miss, 2 hits, 1 idle, 0 evictions", d)
	}
}

func TestDoTPoolBoundedEviction(t *testing.T) {
	// One server more than the cache holds: the last dial evicts the least
	// recently used session, so the first server dials again and evicts
	// the next oldest.
	addrs := make([]string, maxIdleConns+1)
	for i := range addrs {
		addrs[i], _ = startDoT(t, static())
	}
	// One CA per startDoT call; trust them all by skipping verification.
	c := &Client{TLS: &tls.Config{InsecureSkipVerify: true}, Reuse: true}
	defer c.Close()
	before := readPool(t)
	for i, addr := range append(addrs, addrs[0]) {
		if _, err := ask(c, addr); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	d := readPool(t).since(before)
	if d.idle != maxIdleConns {
		t.Errorf("idle = %d, want the bound of %d", d.idle, maxIdleConns)
	}
	if d.evictions != 2 || d.misses != maxIdleConns+2 || d.hits != 0 {
		t.Errorf("pool deltas = %+v, want %d misses, 0 hits, 2 evictions", d, maxIdleConns+2)
	}
}

func TestDoTPoolStaleEviction(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	clock := time.Now()
	c := &Client{TLS: cliTLS, Reuse: true}
	c.now = func() time.Time { return clock }
	defer c.Close()
	before := readPool(t)
	if _, err := ask(c, addr); err != nil {
		t.Fatal(err)
	}
	if d := readPool(t).since(before); d.idle != 1 {
		t.Fatalf("idle = %d after first query", d.idle)
	}
	// The cached session goes stale, so the next query evicts it and
	// dials fresh.
	clock = clock.Add(idleTimeout + time.Minute)
	if _, err := ask(c, addr); err != nil {
		t.Fatal(err)
	}
	if d := readPool(t).since(before); d.evictions != 1 || d.hits != 0 || d.misses != 2 || d.idle != 1 {
		t.Errorf("pool deltas = %+v, want 2 misses, 0 hits, 1 eviction, 1 idle", d)
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
	go func() { served <- (&Server{DNS: inner, TLS: srvTLS}).Serve(ln) }()

	c := &Client{TLS: ca.ClientConfig("127.0.0.1"), Reuse: true}
	defer c.Close()
	if _, err := ask(c, ln.Addr().String()); err != nil {
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
