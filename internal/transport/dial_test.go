package transport

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/dot"
)

func staticHandler() dns53.Handler {
	return dns53.Static(map[string][]net.IP{
		"example.com.": {net.ParseIP("192.0.2.1")},
	})
}

func startUDP(t *testing.T) string {
	t.Helper()
	srv := &dns53.Server{Handler: staticHandler()}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	t.Cleanup(srv.Shutdown)
	return pc.LocalAddr().String()
}

func startTCP(t *testing.T) string {
	t.Helper()
	srv := &dns53.Server{Handler: staticHandler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(ln)
	t.Cleanup(srv.Shutdown)
	return ln.Addr().String()
}

func startTLS(t *testing.T) (addr string, ca *certs.CA) {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: staticHandler()}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })
	return ln.Addr().String(), ca
}

func startHTTPS(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: staticHandler()})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func checkAnswer(t *testing.T, resp *dnswire.Message, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.String() != "192.0.2.1" {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func exchangeQuery(t *testing.T, ex Exchanger) {
	t.Helper()
	q := dnswire.NewQuery(dns53.NewID(), "example.com", dnswire.TypeA)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := ex.Exchange(ctx, q)
	checkAnswer(t, resp, err)
}

// TestDialEveryScheme runs one real exchange per scheme against
// in-process servers — the factory's protocol selection end to end.
func TestDialEverySchemeUDP(t *testing.T) {
	ex, err := Dial("udp://"+startUDP(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	exchangeQuery(t, ex)
}

func TestDialEverySchemeTCP(t *testing.T) {
	ex, err := Dial("tcp://"+startTCP(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	exchangeQuery(t, ex)
}

func TestDialEverySchemeTLS(t *testing.T) {
	addr, ca := startTLS(t)
	ex, err := Dial("tls://"+addr, Options{TLS: ca.ClientConfig("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	exchangeQuery(t, ex)
}

func TestDialEverySchemeHTTPS(t *testing.T) {
	ts := startHTTPS(t)
	ex, err := Dial(ts.URL+doh.DefaultPath, Options{HTTPClient: ts.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	exchangeQuery(t, ex)
}

func TestDialBadEndpoint(t *testing.T) {
	if _, err := Dial("gopher://example.com", Options{}); err == nil {
		t.Error("bad scheme dialled")
	}
}

// flakyDialer fails its first N dials, then delegates — the transport
// fault the shared retry policy exists to absorb.
type flakyDialer struct {
	failures atomic.Int32
	inner    net.Dialer
}

func (d *flakyDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	if d.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "dial", Net: network, Err: context.DeadlineExceeded}
	}
	return d.inner.DialContext(ctx, network, address)
}

// TestRetryParityAcrossSchemes is the parity satellite: DoT and DoH go
// through the same retry middleware as Do53, so a transient dial
// failure recovers on every scheme rather than only on udp.
func TestRetryParityAcrossSchemes(t *testing.T) {
	noSleep := func(context.Context, time.Duration) error { return nil }

	t.Run("tls", func(t *testing.T) {
		addr, ca := startTLS(t)
		fd := &flakyDialer{}
		fd.failures.Store(1)
		ex, err := Dial("tls://"+addr, Options{
			TLS:    ca.ClientConfig("127.0.0.1"),
			Dialer: fd,
			Retry:  &RetryPolicy{MaxAttempts: 3, Sleep: noSleep},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		exchangeQuery(t, ex)
	})

	t.Run("udp", func(t *testing.T) {
		fd := &flakyDialer{}
		fd.failures.Store(1)
		ex, err := Dial("udp://"+startUDP(t), Options{
			Dialer: fd,
			Retry:  &RetryPolicy{MaxAttempts: 3, Sleep: noSleep},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		exchangeQuery(t, ex)
	})
}

func TestPoolReusesExchangerPerEndpoint(t *testing.T) {
	addr := startUDP(t)
	p := NewPool(Options{})
	defer p.Close()
	a, err := p.Get("udp://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	// The same endpoint in a different spelling hits the same exchanger:
	// the canonical string is the cache key.
	b, err := p.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("pool dialled twice for one endpoint")
	}
	q := dnswire.NewQuery(dns53.NewID(), "example.com", dnswire.TypeA)
	resp, err := p.Exchange(context.Background(), q, "udp://"+addr)
	checkAnswer(t, resp, err)
	if _, err := p.Get("gopher://x"); err == nil {
		t.Error("pool dialled a bad endpoint")
	}
}

// TestPoolStatsThroughMiddleware exercises the satellite instrumentation
// path: the DoT connection cache's counters surface through the retry
// middleware, the Stats unwrapper, and the pool aggregate.
func TestPoolStatsThroughMiddleware(t *testing.T) {
	addr, ca := startTLS(t)
	p := NewPool(Options{TLS: ca.ClientConfig("127.0.0.1"), Reuse: true})
	defer p.Close()
	ex, err := p.Get("tls://" + addr)
	if err != nil {
		t.Fatal(err)
	}
	exchangeQuery(t, ex) // miss: first exchange dials
	exchangeQuery(t, ex) // hit: cached connection
	s, ok := Stats(ex)
	if !ok {
		t.Fatal("tls exchanger exposes no stats")
	}
	if s.Misses != 1 || s.Hits != 1 || s.Idle != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 idle", s)
	}
	if agg := p.Stats(); agg != s {
		t.Errorf("pool aggregate %+v != exchanger stats %+v", agg, s)
	}
}
