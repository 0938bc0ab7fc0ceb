package doh_test

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/testutil"
	"encdns/internal/transport"
)

// The DoH client is transport's attempt routine over https://: it dials
// and handshakes, and this package's ExchangeConn posts the query on the
// connection. These tests drive it through transport.Dial.

// dial binds a one-attempt exchanger to endpoint.
func dial(t testing.TB, endpoint string, opts transport.Options) transport.Exchanger {
	t.Helper()
	noRetry := transport.NoRetry()
	opts.Retry = &noRetry
	ex, err := transport.Dial(endpoint, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ex.Close() })
	return ex
}

// trusting is the TLS configuration of ts's own client.
func trusting(ts *httptest.Server) *tls.Config {
	return ts.Client().Transport.(*http.Transport).TLSClientConfig
}

// startDoH stands up an httptest TLS server with the RFC 8484 handler and
// returns an exchanger for it that trusts it.
func startDoH(t *testing.T, h dns53.Handler) transport.Exchanger {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: h})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)
	return dial(t, ts.URL+doh.DefaultPath, transport.Options{TLS: trusting(ts)})
}

// ask exchanges one query for name and type with ex.
func ask(ctx context.Context, ex transport.Exchanger, name string, t dnswire.Type) (*dnswire.Message, error) {
	return ex.Exchange(ctx, dnswire.NewQuery(dns53.NewID(), name, t))
}

func TestDoHPOST(t *testing.T) {
	ex := startDoH(t, doh.Static())
	resp, err := ask(context.Background(), ex, "google.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp: rcode=%v answers=%d", resp.Header.RCode, len(resp.Answers))
	}
	a := resp.Answers[0].Data.(*dnswire.A)
	if a.Addr.String() != "142.250.1.100" {
		t.Errorf("addr = %v", a.Addr)
	}
}

func TestDoHFreshConnections(t *testing.T) {
	ex := startDoH(t, doh.Static())
	for i := 0; i < 3; i++ {
		if _, err := ask(context.Background(), ex, "google.com", dnswire.TypeA); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

func TestDoHNXDomain(t *testing.T) {
	ex := startDoH(t, doh.Static())
	resp, err := ask(context.Background(), ex, "missing.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestDoHServfailOnHandlerError(t *testing.T) {
	h := testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, errors.New("resolver exploded")
	})
	resp, err := ask(context.Background(), startDoH(t, h), "any.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestDoHClientClassifiesHTTPErrors(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	_, err := ask(context.Background(), dial(t, ts.URL, transport.Options{TLS: trusting(ts)}), "google.com", dnswire.TypeA)
	var he *doh.HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HTTPError", err)
	}
	if he.Status != "503 Service Unavailable" {
		t.Errorf("status = %q", he.Status)
	}
	if !strings.Contains(he.Error(), "503") {
		t.Errorf("message = %q", he.Error())
	}
}

func TestDoHHTTP2Negotiated(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: doh.Static()})
	ts := httptest.NewUnstartedServer(mux)
	ts.EnableHTTP2 = true
	ts.StartTLS()
	defer ts.Close()

	var proto string
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		TLSHandshakeDone: func(cs tls.ConnectionState, _ error) { proto = cs.NegotiatedProtocol },
	})
	resp, err := ask(ctx, dial(t, ts.URL+doh.DefaultPath, transport.Options{TLS: trusting(ts)}), "google.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if proto != "h2" {
		t.Errorf("negotiated %q, want h2", proto)
	}
}

func TestDoHTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()
	ex := dial(t, ts.URL+doh.DefaultPath, transport.Options{TLS: trusting(ts), Timeout: 100 * time.Millisecond})
	start := time.Now()
	_, err := ask(context.Background(), ex, "google.com", dnswire.TypeA)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > time.Second {
		t.Error("timeout not enforced")
	}
}

// TestDoHSessionResumption drives two fresh connections through one
// exchanger and asserts via httptrace that the second TLS handshake
// resumed from the session cache Dial installs.
func TestDoHSessionResumption(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: doh.Static()})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)

	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	ex := dial(t, ts.URL+doh.DefaultPath, transport.Options{TLS: &tls.Config{RootCAs: pool}}) // every request dials

	query := func() (resumed bool) {
		t.Helper()
		var state tls.ConnectionState
		var handshook bool
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			TLSHandshakeDone: func(cs tls.ConnectionState, err error) {
				if err == nil {
					state, handshook = cs, true
				}
			},
		})
		resp, err := ask(ctx, ex, "google.com", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.RCode != dnswire.RCodeSuccess {
			t.Fatalf("rcode = %v", resp.Header.RCode)
		}
		if !handshook {
			t.Fatal("no TLS handshake observed; connection unexpectedly reused")
		}
		return state.DidResume
	}

	if query() {
		t.Fatal("first request resumed; expected a full handshake")
	}
	if !query() {
		t.Fatal("second request did not resume; the exchanger's session cache is not working")
	}
}

// handshakes reads the DoH handshake counters.
func handshakes(t *testing.T) (full, resumed uint64) {
	const series = "transport_doh_handshakes_total"
	return testutil.CounterValue(t, series+`{resumed="false"}`), testutil.CounterValue(t, series+`{resumed="true"}`)
}

// TestDoHResumptionCounters checks the handshake-outcome counters move
// with no caller-supplied httptrace.
func TestDoHResumptionCounters(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: doh.Static()})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)

	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	ex := dial(t, ts.URL+doh.DefaultPath, transport.Options{TLS: &tls.Config{RootCAs: pool}})

	fullBefore, resumedBefore := handshakes(t)
	for i := 0; i < 2; i++ {
		if _, err := ask(context.Background(), ex, "google.com", dnswire.TypeA); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	full, resumed := handshakes(t)
	if got := full - fullBefore; got < 1 {
		t.Errorf("full handshakes = %d, want >= 1", got)
	}
	if got := resumed - resumedBefore; got < 1 {
		t.Errorf("resumed handshakes = %d, want >= 1", got)
	}
}

// startServeH2 serves the DoH handler over doh.TestDNS the way
// cmd/dohserver does — HTTP/2 connections to ServeH2 — and returns its
// endpoint and a TLS config that trusts it.
func startServeH2(t *testing.T) (string, *tls.Config) {
	t.Helper()
	h := &doh.Handler{DNS: &doh.TestDNS{}}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, h)
	ts := httptest.NewUnstartedServer(mux)
	ts.EnableHTTP2 = true
	ts.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": h.ServeH2}
	ts.StartTLS()
	t.Cleanup(ts.Close)
	return ts.URL + doh.DefaultPath, trusting(ts)
}

// countingDialer dials loopback TCP and counts the Write calls made on
// what it dialled.
type countingDialer struct{ writes atomic.Int64 }

func (d *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, d: d}, nil
}

type countingConn struct {
	net.Conn
	d *countingDialer
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.d.writes.Add(1)
	return c.Conn.Write(p)
}

// TestFreshProbeShape pins what a fresh-connection probe costs on the wire
// and in handshakes: five client writes (ClientHello, Finished, the
// request, the SETTINGS acknowledgement, close_notify — net/http made
// seven), one full handshake per exchanger and a resumed one on every
// later probe.
func TestFreshProbeShape(t *testing.T) {
	endpoint, cfg := startServeH2(t)
	d := &countingDialer{}
	ex := dial(t, endpoint, transport.Options{TLS: cfg, Dialer: d})
	full, resumed := handshakes(t)
	for i := range 4 {
		before := d.writes.Load()
		resp, err := ask(context.Background(), ex, "hit.test.", dnswire.TypeA)
		if err != nil || len(resp.Answers) != 1 {
			t.Fatalf("probe %d: %v %v", i, resp, err)
		}
		if writes := d.writes.Load() - before; writes != 5 {
			t.Errorf("probe %d: %d client writes, want 5", i, writes)
		}
	}
	f, r := handshakes(t)
	if got := f - full; got != 1 {
		t.Errorf("%d full handshakes, want 1", got)
	}
	if got := r - resumed; got != 3 {
		t.Errorf("%d resumed handshakes, want 3", got)
	}
}

// TestFreshConcurrentProbes shares one pool among goroutines asking two
// endpoints, so each endpoint's exchanger and session cache serve several
// probes at once (run with -race).
func TestFreshConcurrentProbes(t *testing.T) {
	first, cfg := startServeH2(t)
	second := first + "?probe=2" // the same path to the handler, another endpoint to the pool
	noRetry := transport.NoRetry()
	pool := transport.NewPool(transport.Options{TLS: cfg, Retry: &noRetry})
	defer pool.Close()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 5 {
				endpoint := first
				if (g+i)%2 == 1 {
					endpoint = second
				}
				q := dnswire.NewQuery(dns53.NewID(), "hit.test.", dnswire.TypeA)
				if _, err := pool.Exchange(context.Background(), q, endpoint); err != nil {
					t.Errorf("%s: %v", endpoint, err)
				}
			}
		}()
	}
	wg.Wait()
}

// dialerFunc adapts a function to transport.ContextDialer.
type dialerFunc func(ctx context.Context, network, addr string) (net.Conn, error)

func (f dialerFunc) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	return f(ctx, network, addr)
}

// stallConn blocks every Write once armed, until it is closed or its
// deadline is moved to the past, as a socket's blocked write is.
type stallConn struct {
	net.Conn
	armed            *atomic.Bool
	stalled          chan<- struct{}
	closed, expired  chan struct{}
	closeOnce, clock sync.Once
}

func newStallConn(c net.Conn, armed *atomic.Bool, stalled chan<- struct{}) *stallConn {
	return &stallConn{Conn: c, armed: armed, stalled: stalled, closed: make(chan struct{}), expired: make(chan struct{})}
}

func (c *stallConn) Write(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(p)
	}
	select {
	case c.stalled <- struct{}{}:
	default:
	}
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	case <-c.expired:
		return 0, os.ErrDeadlineExceeded
	}
}

func (c *stallConn) SetDeadline(t time.Time) error {
	if !t.After(time.Now()) {
		c.clock.Do(func() { close(c.expired) })
	}
	return c.Conn.SetDeadline(t)
}

func (c *stallConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// silentServer accepts connections and never writes to them; withTLS, it
// completes the handshake (ALPN h2) first. Every connection is held until
// the client hangs up.
func silentServer(t *testing.T, withTLS bool) (string, *tls.Config) {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	srvTLS.NextProtos = []string{"h2"}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				if withTLS {
					conn = tls.Server(conn, srvTLS)
				}
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	return "https://" + ln.Addr().String() + doh.DefaultPath, ca.ClientConfig("127.0.0.1")
}

// TestFreshCancellation cancels a probe at each stage it can block in and
// requires it back within 50 ms with the context's error and no goroutine
// left behind.
func TestFreshCancellation(t *testing.T) {
	live, liveTLS := startServeH2(t)
	mute, muteTLS := silentServer(t, false)
	deaf, deafTLS := silentServer(t, true)
	for _, tc := range []struct {
		stage    string
		endpoint string
		tls      *tls.Config
		// setup returns the dialer and trace hooks that signal reached once
		// the probe is blocked in the stage (nil dialer: plain TCP).
		setup func(reached chan<- struct{}) (dialerFunc, *httptrace.ClientTrace)
	}{
		{"dial", live, liveTLS, func(reached chan<- struct{}) (dialerFunc, *httptrace.ClientTrace) {
			return func(ctx context.Context, _, _ string) (net.Conn, error) {
				reached <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			}, &httptrace.ClientTrace{}
		}},
		{"handshake", mute, muteTLS, func(reached chan<- struct{}) (dialerFunc, *httptrace.ClientTrace) {
			return nil, &httptrace.ClientTrace{TLSHandshakeStart: func() { reached <- struct{}{} }}
		}},
		{"write", live, liveTLS, func(reached chan<- struct{}) (dialerFunc, *httptrace.ClientTrace) {
			armed := new(atomic.Bool)
			return func(ctx context.Context, network, addr string) (net.Conn, error) {
					c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
					if err != nil {
						return nil, err
					}
					return newStallConn(c, armed, reached), nil
				}, &httptrace.ClientTrace{TLSHandshakeDone: func(tls.ConnectionState, error) {
					armed.Store(true)
				}}
		}},
		{"read", deaf, deafTLS, func(reached chan<- struct{}) (dialerFunc, *httptrace.ClientTrace) {
			return nil, &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) { reached <- struct{}{} }}
		}},
	} {
		t.Run(tc.stage, func(t *testing.T) {
			baseline := testutil.GoroutineBaseline()
			reached := make(chan struct{}, 1)
			dialer, hooks := tc.setup(reached)
			opts := transport.Options{TLS: tc.tls}
			if dialer != nil {
				opts.Dialer = dialer
			}
			ex := dial(t, tc.endpoint, opts)
			ctx, cancel := context.WithCancel(httptrace.WithClientTrace(context.Background(), hooks))
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := ask(ctx, ex, "hit.test.", dnswire.TypeA)
				errc <- err
			}()
			select {
			case <-reached:
			case err := <-errc:
				t.Fatalf("the probe returned before the %s stage: %v", tc.stage, err)
			case <-time.After(5 * time.Second):
				t.Fatalf("the probe never reached the %s stage", tc.stage)
			}
			start := time.Now()
			cancel()
			err := <-errc
			if took := time.Since(start); took > 50*time.Millisecond {
				t.Errorf("returned %v after the cancel", took)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want the context's", err)
			}
			testutil.WaitNoLeaks(t, baseline)
		})
	}
}
