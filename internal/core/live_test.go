// The live prober lives in internal/live; these tests drive it, and a
// campaign over it, from core's side as an external package.
package core_test

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/core"
	"encdns/internal/dataset"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/dot"
	"encdns/internal/live"
	"encdns/internal/netsim"
	"encdns/internal/resolver"
	"encdns/internal/transport"
)

// delayDialer injects a fixed latency before each connection establishes,
// modelling a slow path for the live prober to measure.
type delayDialer struct {
	delay time.Duration
	inner net.Dialer
	dials atomic.Int64
}

func (d *delayDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	d.dials.Add(1)
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.inner.DialContext(ctx, network, address)
}

// startLiveStack stands up the full substrate: authoritative hierarchy →
// recursive resolver → DoH server on a loopback TLS listener. It returns
// the endpoint URL and the test server (whose client trusts the cert).
func startLiveStack(t *testing.T) (string, *httptest.Server) {
	t.Helper()
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	rec := &resolver.Recursive{
		Exchange: h.Registry,
		Roots:    h.RootServers,
		Cache:    resolver.NewCache(4096, nil),
		RNGSeed:  1,
	}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: rec})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL + doh.DefaultPath, ts
}

// poolWith builds a single-attempt transport pool that trusts ts's
// certificate and dials through d (nil: net.Dialer).
func poolWith(ts *httptest.Server, d transport.ContextDialer) *transport.Pool {
	return transport.NewPool(transport.Options{
		TLS:    ts.Client().Transport.(*http.Transport).TLSClientConfig,
		Dialer: d,
		Retry:  &transport.RetryPolicy{MaxAttempts: 1},
	})
}

func TestLiveProberEndToEnd(t *testing.T) {
	endpoint, ts := startLiveStack(t)
	prober := &live.Prober{Transport: poolWith(ts, nil)}
	target := core.Target{Host: "live.test", Endpoint: endpoint}
	v := netsim.Vantage{Name: "loopback"}

	for _, domain := range dataset.Domains {
		out := prober.Query(context.Background(), v, target, domain, 0)
		if out.Err != netsim.OK {
			t.Fatalf("query %s failed: %v", domain, out.Err)
		}
		if out.RCode != dnswire.RCodeSuccess {
			t.Fatalf("query %s rcode = %v", domain, out.RCode)
		}
		if out.Duration <= 0 {
			t.Fatalf("query %s measured no time", domain)
		}
	}
	if ping := prober.Ping(context.Background(), v, target, 0); ping.OK {
		t.Errorf("a live prober answered a ping: %+v", ping)
	}
}

func TestLiveProberMeasuresInjectedLatency(t *testing.T) {
	endpoint, ts := startLiveStack(t)
	const injected = 60 * time.Millisecond

	dd := &delayDialer{delay: injected}
	prober := &live.Prober{Transport: poolWith(ts, dd)}
	target := core.Target{Host: "live.test", Endpoint: endpoint}
	v := netsim.Vantage{Name: "loopback"}

	out := prober.Query(context.Background(), v, target, "google.com", 0)
	if out.Err != netsim.OK {
		t.Fatalf("query failed: %v", out.Err)
	}
	if out.Duration < injected {
		t.Errorf("measured %v < injected %v", out.Duration, injected)
	}
	if out.Duration > injected*4 {
		t.Errorf("measured %v ≫ injected %v; overhead unexpectedly large", out.Duration, injected)
	}
	if dd.dials.Load() == 0 {
		t.Error("delaying dialer never used")
	}
}

// TestLiveProberFreshVsReusedConnections: a warm probe is as fresh as a
// cold one. The prober's pool keeps its exchanger, and with it the TLS
// session cache, but no connection: every query dials and pays the delay.
func TestLiveProberFreshVsReusedConnections(t *testing.T) {
	endpoint, ts := startLiveStack(t)
	const injected = 30 * time.Millisecond
	dd := &delayDialer{delay: injected}

	v := netsim.Vantage{Name: "loopback"}
	target := core.Target{Host: "live.test", Endpoint: endpoint}
	prober := &live.Prober{Transport: poolWith(ts, dd)}
	for i, name := range []string{"cold", "warm"} {
		out := prober.Query(context.Background(), v, target, "google.com", i)
		if out.Err != netsim.OK {
			t.Fatalf("%s query failed: %v", name, out.Err)
		}
		if out.Duration < injected {
			t.Errorf("%s query took %v, should include the %v dial", name, out.Duration, injected)
		}
	}
	if got := dd.dials.Load(); got != 2 {
		t.Errorf("%d dials for two queries, want 2", got)
	}
}

func TestLiveProberClassifiesDeadEndpoint(t *testing.T) {
	// Nothing listens on this port (bound then closed).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "https://" + ln.Addr().String() + "/dns-query"
	ln.Close()

	prober := &live.Prober{Transport: transport.NewPool(transport.Options{
		Timeout: 500 * time.Millisecond,
		Retry:   &transport.RetryPolicy{MaxAttempts: 1},
	})}
	out := prober.Query(context.Background(), netsim.Vantage{}, core.Target{Host: "dead", Endpoint: deadURL}, "google.com", 0)
	if out.Err != netsim.ErrConnect && out.Err != netsim.ErrTimeout {
		t.Errorf("err = %v, want connect-failure or timeout", out.Err)
	}
}

func TestLiveProberHTTPErrorClass(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusBadGateway)
	}))
	defer ts.Close()
	prober := &live.Prober{Transport: poolWith(ts, nil)}
	out := prober.Query(context.Background(), netsim.Vantage{}, core.Target{Host: "x", Endpoint: ts.URL}, "google.com", 0)
	if out.Err != netsim.ErrHTTP {
		t.Errorf("err = %v, want http-error", out.Err)
	}
}

func TestLiveProberNilTransport(t *testing.T) {
	v := netsim.Vantage{}
	target := core.Target{Host: "x", Endpoint: "https://x/dns-query"}
	p := &live.Prober{}
	out := p.Query(context.Background(), v, target, "google.com", 0)
	if out.Err != netsim.ErrConnect {
		t.Errorf("nil transport: err = %v", out.Err)
	}
	if out := p.Ping(context.Background(), v, target, 0); out.OK {
		t.Error("a live prober reported a ping answered")
	}
}

func TestLiveProberBadEndpoint(t *testing.T) {
	p := &live.Prober{Transport: transport.NewPool(transport.Options{})}
	out := p.Query(context.Background(), netsim.Vantage{}, core.Target{Host: "x", Endpoint: "gopher://x"}, "google.com", 0)
	if out.Err == netsim.OK {
		t.Error("unknown scheme succeeded")
	}
}

func TestLiveCampaign(t *testing.T) {
	// A small but fully live campaign: the campaign scheduler drives the
	// live prober against the real DoH stack; the analysis pipeline then
	// consumes the records exactly as it does simulated ones.
	endpoint, ts := startLiveStack(t)
	prober := &live.Prober{Transport: poolWith(ts, nil)}
	cfg := core.CampaignConfig{
		Vantages: []netsim.Vantage{{Name: "loopback"}},
		Targets:  []core.Target{{Host: "live.test", Endpoint: endpoint}},
		Domains:  dataset.Domains,
		Rounds:   3,
		Interval: time.Nanosecond,
		Clock:    netsim.NewVirtualClock(netsim.CampaignEpoch),
	}
	c, err := core.NewCampaign(cfg, prober)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := rs.Availability()
	if a.Errors != 0 {
		t.Fatalf("live campaign errors: %+v", a)
	}
	if a.Successes != 3*3 {
		t.Errorf("successes = %d", a.Successes)
	}
	med := rs.MedianResponse("loopback", "live.test")
	if med <= 0 {
		t.Errorf("median = %v", med)
	}
	// A live prober cannot ping, so nothing may be recorded as an
	// unanswered ping.
	if pings := rs.Filter(func(r core.Record) bool { return r.Kind == core.KindPing }); len(pings) != 0 {
		t.Errorf("live campaign wrote %d ping records: %+v", len(pings), pings[0])
	}
	if rs.Len() != 3*3 {
		t.Errorf("live campaign wrote %d records, want 9 queries", rs.Len())
	}
}

// googleZone answers google.com. A 142.250.64.78.
func googleZone() *authdns.Zone {
	z := authdns.NewZone(".")
	z.AddA("google.com.", 300, netip.MustParseAddr("142.250.64.78"))
	return z
}

func TestLiveProberDoT(t *testing.T) {
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: googleZone()}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })

	prober := &live.Prober{
		Proto:     netsim.ProtoDoT,
		Transport: transport.NewPool(transport.Options{TLS: ca.ClientConfig("127.0.0.1")}),
	}
	out := prober.Query(context.Background(), netsim.Vantage{},
		core.Target{Host: "dot.test", Endpoint: "tls://" + ln.Addr().String()}, "google.com", 0)
	if out.Err != netsim.OK || out.RCode != dnswire.RCodeSuccess {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Duration <= 0 {
		t.Error("no duration measured")
	}
}

func TestLiveProberDo53(t *testing.T) {
	inner := &dns53.Server{Handler: googleZone()}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go inner.ServeUDP(pc)
	t.Cleanup(inner.Shutdown)

	prober := &live.Prober{
		Proto:     netsim.ProtoDo53,
		Transport: transport.NewPool(transport.Options{}),
	}
	// A bare host:port endpoint defaults to the udp scheme.
	out := prober.Query(context.Background(), netsim.Vantage{},
		core.Target{Host: "udp.test", Endpoint: pc.LocalAddr().String()}, "google.com", 0)
	if out.Err != netsim.OK || out.RCode != dnswire.RCodeSuccess {
		t.Fatalf("outcome = %+v", out)
	}
}
