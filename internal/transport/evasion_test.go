package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dialer"
	"encdns/internal/dns53"
	"encdns/internal/dot"
	"encdns/internal/netsim"
	"encdns/internal/testutil"
)

func ptr[T any](v T) *T { return &v }

// startVirtualDoT runs a real DoT server (internal/dot over crypto/tls)
// on a VirtualNet address and returns the CA clients must trust. The
// full protocol stack runs in-process, so middlebox verdicts depend only
// on the bytes the client writes — deterministic evasion proofs.
func startVirtualDoT(t *testing.T, vn *netsim.VirtualNet, addr, serverName string) *certs.CA {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig([]string{serverName}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: staticHandler()}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, err := vn.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })
	return ca
}

// socketBuffered gives every connection it accepts what a kernel socket
// has and a VirtualNet connection, a net.Pipe, lacks: writes that return
// before the peer reads. Without it an HTTP/2 server writing its SETTINGS
// and a client writing its request on one goroutine would wait on each
// other forever, which on a real network they cannot.
type socketBuffered struct{ net.Listener }

func (l socketBuffered) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	// 64 writes, many more than an HTTP/2 server makes on a connection
	// before it reads again.
	b := &bufferedConn{Conn: c, out: make(chan []byte, 64)}
	go func() {
		for p := range b.out {
			_, _ = c.Write(p) // after Close this fails at once
		}
	}()
	return b, nil
}

type bufferedConn struct {
	net.Conn
	mu     sync.Mutex
	closed bool
	out    chan []byte
}

func (b *bufferedConn) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, net.ErrClosed
	}
	b.out <- bytes.Clone(p)
	return len(p), nil
}

func (b *bufferedConn) Close() error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.out)
	}
	b.mu.Unlock()
	return b.Conn.Close()
}

// startVirtualDoH is startVirtualDoT for DoH, served as cmd/dohserver
// serves it (HTTP/2 to the burst loop) from socket-buffered connections.
func startVirtualDoH(t *testing.T, vn *netsim.VirtualNet, addr, serverName string) *certs.CA {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig([]string{serverName}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := vn.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	serveDoH(t, socketBuffered{ln}, srvTLS, true)
	return ca
}

// TestEvasionRSTOnSNI is acceptance criterion (a): a plain tls:// or
// https:// dial fails against the RST-on-SNI middlebox while the same
// endpoint behind tlsfrag: succeeds — through the full transport.Dial
// stack, not just the raw dialer. For https that proves the chain layers
// wrap the fresh-connection exchange's own dial.
func TestEvasionRSTOnSNI(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	t.Cleanup(func() { testutil.WaitNoLeaks(t, baseline) })

	const name = "blocked.test"
	for _, tc := range []struct {
		scheme, endpoint string
		start            func(*testing.T, *netsim.VirtualNet, string, string) *certs.CA
	}{
		{"tls", "tls://" + name + ":853", startVirtualDoT},
		{"https", "https://" + name + "/dns-query", startVirtualDoH},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			vn := netsim.NewVirtualNet()
			ce, err := ParseChain(tc.endpoint)
			if err != nil {
				t.Fatal(err)
			}
			ca := tc.start(t, vn, ce.Addr(), name)
			path := vn.Path(&netsim.RSTOnSNI{Blocked: []string{name}})
			opts := Options{
				TLS:     ca.ClientConfig(name),
				Dialer:  path,
				Timeout: 2 * time.Second,
				Retry:   ptr(NoRetry()),
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()

			plain, err := Dial(tc.endpoint, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			if _, err := plain.Exchange(ctx, query()); err == nil {
				t.Fatalf("plain %s:// exchange succeeded through the SNI filter", tc.scheme)
			} else {
				if !errors.Is(err, syscall.ECONNRESET) {
					t.Errorf("plain failure = %v, want ECONNRESET", err)
				}
				if got := Classify(err); got != netsim.ErrConnect {
					t.Errorf("Classify(reset) = %v, want ErrConnect", got)
				}
			}

			evade, err := Dial("tlsfrag:sni|"+tc.endpoint, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer evade.Close()
			resp, err := evade.Exchange(ctx, query())
			if err != nil {
				t.Fatalf("tlsfrag exchange failed: %v", err)
			}
			if len(resp.Answers) == 0 {
				t.Error("tlsfrag exchange returned no answers")
			}
		})
	}
}

// TestEvasionDropLargeRecord: the drop-first-large-TLS-record middlebox
// strands a plain handshake (timeout) but passes a fragmented one.
func TestEvasionDropLargeRecord(t *testing.T) {
	vn := netsim.NewVirtualNet()
	const name = "resolver.test"
	const addr = name + ":853"
	ca := startVirtualDoT(t, vn, addr, name)
	path := vn.Path(&netsim.DropLargeRecord{MaxBytes: 64})
	opts := Options{
		TLS:    ca.ClientConfig(name),
		Dialer: path,
		Retry:  ptr(NoRetry()),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	plain, err := Dial("tls://"+addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	_, err = plain.Exchange(ctx, query())
	cancel()
	if err == nil {
		t.Fatal("plain exchange succeeded through the drop filter")
	}
	if got := Classify(err); got != netsim.ErrTimeout {
		t.Errorf("Classify(stranded) = %v (%v), want ErrTimeout", got, err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	evade, err := Dial("tlsfrag:32|tls://"+addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer evade.Close()
	if _, err := evade.Exchange(ctx2, query()); err != nil {
		t.Fatalf("tlsfrag exchange failed: %v", err)
	}
}

// strandIPv6 blackholes dials to IPv6 literals until the caller's
// context expires, the way a broken v6 path behaves; happy-eyeballs
// racing exists to make that cost one stagger interval, not a timeout.
type strandIPv6 struct{}

func (strandIPv6) Name() string { return "strand-ipv6" }

func (strandIPv6) FilterDial(ctx context.Context, _, address string) error {
	host, _, _ := net.SplitHostPort(address)
	if ip, err := netip.ParseAddr(host); err != nil || ip.Is4() {
		return nil
	}
	<-ctx.Done()
	return &net.OpError{Op: "dial", Net: "tcp", Err: ctx.Err()}
}

// staticResolve resolves from a fixed host→addresses table.
func staticResolve(table map[string][]netip.Addr) dialer.ResolveFunc {
	return func(_ context.Context, host string) ([]netip.Addr, error) {
		if addrs, ok := table[host]; ok {
			return addrs, nil
		}
		return nil, fmt.Errorf("no addresses for %q", host)
	}
}

// TestEyeballsPicksHealthyFamily is acceptance criterion (b):
// happy-eyeballs picks the healthy family within one stagger interval
// when the other family is throttled.
func TestEyeballsPicksHealthyFamily(t *testing.T) {
	vn := netsim.NewVirtualNet()
	const name = "resolver.test"
	v4 := netip.MustParseAddr("192.0.2.53")
	v6 := netip.MustParseAddr("2001:db8::53")
	v4addr := net.JoinHostPort(v4.String(), "853")
	v6addr := net.JoinHostPort(v6.String(), "853")
	ca := startVirtualDoT(t, vn, v4addr, name)
	// Reuse the same CA for the v6 site so one ClientConfig trusts both.
	srvTLS, err := ca.ServerConfig([]string{name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: staticHandler()}
	ln, err := vn.Listen(v6addr)
	if err != nil {
		t.Fatal(err)
	}
	go (&dot.Server{DNS: inner, TLS: srvTLS}).Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })

	const stagger = 50 * time.Millisecond
	opts := Options{
		TLS:     ca.ClientConfig(name),
		Dialer:  vn.Path(strandIPv6{}),
		Resolve: staticResolve(map[string][]netip.Addr{name: {v6, v4}}),
		Stagger: stagger,
		Retry:   ptr(NoRetry()),
	}
	ex, err := Dial("tls://"+name+":853", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := ex.Exchange(ctx, query())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("eyeballs exchange failed: %v", err)
	}
	if len(resp.Answers) == 0 {
		t.Error("no answers")
	}
	// IPv6 is interleaved first and strands; the v4 attempt starts one
	// stagger later and completes in-process (microseconds). Anything
	// approaching the 2s protocol timeout means racing didn't happen.
	if elapsed > stagger+500*time.Millisecond {
		t.Errorf("exchange took %v, want ~one stagger (%v)", elapsed, stagger)
	}
}

// TestDialFailureCounters: failures increment the per-scheme, per-layer
// counters — base dial failures and eyeballs resolution failures land in
// different layer buckets.
func TestDialFailureCounters(t *testing.T) {
	vn := netsim.NewVirtualNet() // no listeners: every dial fails
	opts := Options{Dialer: vn.Path(), Retry: ptr(NoRetry()), Timeout: time.Second}

	base0 := dialFailureCounter(SchemeTLS, "base").Value()
	ex, err := Dial("tls://192.0.2.99:853", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := ex.Exchange(ctx, query()); err == nil {
		t.Fatal("exchange against empty net succeeded")
	}
	if got := dialFailureCounter(SchemeTLS, "base").Value(); got != base0+1 {
		t.Errorf("base failures = %d, want %d", got, base0+1)
	}

	eye0 := dialFailureCounter(SchemeTLS, "eyeballs").Value()
	opts.Resolve = staticResolve(nil) // resolution always fails
	ex2, err := Dial("tls://unresolvable.test:853", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ex2.Close()
	if _, err := ex2.Exchange(ctx, query()); err == nil {
		t.Fatal("exchange with failing resolver succeeded")
	}
	if got := dialFailureCounter(SchemeTLS, "eyeballs").Value(); got != eye0+1 {
		t.Errorf("eyeballs failures = %d, want %d", got, eye0+1)
	}
}
