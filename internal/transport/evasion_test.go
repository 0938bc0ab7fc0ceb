package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
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
func startVirtualDoT(t *testing.T, vn *dialer.VirtualNet, addr, serverName string) *certs.CA {
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
func startVirtualDoH(t *testing.T, vn *dialer.VirtualNet, addr, serverName string) *certs.CA {
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
		start            func(*testing.T, *dialer.VirtualNet, string, string) *certs.CA
	}{
		{"tls", "tls://" + name + ":853", startVirtualDoT},
		{"https", "https://" + name + "/dns-query", startVirtualDoH},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			vn := dialer.NewVirtualNet()
			ce, err := ParseChain(tc.endpoint)
			if err != nil {
				t.Fatal(err)
			}
			ca := tc.start(t, vn, ce.Addr(), name)
			path := vn.Path(&dialer.RSTOnSNI{Blocked: []string{name}})
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
	vn := dialer.NewVirtualNet()
	const name = "resolver.test"
	const addr = name + ":853"
	ca := startVirtualDoT(t, vn, addr, name)
	path := vn.Path(&dialer.DropLargeRecord{MaxBytes: 64})
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

// TestDialFailureCounters: a failed dial is counted per scheme, chain
// layers or not — a layer acts on the connection's writes, so it cannot
// be what failed a dial.
func TestDialFailureCounters(t *testing.T) {
	vn := dialer.NewVirtualNet() // no listeners: every dial fails
	opts := Options{Dialer: vn.Path(), Retry: ptr(NoRetry()), Timeout: time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, endpoint := range []string{
		"tls://192.0.2.99:853",
		"split:3|tls://192.0.2.99:853",
		"tlsfrag:sni|tls://192.0.2.99:853",
	} {
		before := schemeInstruments[SchemeTLS].dialFailures.Value()
		ex, err := Dial(endpoint, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ex.Exchange(ctx, query())
		ex.Close()
		if err == nil {
			t.Fatalf("%s: exchange against empty net succeeded", endpoint)
		}
		var le *dialer.LayerError
		if errors.As(err, &le) {
			t.Errorf("%s: dial failure blamed on layer %s: %v", endpoint, le.Layer, err)
		}
		if got := schemeInstruments[SchemeTLS].dialFailures.Value(); got != before+1 {
			t.Errorf("%s: dial failures = %d, want %d", endpoint, got, before+1)
		}
	}
}
