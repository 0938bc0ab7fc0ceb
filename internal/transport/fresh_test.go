package transport

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/netsim"
	"encdns/internal/testutil"
)

// serveDoH serves DoH on ln as cmd/dohserver does: HTTP/2 connections go
// to doh.Handler.ServeH2, HTTP/1.1 stays net/http's; with h2 off the
// server speaks HTTP/1.1 only.
func serveDoH(t *testing.T, ln net.Listener, tlsCfg *tls.Config, h2 bool) {
	t.Helper()
	h := &doh.Handler{DNS: staticHandler()}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, h)
	srv := &http.Server{Handler: mux, TLSConfig: tlsCfg, ErrorLog: log.New(io.Discard, "", 0),
		TLSNextProto: map[string]func(*http.Server, *tls.Conn, http.Handler){}}
	if h2 {
		srv.TLSNextProto["h2"] = h.ServeH2
	}
	go srv.ServeTLS(ln, "", "")
	t.Cleanup(func() { srv.Close() })
}

// startDoH serves DoH on loopback and returns its endpoint and CA.
func startDoH(t *testing.T, h2 bool) (string, *certs.CA) {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig([]string{"doh.test"}, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDoH(t, ln, srvTLS, h2)
	return "https://" + ln.Addr().String() + doh.DefaultPath, ca
}

// TestDialEverySchemeHTTPSFresh runs Dial's own https path — the dialer
// chain, TLS and doh's fresh-connection exchange — against an HTTP/2
// server and an HTTP/1.1-only one.
func TestDialEverySchemeHTTPSFresh(t *testing.T) {
	for _, tc := range []struct {
		name  string
		h2    bool
		proto string
	}{{"ServeH2", true, "h2"}, {"HTTP/1.1 only", false, "http/1.1"}} {
		t.Run(tc.name, func(t *testing.T) {
			endpoint, ca := startDoH(t, tc.h2)
			ex, err := Dial(endpoint, Options{TLS: ca.ClientConfig("127.0.0.1")})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			for range 2 {
				var proto string
				ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
					GotConn: func(info httptrace.GotConnInfo) {
						proto = info.Conn.(*tls.Conn).ConnectionState().NegotiatedProtocol
					},
				})
				resp, err := ex.Exchange(ctx, dnswire.NewQuery(7, "example.com", dnswire.TypeA))
				checkAnswer(t, resp, err)
				if proto != tc.proto {
					t.Errorf("negotiated %q, want %q", proto, tc.proto)
				}
			}
		})
	}
}

// TestFreshHTTPSTaxonomy: the failures a fresh https exchange meets land in
// the classes net/http's did — a wrong CA or name is a TLS failure, an
// expired deadline in the handshake or the response a timeout.
func TestFreshHTTPSTaxonomy(t *testing.T) {
	endpoint, ca := startDoH(t, true)
	other, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	// A listener that accepts and never says a word strands the handshake;
	// one that completes it and never answers strands the response.
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deaf, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	srvTLS.NextProtos = []string{"h2"}
	var wg sync.WaitGroup
	hold := func(ln net.Listener, cfg *tls.Config) {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if cfg != nil {
				conn = tls.Server(conn, cfg)
			}
			wg.Add(1)
			go func() { defer wg.Done(); _, _ = io.Copy(io.Discard, conn); conn.Close() }()
		}
	}
	wg.Add(2)
	go hold(mute, nil)
	go hold(deaf, srvTLS)
	t.Cleanup(func() { mute.Close(); deaf.Close(); wg.Wait() })

	for _, tc := range []struct {
		name     string
		endpoint string
		tls      *tls.Config
		want     netsim.ErrClass
	}{
		{"wrong CA", endpoint, other.ClientConfig("127.0.0.1"), netsim.ErrTLS},
		{"wrong name", endpoint, ca.ClientConfig("elsewhere.test"), netsim.ErrTLS},
		{"deadline in the handshake", "https://" + mute.Addr().String() + doh.DefaultPath, ca.ClientConfig("127.0.0.1"), netsim.ErrTimeout},
		{"deadline in the response", "https://" + deaf.Addr().String() + doh.DefaultPath, ca.ClientConfig("127.0.0.1"), netsim.ErrTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := Dial(tc.endpoint, Options{TLS: tc.tls, Timeout: 100 * time.Millisecond, Retry: ptr(NoRetry())})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			start := time.Now()
			_, err = ex.Exchange(context.Background(), query())
			if got := Classify(err); got != tc.want {
				t.Errorf("Classify(%v) = %v, want %v", err, got, tc.want)
			}
			if took := time.Since(start); took > time.Second {
				t.Errorf("took %v", took)
			}
		})
	}
}

// TestCancelFreshExchange: a fresh https exchange whose server never
// answers returns at once with the context's error when its caller cancels
// after the request is written, and leaves no goroutine behind. The live
// prober's timeout and Shutdown rely on this.
func TestCancelFreshExchange(t *testing.T) {
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	deaf, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	srvTLS.NextProtos = []string{"h2"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := deaf.Accept()
			if err != nil {
				return
			}
			go func() { c := tls.Server(conn, srvTLS); _, _ = io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	t.Cleanup(func() { deaf.Close(); <-done })

	ex, err := Dial("https://"+deaf.Addr().String()+doh.DefaultPath,
		Options{TLS: ca.ClientConfig("127.0.0.1"), Retry: ptr(NoRetry())})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	baseline := testutil.GoroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrote := make(chan struct{})
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { close(wrote) },
	})
	result := make(chan error, 1)
	go func() {
		_, err := ex.Exchange(ctx, query())
		result <- err
	}()
	select {
	case <-wrote: // the exchange is blocked on its response
	case err := <-result:
		t.Fatalf("exchange returned before its request was written: %v", err)
	}
	cancel()
	select {
	case err := <-result:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("exchange: %v, want the context's error", err)
		}
	case <-time.After(50 * time.Millisecond):
		t.Error("the exchange was still running 50 ms after its context was cancelled")
	}
	testutil.WaitNoLeaks(t, baseline)
}
