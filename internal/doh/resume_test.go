package doh

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"testing"

	"encdns/internal/dnswire"
)

// TestDoHSessionResumption drives two fresh connections through a client
// from NewClient and asserts via httptrace that the second
// TLS handshake resumed from the session cache NewClient installs.
func TestDoHSessionResumption(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)

	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	c := NewClient(&tls.Config{RootCAs: pool}, nil) // every request dials

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
		resp, err := ask(ctx, c, ts.URL+DefaultPath, "google.com", dnswire.TypeA)
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
		t.Fatal("second request did not resume; NewClient session cache is not working")
	}
}

// TestDoHResumptionCounters checks the handshake-outcome counters move
// through the client's own trace hook (no caller-supplied httptrace).
func TestDoHResumptionCounters(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)

	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	c := NewClient(&tls.Config{RootCAs: pool}, nil)

	resumedBefore := handshakesResumed.Value()
	fullBefore := handshakesFull.Value()
	for i := 0; i < 2; i++ {
		if _, err := ask(context.Background(), c, ts.URL+DefaultPath, "google.com", dnswire.TypeA); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := handshakesFull.Value() - fullBefore; got < 1 {
		t.Errorf("full handshakes = %d, want >= 1", got)
	}
	if got := handshakesResumed.Value() - resumedBefore; got < 1 {
		t.Errorf("resumed handshakes = %d, want >= 1", got)
	}
}
