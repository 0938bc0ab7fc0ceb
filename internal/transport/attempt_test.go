package transport

import (
	"context"
	"crypto/tls"
	"io"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"encdns/internal/doh"
	"encdns/internal/netsim"
	"encdns/internal/obs"
)

// silentTargets serves a UDP socket that reads every datagram and answers
// none, and a TCP listener that accepts every connection, reads it and
// never writes; it returns one endpoint per scheme over the two.
func silentTargets(t *testing.T) map[string]string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := make([]byte, 512)
		for {
			if _, _, err := pc.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() { defer wg.Done(); _, _ = io.Copy(io.Discard, conn); conn.Close() }()
		}
	}()
	t.Cleanup(func() { pc.Close(); ln.Close(); wg.Wait() })
	stream := ln.Addr().String()
	return map[string]string{
		SchemeUDP:   "udp://" + pc.LocalAddr().String(),
		SchemeTCP:   "tcp://" + stream,
		SchemeTLS:   "tls://" + stream,
		SchemeHTTPS: "https://" + stream + doh.DefaultPath,
	}
}

// TestSilentServerTimesOutOnEveryScheme: a server that reads and never
// answers costs every scheme a timeout, attempt after attempt. The class
// comes from the one cancellation rule (a deadline, never a bare close),
// so it cannot depend on which of two events fired first.
func TestSilentServerTimesOutOnEveryScheme(t *testing.T) {
	for scheme, endpoint := range silentTargets(t) {
		t.Run(scheme, func(t *testing.T) {
			ex, err := Dial(endpoint, Options{
				Timeout: 20 * time.Millisecond,
				TLS:     &tls.Config{InsecureSkipVerify: true},
				Retry:   ptr(NoRetry()),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			wrong := 0
			for i := range 50 {
				_, err := ex.Exchange(context.Background(), query())
				if got := Classify(err); got != netsim.ErrTimeout {
					if wrong++; wrong <= 3 {
						t.Errorf("attempt %d: Classify(%v) = %v, want %v", i, err, got, netsim.ErrTimeout)
					}
				}
			}
			if wrong > 0 {
				t.Errorf("%d of 50 attempts did not read %v", wrong, netsim.ErrTimeout)
			}
		})
	}
}

// spanLine is one rendered span's duration, or a note line.
var spanLine = regexp.MustCompile(`  (…|[0-9.]+ms)$|^.*· .*$`)

// TestAttemptSpansPerScheme: one traced exchange renders the same span
// tree on every scheme — an attempt span naming the scheme, with dial,
// the TLS handshake where the scheme has one, and the exchange under it.
func TestAttemptSpansPerScheme(t *testing.T) {
	tlsAddr, ca := startTLS(t, staticHandler())
	ts := startHTTPS(t, staticHandler())
	for _, tc := range []struct {
		scheme, endpoint string
		tls              *tls.Config
	}{
		{SchemeUDP, "udp://" + startUDP(t, staticHandler()), nil},
		{SchemeTCP, "tcp://" + startTCP(t, staticHandler()), nil},
		{SchemeTLS, "tls://" + tlsAddr, ca.ClientConfig("127.0.0.1")},
		{SchemeHTTPS, ts.URL + doh.DefaultPath, trusting(ts)},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			ex, err := Dial(tc.endpoint, Options{TLS: tc.tls, Retry: ptr(NoRetry())})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			ctx, tr := obs.StartTrace(context.Background(), "query")
			resp, err := ex.Exchange(ctx, query())
			tr.Finish()
			checkAnswer(t, resp, err)
			var got []string
			for _, line := range strings.Split(strings.TrimSpace(tr.String()), "\n") {
				if line = spanLine.ReplaceAllString(line, ""); line != "" {
					got = append(got, line)
				}
			}
			want := []string{"query", "└─ attempt (scheme=" + tc.scheme + ")", "   ├─ dial"}
			if tc.tls != nil {
				want = append(want, "   ├─ tls-handshake")
			}
			want = append(want, "   └─ exchange")
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("span tree:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
