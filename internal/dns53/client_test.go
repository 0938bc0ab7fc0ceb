package dns53_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/testutil"
	"encdns/internal/transport"
)

// The Do53 client is transport's attempt routine over udp:// and tcp://,
// around this package's ExchangeUDP and ExchangeConn; these tests drive it
// through transport.Dial.

// dial binds a one-attempt exchanger to endpoint.
func dial(t *testing.T, endpoint string, timeout time.Duration) transport.Exchanger {
	t.Helper()
	noRetry := transport.NoRetry()
	ex, err := transport.Dial(endpoint, transport.Options{Timeout: timeout, Retry: &noRetry})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestTruncationFallback(t *testing.T) {
	// A handler that answers with many records, overflowing 512 bytes so
	// the UDP path truncates and the client retries over TCP.
	big := testutil.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		for i := 0; i < 60; i++ {
			r.Answers = append(r.Answers, dnswire.Record{
				Name: "txt.example.", Type: dnswire.TypeTXT, Class: dnswire.ClassIN, TTL: 60,
				Data: &dnswire.TXT{Strings: []string{strings.Repeat("x", 50)}},
			})
		}
		return r, nil
	})
	srv := &dns53.Server{Handler: big}
	pc, _ := net.ListenPacket("udp", "127.0.0.1:0")
	// TCP listener on the SAME port as UDP so the fallback finds it.
	tcpLn, err := net.Listen("tcp", pc.LocalAddr().String())
	if err != nil {
		t.Skipf("cannot bind matching TCP port: %v", err)
	}
	go srv.ServeUDP(pc)
	go srv.ServeTCP(tcpLn)
	defer srv.Shutdown()

	ex := dial(t, "udp://"+pc.LocalAddr().String(), 0)
	resp, err := ex.Exchange(context.Background(), dnswire.NewQuery(dns53.NewID(), "txt.example", dnswire.TypeTXT))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.TC {
		t.Error("final response still truncated")
	}
	if len(resp.Answers) != 60 {
		t.Errorf("answers = %d, want 60 via TCP", len(resp.Answers))
	}
}

func TestClientTimeout(t *testing.T) {
	// A UDP socket nobody answers from.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ex := dial(t, "udp://"+pc.LocalAddr().String(), 50*time.Millisecond)
	start := time.Now()
	_, err = ex.Exchange(context.Background(), dnswire.NewQuery(dns53.NewID(), "google.com", dnswire.TypeA))
	if err == nil {
		t.Fatal("expected timeout")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("took %v, timeouts not enforced", elapsed)
	}
}

func TestClientContextCancel(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	ex := dial(t, "udp://"+pc.LocalAddr().String(), 5*time.Second)
	start := time.Now()
	_, err = ex.Exchange(ctx, dnswire.NewQuery(dns53.NewID(), "google.com", dnswire.TypeA))
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation not honoured promptly")
	}
}
