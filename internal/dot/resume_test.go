package dot_test

import (
	"context"
	"crypto/tls"
	"testing"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/testutil"
	"encdns/internal/transport"
)

// TestSessionResumptionAbbreviatedHandshake proves the server hands out
// session tickets and the client's shared cache uses them: the second
// connection must complete an abbreviated handshake (DidResume). Raw
// tls.Client connections against the DoT server keep the assertion on
// tls.ConnectionState itself rather than on counters.
func TestSessionResumptionAbbreviatedHandshake(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	cfg := cliTLS.Clone()
	cfg.ClientSessionCache = tls.NewLRUClientSessionCache(4)

	connect := func() tls.ConnectionState {
		t.Helper()
		conn, err := tls.Dial("tcp", addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Handshake(); err != nil {
			t.Fatal(err)
		}
		// TLS 1.3 delivers session tickets after the handshake; they are
		// processed during reads, so run one framed exchange before
		// disconnecting or there is nothing to resume with.
		q := dnswire.NewQuery(1, "google.com.", dnswire.TypeA)
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		frame := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		hdr := make([]byte, 2)
		if _, err := conn.Read(hdr); err != nil {
			t.Fatalf("reading response frame: %v", err)
		}
		return conn.ConnectionState()
	}

	if cs := connect(); cs.DidResume {
		t.Fatal("first connection resumed; expected a full handshake")
	}
	if cs := connect(); !cs.DidResume {
		t.Fatal("second connection did not resume; session tickets are not working")
	}
}

// TestClientResumesAcrossDials exercises the same property through
// transport's tls:// client: every exchange dials fresh, so the second
// dial must hit the exchanger's session cache and bump the resumed
// handshake counter.
func TestClientResumesAcrossDials(t *testing.T) {
	addr, cliTLS := startDoT(t, static())
	ex, err := transport.Dial("tls://"+addr, transport.Options{TLS: cliTLS})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	const series = "transport_dot_handshakes_total"
	resumedBefore := testutil.CounterValue(t, series+`{resumed="true"}`)
	fullBefore := testutil.CounterValue(t, series+`{resumed="false"}`)
	for i := 0; i < 2; i++ {
		if _, err := ex.Exchange(context.Background(), dnswire.NewQuery(dns53.NewID(), "google.com", dnswire.TypeA)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := testutil.CounterValue(t, series+`{resumed="false"}`) - fullBefore; got < 1 {
		t.Errorf("full handshakes = %d, want >= 1", got)
	}
	if got := testutil.CounterValue(t, series+`{resumed="true"}`) - resumedBefore; got < 1 {
		t.Errorf("resumed handshakes = %d, want >= 1 (second dial should resume)", got)
	}
}
