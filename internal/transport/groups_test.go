package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"io"
	"net"
	"slices"
	"sync"
	"testing"

	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/doh"
	"encdns/internal/dot"
	"encdns/internal/testutil"
)

// wireConn counts what a connection writes and reads, and keeps its first
// write and the first headMax bytes it read.
type wireConn struct {
	net.Conn
	wrote, read int64
	first, head []byte
}

const headMax = 4096

func (c *wireConn) Write(p []byte) (int, error) {
	if c.first == nil {
		c.first = slices.Clone(p)
	}
	n, err := c.Conn.Write(p)
	c.wrote += int64(n)
	return n, err
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	if room := headMax - len(c.head); room > 0 {
		c.head = append(c.head, p[:min(n, room)]...)
	}
	return n, err
}

// wireDialer dials TCP and keeps every connection it made.
type wireDialer struct {
	mu    sync.Mutex
	conns []*wireConn
}

func (d *wireDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	wc := &wireConn{Conn: c}
	d.mu.Lock()
	d.conns = append(d.conns, wc)
	d.mu.Unlock()
	return wc, nil
}

// helloRetryRandom is the ServerHello.random of a HelloRetryRequest
// (RFC 8446 §4.1.3).
var helloRetryRandom = []byte{
	0xcf, 0x21, 0xad, 0x74, 0xe5, 0x9a, 0x61, 0x11, 0xbe, 0x1d, 0x8c, 0x02, 0x1e, 0x65, 0xb8, 0x91,
	0xc2, 0xa2, 0x11, 0x16, 0x7a, 0xbb, 0x8c, 0x5e, 0x07, 0x9e, 0x09, 0xe2, 0xc8, 0xa8, 0x33, 0x9c,
}

// helloLog records the groups each ClientHello a server saw offered.
type helloLog struct {
	mu     sync.Mutex
	hellos [][]tls.CurveID
}

func (l *helloLog) record(cfg *tls.Config) {
	cfg.GetConfigForClient = func(h *tls.ClientHelloInfo) (*tls.Config, error) {
		l.mu.Lock()
		l.hellos = append(l.hellos, slices.Clone(h.SupportedCurves))
		l.mu.Unlock()
		return nil, nil
	}
}

func (l *helloLog) all() [][]tls.CurveID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.hellos)
}

// startGroupServer serves scheme ("dot" or "doh") on loopback with a
// server config edit may change, and returns the endpoint, its CA and
// the log of the ClientHellos it saw.
func startGroupServer(t *testing.T, scheme string, edit func(*tls.Config)) (string, *certs.CA, *helloLog) {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	log := &helloLog{}
	log.record(srvTLS)
	if edit != nil {
		edit(srvTLS)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if scheme == "doh" {
		serveDoH(t, ln, srvTLS, true)
		return "https://" + ln.Addr().String() + doh.DefaultPath, ca, log
	}
	inner := &dns53.Server{Handler: staticHandler()}
	go (&dot.Server{DNS: inner, TLS: srvTLS}).Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })
	return "tls://" + ln.Addr().String(), ca, log
}

// TestProbeOffersClassicalGroups: every ClientHello a Dial'd tls:// or
// https:// exchanger sends offers X25519 and P-256 and not the hybrid
// X25519MLKEM768, the second exchange resumes, a caller's own
// CurvePreferences are offered as they are, and the caller's config is
// left as it was.
func TestProbeOffersClassicalGroups(t *testing.T) {
	for _, scheme := range []string{"dot", "doh"} {
		t.Run(scheme, func(t *testing.T) {
			endpoint, ca, log := startGroupServer(t, scheme, nil)
			cfg := ca.ClientConfig("127.0.0.1")
			ex, err := Dial(endpoint, Options{TLS: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			resumed := "transport_" + scheme + `_handshakes_total{resumed="true"}`
			before := testutil.CounterValue(t, resumed)
			exchangeQuery(t, ex)
			exchangeQuery(t, ex)
			if n := testutil.CounterValue(t, resumed) - before; n != 1 {
				t.Errorf("%d of two exchanges resumed, want the second", n)
			}
			hellos := log.all()
			if len(hellos) != 2 {
				t.Fatalf("%d ClientHellos for two exchanges", len(hellos))
			}
			for i, groups := range hellos {
				if !slices.Contains(groups, tls.X25519) || !slices.Contains(groups, tls.CurveP256) || slices.Contains(groups, tls.X25519MLKEM768) {
					t.Errorf("ClientHello %d offered %v, want X25519 and P-256 without X25519MLKEM768", i, groups)
				}
			}
			if cfg.CurvePreferences != nil || cfg.ClientSessionCache != nil || cfg.NextProtos != nil || cfg.ServerName != "127.0.0.1" {
				t.Errorf("the caller's config changed: groups %v, session cache %v, ALPN %v, name %q",
					cfg.CurvePreferences, cfg.ClientSessionCache, cfg.NextProtos, cfg.ServerName)
			}

			own := ca.ClientConfig("127.0.0.1")
			own.CurvePreferences = []tls.CurveID{tls.X25519MLKEM768, tls.X25519}
			ex, err = Dial(endpoint, Options{TLS: own})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			exchangeQuery(t, ex)
			if got := log.all()[2]; !slices.Equal(got, own.CurvePreferences) {
				t.Errorf("with CurvePreferences %v the ClientHello offered %v", own.CurvePreferences, got)
			}
		})
	}
}

// TestProbeReachesP256OnlyServer: a resolver that speaks only P-256 gets
// the probe's X25519 key share, asks for P-256 by HelloRetryRequest and
// answers, over tls:// and https://, full and resumed.
func TestProbeReachesP256OnlyServer(t *testing.T) {
	for _, scheme := range []string{"dot", "doh"} {
		t.Run(scheme, func(t *testing.T) {
			endpoint, ca, _ := startGroupServer(t, scheme, func(cfg *tls.Config) {
				cfg.CurvePreferences = []tls.CurveID{tls.CurveP256}
			})
			d := &wireDialer{}
			ex, err := Dial(endpoint, Options{TLS: ca.ClientConfig("127.0.0.1"), Dialer: d})
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			exchangeQuery(t, ex)
			exchangeQuery(t, ex)
			for i, c := range d.conns {
				if !bytes.Contains(c.head, helloRetryRandom) {
					t.Errorf("connection %d: no HelloRetryRequest in the server's first %d bytes", i, len(c.head))
				}
			}
		})
	}
}

// TestProbeClientHelloFitsOneSegment: the probe's ClientHello, its first
// write, fits one 1460-byte TCP segment, so the middlebox model, which
// sees one write as one segment, sees it as a first-segment middlebox
// would. The default groups' hybrid key share makes the ClientHello
// larger; the test logs its size beside the probe's.
func TestProbeClientHelloFitsOneSegment(t *testing.T) {
	const mss = 1460
	for _, scheme := range []string{"dot", "doh"} {
		t.Run(scheme, func(t *testing.T) {
			endpoint, ca, _ := startGroupServer(t, scheme, nil)
			hello := func(groups []tls.CurveID) int {
				t.Helper()
				cfg := ca.ClientConfig("127.0.0.1")
				cfg.CurvePreferences = groups
				d := &wireDialer{}
				ex, err := Dial(endpoint, Options{TLS: cfg, Dialer: d})
				if err != nil {
					t.Fatal(err)
				}
				defer ex.Close()
				exchangeQuery(t, ex)
				return len(d.conns[0].first)
			}
			probe := hello(nil)
			hybrid := hello([]tls.CurveID{tls.X25519MLKEM768, tls.X25519, tls.CurveP256, tls.CurveP384, tls.CurveP521})
			t.Logf("ClientHello: %d bytes with the probe's groups, %d with Go's defaults", probe, hybrid)
			if probe > mss {
				t.Errorf("the probe's ClientHello is %d bytes, more than one %d-byte segment", probe, mss)
			}
		})
	}
}

// BenchmarkTLSHandshake prices one connection as the probe makes it:
// connect, TLS 1.3 handshake and a one-byte echo over loopback, both ends
// in this process, full (no session cache) and resumed, with Go's default
// groups (X25519MLKEM768 first) and with classicalGroups. c2s-B/op and
// s2c-B/op are the bytes each way, counted on the client's connection.
//
// Verdict: the hybrid key share costs two fifths of a resumed
// handshake's wall time and 3.4-3.6 times its bytes, for a group the
// paper's probes could not offer; Dial offers classicalGroups. On a
// 2-vCPU Xeon, go1.24.0, -count 4:
//
//	handshake  groups     ns/op            c2s-B/op  s2c-B/op
//	full       default    1.60-1.74 ms     1 564     2 299
//	full       classical  1.18-1.29 ms       342     1 211
//	resumed    default    1.17-1.31 ms     1 726     1 504
//	resumed    classical  0.73-0.75 ms       504       415
func BenchmarkTLSHandshake(b *testing.B) {
	ca, err := certs.NewCA(0)
	if err != nil {
		b.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tc := tls.Server(c, srvTLS)
				var one [1]byte
				if _, err := io.ReadFull(tc, one[:]); err == nil {
					_, _ = tc.Write(one[:])
				}
				tc.Close()
			}()
		}
	}()
	b.Cleanup(func() { ln.Close(); wg.Wait() })

	echo := func(b *testing.B, cfg *tls.Config) *wireConn {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		wc := &wireConn{Conn: c}
		tc := tls.Client(wc, cfg)
		defer tc.Close()
		var one [1]byte
		if _, err := tc.Write(one[:]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(tc, one[:]); err != nil {
			b.Fatal(err)
		}
		return wc
	}
	for _, handshake := range []string{"full", "resumed"} {
		for _, groups := range []struct {
			name  string
			curve []tls.CurveID
		}{{"default", nil}, {"classical", classicalGroups}} {
			b.Run(handshake+"/"+groups.name, func(b *testing.B) {
				cfg := ca.ClientConfig("127.0.0.1")
				cfg.CurvePreferences = groups.curve
				if handshake == "resumed" {
					cfg.ClientSessionCache = tls.NewLRUClientSessionCache(1)
					echo(b, cfg)
				}
				var c2s, s2c int64
				for b.Loop() {
					wc := echo(b, cfg)
					c2s += wc.wrote
					s2c += wc.read
				}
				b.ReportMetric(float64(c2s)/float64(b.N), "c2s-B/op")
				b.ReportMetric(float64(s2c)/float64(b.N), "s2c-B/op")
			})
		}
	}
}
