package doh

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/testutil"
)

// startServeH2 serves the DoH handler over testDNS the way cmd/dohserver
// does — HTTP/2 connections to ServeH2 — and returns its endpoint and a TLS
// config that trusts it.
func startServeH2(t *testing.T) (string, *tls.Config) {
	t.Helper()
	h := &Handler{DNS: &testDNS{}}
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, h)
	ts := httptest.NewUnstartedServer(mux)
	ts.EnableHTTP2 = true
	ts.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": h.ServeH2}
	ts.StartTLS()
	t.Cleanup(ts.Close)
	return ts.URL + DefaultPath, ts.Client().Transport.(*http.Transport).TLSClientConfig
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
// seven), one full handshake per client and a resumed one on every later
// probe, and no net/http client anywhere.
func TestFreshProbeShape(t *testing.T) {
	endpoint, cfg := startServeH2(t)
	d := &countingDialer{}
	c := NewClient(cfg, d, false)
	full, resumed := handshakesFull.Value(), handshakesResumed.Value()
	for i := range 4 {
		before := d.writes.Load()
		resp, err := c.Query(context.Background(), endpoint, "hit.test.", dnswire.TypeA)
		if err != nil || len(resp.Answers) != 1 {
			t.Fatalf("probe %d: %v %v", i, resp, err)
		}
		if writes := d.writes.Load() - before; writes != 5 {
			t.Errorf("probe %d: %d client writes, want 5", i, writes)
		}
	}
	if got := handshakesFull.Value() - full; got != 1 {
		t.Errorf("%d full handshakes, want 1", got)
	}
	if got := handshakesResumed.Value() - resumed; got != 3 {
		t.Errorf("%d resumed handshakes, want 3", got)
	}
	if c.HTTP != nil {
		t.Error("a fresh-connection client built an http.Client")
	}
}

// TestFreshConcurrentProbes shares one fresh-connection client among
// goroutines asking two endpoints, so its endpoint cache changes hands
// under them (run with -race).
func TestFreshConcurrentProbes(t *testing.T) {
	first, cfg := startServeH2(t)
	second := first + "?probe=2" // the same path to the handler, another endpoint to the client
	c := NewClient(cfg, nil, false)
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
				if _, err := c.Query(context.Background(), endpoint, "hit.test.", dnswire.TypeA); err != nil {
					t.Errorf("%s: %v", endpoint, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestAppendHeadersSplitsBlock: a header block over one frame goes out as
// HEADERS and CONTINUATION frames; END_STREAM, which only HEADERS may
// carry, is on the first and END_HEADERS on the last (RFC 9113 §6.10).
// The client's requests and the server's responses both take this path.
func TestAppendHeadersSplitsBlock(t *testing.T) {
	block := bytes.Repeat([]byte{0x88}, 2*h2MaxFrame+10)
	out := appendHeaders(nil, true, 3, block)
	var got []byte
	for i, want := range []struct{ typ, flags byte }{
		{frameHeaders, flagEndStream}, {frameContinuation, 0}, {frameContinuation, flagEndHeaders},
	} {
		n := int(out[0])<<16 | int(out[1])<<8 | int(out[2])
		if out[3] != want.typ || out[4] != want.flags || out[8] != 3 {
			t.Errorf("frame %d: type %d flags %#x stream %d", i, out[3], out[4], out[8])
		}
		got, out = append(got, out[9:9+n]...), out[9+n:]
	}
	if len(out) != 0 || !bytes.Equal(got, block) {
		t.Errorf("%d octets left over; block reassembled: %v", len(out), bytes.Equal(got, block))
	}
	if out := appendHeaders(nil, false, 1, []byte{0x88}); !bytes.Equal(out, rawFrame(frameHeaders, flagEndHeaders, 1, []byte{0x88})) {
		t.Errorf("a one-frame block: %x", out)
	}
}

// dialerFunc adapts a function to dns53.ContextDialer.
type dialerFunc func(ctx context.Context, network, addr string) (net.Conn, error)

func (f dialerFunc) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	return f(ctx, network, addr)
}

// stallConn blocks every Write once armed, until it is closed.
type stallConn struct {
	net.Conn
	armed   *atomic.Bool
	stalled chan<- struct{}
	closed  chan struct{}
	once    sync.Once
}

func (c *stallConn) Write(p []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(p)
	}
	select {
	case c.stalled <- struct{}{}:
	default:
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
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
	return "https://" + ln.Addr().String() + DefaultPath, ca.ClientConfig("127.0.0.1")
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
					return &stallConn{Conn: c, armed: armed, stalled: reached, closed: make(chan struct{})}, nil
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
			dial, hooks := tc.setup(reached)
			c := NewClient(tc.tls, nil, false)
			if dial != nil {
				c = NewClient(tc.tls, dial, false)
			}
			ctx, cancel := context.WithCancel(httptrace.WithClientTrace(context.Background(), hooks))
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := c.Query(ctx, tc.endpoint, "hit.test.", dnswire.TypeA)
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

// fuzzConn is a server that sent in and hung up; it counts what is
// written back.
type fuzzConn struct {
	in    *bytes.Reader
	wrote int
}

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { c.wrote += len(p); return len(p), nil }

// FuzzFreshResponse drives the fresh-connection response reader, over
// HTTP/2 and over HTTP/1.1, with whatever a server might send. It must not
// panic, must return once the input is exhausted, must write no more than
// it read (acknowledgements only), must hold no more than a frame and a DNS
// message, and must return a message only when it answers the query.
func FuzzFreshResponse(f *testing.F) {
	query := dnswire.NewQuery(0x4242, "hit.test.", dnswire.TypeA)
	answer, err := query.Reply().Pack()
	if err != nil {
		f.Fatal(err)
	}
	settings := rawFrame(frameSettings, 0, 0, nil)
	ok200 := append([]byte{0x88}, encodeFields(false, "content-type", ContentType)...)
	f.Add(bytes.Join([][]byte{settings, rawFrame(frameHeaders, flagEndHeaders, 1, ok200), rawFrame(frameData, flagEndStream, 1, answer)}, nil))
	f.Add(bytes.Join([][]byte{settings, rawFrame(framePing, 0, 0, make([]byte, 8)), rawFrame(frameHeaders, flagEndHeaders, 1, encodeFields(true, ":status", "103")),
		rawFrame(frameHeaders, flagPadded, 1, append([]byte{2, 0x88}, 0, 0)), rawFrame(frameContinuation, flagEndHeaders, 1, nil),
		rawFrame(frameData, flagPadded, 1, append(append([]byte{1}, answer...), 0)), rawFrame(frameHeaders, flagEndHeaders|flagEndStream, 1, encodeFields(false, "x", "y"))}, nil))
	f.Add(bytes.Join([][]byte{settings, rawFrame(frameGoAway, 0, 0, append(u32(1), u32(0)...)), rawFrame(frameHeaders, flagEndHeaders, 1, []byte{0x48, 3, '2', '0', '0'}),
		rawFrame(frameHeaders, flagEndHeaders|flagEndStream, 1, []byte{0xbe})}, nil))
	f.Add(bytes.Join([][]byte{settings, rawFrame(frameRSTStream, 0, 1, u32(2))}, nil))
	f.Add(append([]byte("HTTP/1.1 200 OK\r\nContent-Type: "+ContentType+"\r\nContent-Length: "+strconv.Itoa(len(answer))+"\r\n\r\n"), answer...))
	f.Add(append([]byte("HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"+strconv.FormatInt(int64(len(answer)), 16)+"\r\n"),
		append(answer, "\r\n0\r\nX-Done: 1\r\n\r\n"...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, h2 := range []bool{true, false} {
			conn := &fuzzConn{in: bytes.NewReader(data)}
			in, body := make([]byte, 0, 4096), make([]byte, 0, 4096)
			msg, err := readResponse(conn, h2, query, &httptrace.ClientTrace{}, &in, &body)
			if conn.wrote > len(data) {
				t.Fatalf("h2 %v: %d octets written for %d read", h2, conn.wrote, len(data))
			}
			if cap(in) > 2*(h2FrameHeaderLen+h2MaxFrame) || cap(body) > 2*dnswire.MaxMessageSize {
				t.Fatalf("h2 %v: buffers grew to %d and %d octets", h2, cap(in), cap(body))
			}
			if err != nil {
				continue
			}
			if dns53.CheckResponse(query, msg) != nil || !h2 && !bytes.Contains(data, []byte(" 200")) {
				t.Fatalf("h2 %v: returned %v", h2, msg)
			}
		}
	})
}
