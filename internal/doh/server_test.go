package doh

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"encdns/internal/dnswire"
)

// nullWriter is the least http.ResponseWriter there is, so that what a
// direct ServeHTTP call allocates is the handler's.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// TestServeHTTPAllocs pins what a POST costs in ServeHTTP, the path of
// misses, HTTP/1.1 and the net/http reference: the string and the slice
// behind Content-Length and Cache-Control, and nothing else of its own.
func TestServeHTTPAllocs(t *testing.T) {
	h := &Handler{DNS: &testDNS{}}
	query := dnsQuery(t, 1, "hit.test.")
	body := bytes.NewReader(query)
	req, err := http.NewRequest(http.MethodPost, DefaultPath, io.NopCloser(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentType)
	w := &nullWriter{h: make(http.Header)}
	serve := func() {
		body.Reset(query)
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	serve()
	if got := w.h; got.Get("Content-Type") != ContentType || got.Get("Content-Length") != "42" || got.Get("Cache-Control") != "max-age=300" {
		t.Fatalf("header %v", got)
	}
	if raceEnabled {
		return // the pooled buffers and message are reallocated at random
	}
	if allocs := testing.AllocsPerRun(1000, serve); allocs > 3 {
		t.Errorf("%v allocations per POST, want at most 3", allocs)
	}
}

// TestJSONContainsHandlerFailure: the JSON API, which calls the handler
// for a message rather than for bytes, answers a handler error, panic or
// nil response with Status 2 like every other frontend's SERVFAIL.
func TestJSONContainsHandlerFailure(t *testing.T) {
	h := &Handler{DNS: &testDNS{}}
	for _, name := range []string{"error.test", "panic.test"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, DefaultPath+"?name="+name, nil))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"Status":2`)) {
			t.Errorf("%s: %d %s", name, rec.Code, rec.Body)
		}
	}
}

// checkDoHResponse holds a ServeHTTP response to RFC 8484: 200 with a DNS
// message whose length is declared, or an error status.
func checkDoHResponse(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK:
		switch ct := rec.Header().Get("Content-Type"); ct {
		case ContentType:
			if _, err := dnswire.Unpack(rec.Body.Bytes()); err != nil {
				t.Fatalf("200 with a body that is no DNS message: %v", err)
			}
		case JSONContentType: // a spelling whose other parameters ask for JSON
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("200 with a body that is no JSON: %q", rec.Body.Bytes())
			}
		default:
			t.Fatalf("200 with Content-Type %q", ct)
		}
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("status %d", rec.Code)
	}
}

// FuzzDoHGet: any dns= parameter is answered 200 with a DNS message or
// refused with 400; nothing panics.
func FuzzDoHGet(f *testing.F) {
	f.Add(base64.RawURLEncoding.EncodeToString(dnsQuery(f, 0, "hit.test.")))
	f.Add(base64.RawURLEncoding.EncodeToString(dnsQuery(f, 0, "miss.test.")))
	f.Add(base64.StdEncoding.EncodeToString(dnsQuery(f, 0, "nx.test.")) + "==")
	f.Add("")
	f.Add("%zz")
	h := &Handler{DNS: &testDNS{}}
	f.Fuzz(func(t *testing.T, dns string) {
		req := httptest.NewRequest(http.MethodGet, DefaultPath, nil)
		req.URL.RawQuery = "dns=" + url.QueryEscape(dns)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkDoHResponse(t, rec)
		// The spelling the loop takes in line must not change the outcome.
		req.URL.RawQuery = "dns=" + dns
		raw := httptest.NewRecorder()
		h.ServeHTTP(raw, req)
		checkDoHResponse(t, raw)
	})
}

// FuzzDoHPost: any body is answered 200 with a DNS message or refused.
func FuzzDoHPost(f *testing.F) {
	f.Add(dnsQuery(f, 1, "hit.test."))
	f.Add(dnsQuery(f, 2, "error.test."))
	f.Add(dnsQuery(f, 3, "panic.test."))
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	h := &Handler{DNS: &testDNS{}}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, DefaultPath, bytes.NewReader(body))
		req.Header.Set("Content-Type", ContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkDoHResponse(t, rec)
	})
}

// eofConn is a net.Conn whose peer sent in and hung up, and which counts
// what is written to it.
type eofConn struct {
	memConn
	in    *bytes.Reader
	mu    sync.Mutex
	wrote int
}

func (c *eofConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *eofConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrote += len(p)
	return len(p), nil
}

func (c *eofConn) Close() error { return nil }

var _ net.Conn = (*eofConn)(nil)

// FuzzH2Conn: whatever follows the client preface, the loop does not
// panic, returns once the peer has hung up — which it does only after
// every goroutine it started has ended — and has written an amount bounded
// by what it read.
func FuzzH2Conn(f *testing.F) {
	hit, miss := dnsQuery(f, 1, "hit.test."), dnsQuery(f, 2, "miss.test.")
	settings := rawFrame(frameSettings, 0, 0, nil)
	f.Add(bytes.Join([][]byte{settings, postFrames(1, hit), getFrames(3, hit), postFrames(5, miss)}, nil))
	f.Add(bytes.Join([][]byte{settings, requestFrames(1, "GET", "/small", nil), rawFrame(framePing, 0, 0, make([]byte, 8)),
		rawFrame(frameWindowUpdate, 0, 0, u32(100)), rawFrame(frameRSTStream, 0, 1, u32(8))}, nil))
	f.Add(bytes.Join([][]byte{rawFrame(frameSettings, 0, 0, setting(settingInitialWindowSize, 3)), postFrames(1, hit),
		rawFrame(frameWindowUpdate, 0, 1, u32(5)), rawFrame(frameSettings, 0, 0, setting(settingInitialWindowSize, 0))}, nil))
	f.Add(bytes.Join([][]byte{settings, rawFrame(frameHeaders, 0, 1, []byte{0x82}), rawFrame(frameContinuation, flagEndHeaders, 1, []byte{0x87, 0x84}),
		rawFrame(frameData, flagEndStream|flagPadded, 1, []byte{1, 'x', 0})}, nil))
	for _, block := range goClientHeaderBlocks(f) {
		f.Add(append(bytes.Clone(settings), rawFrame(frameHeaders, flagEndHeaders|flagEndStream, 1, block)...))
	}
	h := &Handler{DNS: &testDNS{}}
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, h)
	mux.HandleFunc("/small", func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte("ok")) })
	logf := log.New(io.Discard, "", 0).Printf
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := &eofConn{in: bytes.NewReader(append([]byte(h2ClientPreface), data...))}
		h.serveH2(conn, mux, 0, logf)
		// The largest responses here are a few hundred octets, for requests
		// of at least nine; every other frame is answered with at most its size.
		if limit := 1024 + 64*len(data); conn.wrote > limit {
			t.Fatalf("%d octets written for %d read", conn.wrote, len(data))
		}
	})
}
