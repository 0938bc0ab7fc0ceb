package doh_test

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/obs"
	"encdns/internal/obshttp"
	"encdns/internal/resolver"
)

// diffResolver is a cache that answers www.example.com. from a wire
// template (a fixed clock keeps its TTL still) in front of a ServeDNS
// scripted by query name.
type diffResolver struct{ *resolver.Forwarder }

func newDiffResolver() diffResolver {
	now := time.Unix(1700000000, 0)
	cache := resolver.NewCache(256, func() time.Time { return now })
	cache.PutRRset("www.example.com.", dnswire.TypeA, []dnswire.Record{{
		Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}})
	return diffResolver{&resolver.Forwarder{Cache: cache}}
}

func (h diffResolver) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	q0 := q.Question0()
	r := q.Reply()
	r.Header.RA = true
	switch q0.Name {
	case "miss.example.com.":
		r.Answers = []dnswire.Record{{Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")}}}
	case "nx.example.com.":
		r.Header.RCode = dnswire.RCodeNXDomain
	case "error.example.com.":
		return nil, errors.New("upstream on fire")
	case "panic.example.com.":
		panic("boom")
	default:
		return h.Forwarder.ServeDNS(ctx, q)
	}
	return r, nil
}

// inMemoryDiffResolver is diffResolver promising to answer from memory
// (its misses are scripted), so the loop answers its misses and failures
// in line instead of handing them to net/http.
type inMemoryDiffResolver struct{ diffResolver }

func (inMemoryDiffResolver) InMemory() bool { return true }

// startH2Pair serves one mux — a DoH handler over dns, and /metrics over a
// registry nothing else touches — over HTTP/2 twice: by net/http's own
// server, the reference, and by the burst loop.
func startH2Pair(t *testing.T, dns dns53.Handler) (reference, loop *httptest.Server) {
	t.Helper()
	h := &doh.Handler{DNS: dns}
	reg := obs.NewRegistry()
	reg.Counter("differential_test_total", "A series that never moves.").Add(42)
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, h)
	mux.Handle("/metrics", obshttp.NewHandler(reg, nil))
	start := func(hook bool) *httptest.Server {
		ts := httptest.NewUnstartedServer(mux)
		ts.EnableHTTP2 = true
		ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the panicking handler is expected
		if hook {
			ts.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": h.ServeH2}
		}
		ts.StartTLS()
		t.Cleanup(ts.Close)
		return ts
	}
	return start(false), start(true)
}

func packed(t *testing.T, id uint16, name string) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, name, dnswire.TypeA).AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestH2LoopMatchesNetHTTP sends one request mix through both servers with
// net/http's client and requires the same status, Content-Type,
// Cache-Control, Content-Length, Allow and body from each: once behind a
// resolver whose misses the loop hands to net/http, once behind one whose
// misses it answers itself.
func TestH2LoopMatchesNetHTTP(t *testing.T) {
	reference, loop := startH2Pair(t, newDiffResolver())
	matchNetHTTP(t, reference, loop, "")
	reference, loop = startH2Pair(t, inMemoryDiffResolver{newDiffResolver()})
	fallback := obs.Default().Counter("doh_h2_requests_total", "", "path", "fallback")
	f0 := fallback.Value()
	for i, name := range []string{"miss.example.com.", "error.example.com.", "panic.example.com."} {
		req, _ := http.NewRequest(http.MethodPost, loop.URL+doh.DefaultPath, bytes.NewReader(packed(t, uint16(i), name)))
		req.Header.Set("Content-Type", doh.ContentType)
		resp, err := loop.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if f := fallback.Value() - f0; f != 0 {
		t.Errorf("%d of an in-memory resolver's misses and failures went to net/http, want none", f)
	}
	matchNetHTTP(t, reference, loop, "in memory: ")
}

func matchNetHTTP(t *testing.T, reference, loop *httptest.Server, prefix string) {
	post := func(body []byte, contentType string) func(string) *http.Request {
		return func(base string) *http.Request {
			req, _ := http.NewRequest(http.MethodPost, base+doh.DefaultPath, bytes.NewReader(body))
			if contentType != "" {
				req.Header.Set("Content-Type", contentType)
			}
			return req
		}
	}
	get := func(method, target string, header ...string) func(string) *http.Request {
		return func(base string) *http.Request {
			req, _ := http.NewRequest(method, base+target, nil)
			for i := 0; i < len(header); i += 2 {
				req.Header.Set(header[i], header[i+1])
			}
			return req
		}
	}
	b64 := func(wire []byte) string { return base64.RawURLEncoding.EncodeToString(wire) }
	hit := packed(t, 0x1234, "www.example.com.")
	response := bytes.Clone(hit)
	response[2] |= 0x80 // QR: a response is no query
	for _, tc := range []struct {
		name   string
		status int
		build  func(base string) *http.Request
	}{
		{"POST hit", 200, post(hit, doh.ContentType)},
		{"POST hit, no content type", 200, post(hit, "")},
		{"POST hit, content type with a parameter", 200, post(hit, doh.ContentType+"; charset=binary")},
		{"GET hit", 200, get("GET", doh.DefaultPath+"?dns="+b64(hit), "Accept", doh.ContentType)},
		{"GET hit, more parameters", 200, get("GET", doh.DefaultPath+"?x=1&dns="+b64(hit))},
		{"miss", 200, post(packed(t, 2, "miss.example.com."), doh.ContentType)},
		{"GET miss", 200, get("GET", doh.DefaultPath+"?dns="+b64(packed(t, 0, "miss.example.com.")))},
		{"NXDOMAIN", 200, post(packed(t, 3, "nx.example.com."), doh.ContentType)},
		{"handler error", 200, post(packed(t, 4, "error.example.com."), doh.ContentType)},
		{"handler panic", 200, post(packed(t, 5, "panic.example.com."), doh.ContentType)},
		{"malformed DNS body", 400, post([]byte("not a DNS message"), doh.ContentType)},
		{"a response (QR set)", 400, post(response, doh.ContentType)},
		{"GET a response (QR set)", 400, get("GET", doh.DefaultPath+"?dns="+b64(response))},
		{"empty body", 400, post(nil, doh.ContentType)},
		{"GET without dns", 400, get("GET", doh.DefaultPath)},
		{"GET with bad base64", 400, get("GET", doh.DefaultPath+"?dns=@@@")},
		{"GET with padded base64", 400, get("GET", doh.DefaultPath+"?dns="+b64(hit)+"=")},
		{"wrong content type", 415, post(hit, "text/plain")},
		{"64 KiB + 1 body", 413, post(make([]byte, 64<<10+1), doh.ContentType)},
		{"largest body", 400, post(make([]byte, 65535), doh.ContentType)},
		{"JSON by name", 200, get("GET", doh.DefaultPath+"?name=www.example.com&type=A")},
		{"JSON by Accept", 200, get("GET", doh.DefaultPath+"?name=miss.example.com", "Accept", doh.JSONContentType)},
		{"JSON handler panic", 200, get("GET", doh.DefaultPath+"?name=panic.example.com")},
		{"JSON asked for with a dns parameter", 400, get("GET", doh.DefaultPath+"?dns="+b64(hit), "Accept", doh.JSONContentType)},
		{"/metrics", 200, get("GET", "/metrics")},
		{"HEAD /metrics", 200, get("HEAD", "/metrics")},
		{"unknown path", 404, get("GET", "/nowhere")},
		{"PUT", 405, get("PUT", doh.DefaultPath)},
		{"HEAD", 405, get("HEAD", doh.DefaultPath+"?dns="+b64(hit))},
	} {
		t.Run(prefix+tc.name, func(t *testing.T) {
			type result struct {
				status int
				header [5]string
				body   []byte
			}
			var got [2]result
			for i, ts := range []*httptest.Server{reference, loop} {
				resp, err := ts.Client().Do(tc.build(ts.URL))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.ProtoMajor != 2 {
					t.Fatalf("%s, reading the body: %v", resp.Proto, err)
				}
				got[i] = result{resp.StatusCode, [5]string{resp.Header.Get("Content-Type"), resp.Header.Get("Cache-Control"),
					resp.Header.Get("Content-Length"), resp.Header.Get("Allow"), resp.Header.Get("X-Content-Type-Options")}, body}
				if resp.Header.Get("Date") == "" {
					t.Errorf("server %d sent no Date", i)
				}
			}
			if got[0].status != tc.status {
				t.Errorf("net/http answers %d, the test expects %d", got[0].status, tc.status)
			}
			if got[0].status != got[1].status || got[0].header != got[1].header || !bytes.Equal(got[0].body, got[1].body) {
				t.Errorf("the loop differs from net/http:\n got %d %q %q\nwant %d %q %q", got[1].status, got[1].header,
					got[1].body, got[0].status, got[0].header, got[0].body)
			}
			if tc.status == 200 && strings.HasPrefix(tc.name, "JSON handler") && !bytes.Contains(got[1].body, []byte(`"Status":2`)) {
				t.Errorf("a panicking handler behind the JSON API: %s, want Status 2", got[1].body)
			}
		})
	}
}
