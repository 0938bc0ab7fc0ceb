package doh

import (
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/netip"
	"net/url"
	"strings"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/testutil"
)

func static() dns53.Handler {
	z := authdns.NewZone(".")
	z.AddA("google.com.", 300, netip.MustParseAddr("142.250.1.100"))
	z.AddA("wikipedia.com.", 300, netip.MustParseAddr("208.80.154.224"))
	return z
}

// startDoH stands up an httptest TLS server with the RFC 8484 handler and
// returns its endpoint URL plus a client from NewClient that trusts it.
func startDoH(t *testing.T, h dns53.Handler) (string, *Client) {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: h})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL + DefaultPath, trustingClient(ts)
}

// trustingClient is a client from NewClient that trusts ts.
func trustingClient(ts *httptest.Server) *Client {
	return NewClient(ts.Client().Transport.(*http.Transport).TLSClientConfig, nil)
}

// ask exchanges one query for name and type with endpoint.
func ask(ctx context.Context, c *Client, endpoint, name string, t dnswire.Type) (*dnswire.Message, error) {
	return c.Exchange(ctx, dnswire.NewQuery(dns53.NewID(), name, t), endpoint)
}

func TestDoHPOST(t *testing.T) {
	endpoint, c := startDoH(t, static())
	resp, err := ask(context.Background(), c, endpoint, "google.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp: rcode=%v answers=%d", resp.Header.RCode, len(resp.Answers))
	}
	a := resp.Answers[0].Data.(*dnswire.A)
	if a.Addr.String() != "142.250.1.100" {
		t.Errorf("addr = %v", a.Addr)
	}
}

// TestDoHGET: the server answers an RFC 8484 GET, whose query carries ID
// 0 for cacheability, with ID 0.
func TestDoHGET(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()
	wire, err := dnswire.NewQuery(0, "wikipedia.com", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := ts.Client().Get(ts.URL + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	body, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(body)
	if err != nil {
		t.Fatalf("status %d: %v", httpResp.StatusCode, err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if resp.Header.ID != 0 {
		t.Errorf("GET response ID = %d, want 0", resp.Header.ID)
	}
}

func TestDoHFreshConnections(t *testing.T) {
	endpoint, c := startDoH(t, static())
	for i := 0; i < 3; i++ {
		if _, err := ask(context.Background(), c, endpoint, "google.com", dnswire.TypeA); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

func TestDoHNXDomain(t *testing.T) {
	endpoint, c := startDoH(t, static())
	resp, err := ask(context.Background(), c, endpoint, "missing.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestDoHCacheControlHeader(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()

	q := dnswire.NewQuery(0, "google.com", dnswire.TypeA)
	wire, _ := q.Pack()
	u := ts.URL + DefaultPath + "?dns=" + base64.RawURLEncoding.EncodeToString(wire)
	resp, err := ts.Client().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=300" {
		t.Errorf("Cache-Control = %q, want max-age=300", cc)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestDoHServerRejectsBadRequests(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"GET without dns param", func() (*http.Response, error) {
			return client.Get(ts.URL + DefaultPath)
		}, http.StatusBadRequest},
		{"GET with bad base64", func() (*http.Response, error) {
			return client.Get(ts.URL + DefaultPath + "?dns=!!!not-base64!!!")
		}, http.StatusBadRequest},
		{"GET with junk message", func() (*http.Response, error) {
			b := base64.RawURLEncoding.EncodeToString([]byte("junk"))
			return client.Get(ts.URL + DefaultPath + "?dns=" + b)
		}, http.StatusBadRequest},
		{"POST with wrong content type", func() (*http.Response, error) {
			return client.Post(ts.URL+DefaultPath, "text/plain", strings.NewReader("hi"))
		}, http.StatusUnsupportedMediaType},
		{"POST with junk body", func() (*http.Response, error) {
			return client.Post(ts.URL+DefaultPath, ContentType, strings.NewReader("junk"))
		}, http.StatusBadRequest},
		{"DELETE", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+DefaultPath, nil)
			return client.Do(req)
		}, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

func TestDoHServfailOnHandlerError(t *testing.T) {
	h := testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, errors.New("resolver exploded")
	})
	endpoint, c := startDoH(t, h)
	resp, err := ask(context.Background(), c, endpoint, "any.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestDoHClientClassifiesHTTPErrors(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := trustingClient(ts)
	_, err := ask(context.Background(), c, ts.URL, "google.com", dnswire.TypeA)
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HTTPError", err)
	}
	if he.Status != "503 Service Unavailable" {
		t.Errorf("status = %q", he.Status)
	}
	if !strings.Contains(he.Error(), "503") {
		t.Errorf("message = %q", he.Error())
	}
}

func TestDoHJSONAPI(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + DefaultPath + "?name=google.com&type=A")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != JSONContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	var jr struct {
		Status   int
		Question []struct {
			Name string
			Type int
		}
		Answer []struct {
			Name string
			Type int
			TTL  int
			Data string
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != 0 || len(jr.Answer) != 1 || jr.Answer[0].Data != "142.250.1.100" {
		t.Errorf("json = %+v", jr)
	}
}

// TestDoHJSONOpaqueRData: the JSON dialect renders the RDATA of a type
// the codec does not model, HTTPS here, in the RFC 3597 generic form.
func TestDoHJSONOpaqueRData(t *testing.T) {
	z := authdns.NewZone(".")
	z.Add(dnswire.Record{Name: "example.com.", Type: dnswire.TypeHTTPS, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.Raw{Data: []byte{0, 1, 0, 0, 3, 0, 2, 0x01, 0xBB}}})
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: z})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + DefaultPath + "?name=example.com&type=HTTPS")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr struct {
		Answer []struct {
			Type int
			Data string
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Answer) != 1 || jr.Answer[0].Type != 65 || jr.Answer[0].Data != `\# 9 0001000003000201bb` {
		t.Errorf("json = %+v", jr)
	}
}

func TestDoHJSONNumericTypeAndErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()
	client := ts.Client()

	// Numeric type (1 = A) works.
	resp, err := client.Get(ts.URL + DefaultPath + "?name=google.com&type=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("numeric type status = %d", resp.StatusCode)
	}
	// Bad type string rejected.
	resp, err = client.Get(ts.URL + DefaultPath + "?name=google.com&type=BOGUS")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad type status = %d", resp.StatusCode)
	}
	// Invalid name rejected.
	resp, err = client.Get(ts.URL + DefaultPath + "?name=" + url.QueryEscape(strings.Repeat("a", 300)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("long name status = %d", resp.StatusCode)
	}
}

func TestDoHHTTP2Negotiated(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewUnstartedServer(mux)
	ts.EnableHTTP2 = true
	ts.StartTLS()
	defer ts.Close()

	var proto string
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		TLSHandshakeDone: func(cs tls.ConnectionState, _ error) { proto = cs.NegotiatedProtocol },
	})
	resp, err := ask(ctx, trustingClient(ts), ts.URL+DefaultPath, "google.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if proto != "h2" {
		t.Errorf("negotiated %q, want h2", proto)
	}
}

func TestDoHTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()
	c := trustingClient(ts)
	c.Timeout = 100 * time.Millisecond
	start := time.Now()
	_, err := ask(context.Background(), c, ts.URL+DefaultPath, "google.com", dnswire.TypeA)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > time.Second {
		t.Error("timeout not enforced")
	}
}

func TestDoHOversizedPOSTRejected(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: static()})
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()
	big := strings.NewReader(strings.Repeat("x", maxPOSTBody+10))
	resp, err := ts.Client().Post(ts.URL+DefaultPath, ContentType, big)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}
