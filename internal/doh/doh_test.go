package doh

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
)

func static() dns53.Handler {
	return dns53.Static(map[string][]net.IP{
		"google.com.":    {net.ParseIP("142.250.1.100")},
		"wikipedia.com.": {net.ParseIP("208.80.154.224")},
	})
}

// startDoH stands up an httptest TLS server with the RFC 8484 handler and
// returns its endpoint URL plus a ready client.
func startDoH(t *testing.T, h dns53.Handler, method Method, reuse bool) (string, *Client) {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, &Handler{DNS: h})
	ts := httptest.NewTLSServer(mux)
	t.Cleanup(ts.Close)
	cli := &Client{HTTP: ts.Client(), Method: method}
	if tr, ok := ts.Client().Transport.(*http.Transport); ok {
		tr.DisableKeepAlives = !reuse
	}
	return ts.URL + DefaultPath, cli
}

func TestDoHPOST(t *testing.T) {
	endpoint, c := startDoH(t, static(), MethodPOST, true)
	resp, err := c.Query(context.Background(), endpoint, "google.com", dnswire.TypeA)
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

func TestDoHGET(t *testing.T) {
	endpoint, c := startDoH(t, static(), MethodGET, true)
	resp, err := c.Query(context.Background(), endpoint, "wikipedia.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	// RFC 8484 GETs use ID 0 for cacheability.
	if resp.Header.ID != 0 {
		t.Errorf("GET response ID = %d, want 0", resp.Header.ID)
	}
}

func TestDoHFreshConnections(t *testing.T) {
	endpoint, c := startDoH(t, static(), MethodPOST, false)
	for i := 0; i < 3; i++ {
		c.CloseIdle()
		if _, err := c.Query(context.Background(), endpoint, "google.com", dnswire.TypeA); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

func TestDoHNXDomain(t *testing.T) {
	endpoint, c := startDoH(t, static(), MethodPOST, true)
	resp, err := c.Query(context.Background(), endpoint, "missing.example", dnswire.TypeA)
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
	h := dns53.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, errors.New("resolver exploded")
	})
	endpoint, c := startDoH(t, h, MethodPOST, true)
	resp, err := c.Query(context.Background(), endpoint, "any.example", dnswire.TypeA)
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
	c := &Client{HTTP: ts.Client()}
	_, err := c.Query(context.Background(), ts.URL, "google.com", dnswire.TypeA)
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("err = %v, want *HTTPError", err)
	}
	if he.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d", he.StatusCode)
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

	c := &Client{HTTP: ts.Client()}
	resp, err := c.Query(context.Background(), ts.URL+DefaultPath, "google.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
}

func TestDoHTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	ts := httptest.NewTLSServer(mux)
	defer ts.Close()
	c := &Client{HTTP: ts.Client(), Timeout: 100 * time.Millisecond}
	start := time.Now()
	_, err := c.Query(context.Background(), ts.URL+DefaultPath, "google.com", dnswire.TypeA)
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
