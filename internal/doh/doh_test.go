package doh

import (
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"strings"
	"testing"

	"encdns/internal/authdns"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
)

func static() dns53.Handler {
	z := authdns.NewZone(".")
	z.AddA("google.com.", 300, netip.MustParseAddr("142.250.1.100"))
	z.AddA("wikipedia.com.", 300, netip.MustParseAddr("208.80.154.224"))
	return z
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
