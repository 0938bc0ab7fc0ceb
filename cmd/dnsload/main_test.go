package main

import (
	"bytes"
	"encoding/json"
	"encoding/pem"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/doh"
	"encdns/internal/resolver"
)

// testDomain is the one name the static test targets answer.
const testDomain = "bench.example."

func staticHandler() dns53.Handler {
	return dns53.Static(map[string][]net.IP{testDomain: {net.ParseIP("192.0.2.1")}})
}

// serveUDP serves h on a loopback UDP socket and returns its udp://
// endpoint.
func serveUDP(t *testing.T, h dns53.Handler) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &dns53.Server{Handler: h}
	go srv.ServeUDP(pc)
	t.Cleanup(srv.Shutdown)
	return "udp://" + pc.LocalAddr().String()
}

// openLoopJSON runs dnsload with args plus -json and checks the summary
// of an open-loop run that must have answered nearly everything.
func openLoopJSON(t *testing.T, args ...string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-json"), &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	var s struct {
		Mode      string  `json:"mode"`
		Offered   uint64  `json:"offered"`
		Received  uint64  `json:"received"`
		ErrorRate float64 `json:"error_rate"`
		P99Ms     float64 `json:"p99_ms"`
	}
	// -json output must be pure JSON (no banner lines) so scripts can
	// pipe it straight into a decoder.
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if s.Mode != "open" || s.Offered == 0 || s.Received == 0 {
		t.Fatalf("no traffic recorded: %+v", s)
	}
	if s.ErrorRate > 0.05 {
		t.Fatalf("error rate %.2f against a loopback server", s.ErrorRate)
	}
	if s.P99Ms <= 0 {
		t.Fatalf("p99 %.3fms, want > 0", s.P99Ms)
	}
}

func TestDo53OpenLoopJSON(t *testing.T) {
	openLoopJSON(t, "-targets", serveUDP(t, staticHandler()), "-domains", testDomain,
		"-rate", "200", "-duration", "500ms", "-arrivals", "constant", "-timeout", "1s")
}

// TestRecursiveOpenLoopJSON loads the full resolver stack — a caching
// recursive resolver with SRTT selection, hedging and refresh-ahead over
// the in-memory authoritative hierarchy — with the default
// measurement-domain mix, so concurrent hedged walks run over real
// sockets. After the first walks everything is cache-hot, so errors mean
// the resolver stack is broken, not slow.
func TestRecursiveOpenLoopJSON(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	rec := &resolver.Recursive{
		Exchange:         h.Registry,
		Roots:            h.RootServers,
		Cache:            resolver.NewCache(65536, nil),
		Infra:            resolver.NewInfra(nil),
		Hedge:            true,
		PrefetchFraction: 0.1,
	}
	t.Cleanup(rec.Close)
	openLoopJSON(t, "-targets", serveUDP(t, rec),
		"-rate", "200", "-duration", "500ms", "-arrivals", "constant", "-timeout", "2s")
}

func TestDoHClosedLoop(t *testing.T) {
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	serverTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: staticHandler()})
	hs := &http.Server{Handler: mux, TLSConfig: serverTLS}
	go hs.ServeTLS(ln, "", "")
	t.Cleanup(func() { hs.Close() })
	caPath := filepath.Join(t.TempDir(), "ca.pem")
	if err := os.WriteFile(caPath, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Cert.Raw}), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	err = run([]string{
		"-targets", "https://" + ln.Addr().String() + doh.DefaultPath, "-cacert", caPath,
		"-domains", testDomain,
		"-mode", "closed", "-workers", "4", "-duration", "500ms", "-timeout", "2s",
	}, &buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "closed loop") {
		t.Fatalf("missing summary:\n%s", out)
	}
	if strings.Contains(out, "received 0,") {
		t.Fatalf("no DoH exchanges succeeded:\n%s", out)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                      // no targets
		{"-targets", "ftp://x"}, // bad scheme
		{"-targets", "1.1.1.1", "-mode", "sideways"},
		{"-targets", "1.1.1.1", "-arrivals", "fibonacci"},
		{"-targets", "1.1.1.1", "-qtypes", "BOGUS"},
		{"-targets", "1.1.1.1", "-capacity"},     // no longer a flag
		{"-targets", "1.1.1.1", "-self", "do53"}, // no longer a flag
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}
