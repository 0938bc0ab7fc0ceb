package main

import (
	"bytes"
	"encoding/pem"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/cluster"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/dot"
	"encdns/internal/keyhash"
	"encdns/internal/resolver"
)

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

// startDo53 serves a handler over loopback UDP+TCP and returns the addr.
func startDo53(t *testing.T, h dns53.Handler) string {
	t.Helper()
	srv := &dns53.Server{Handler: h}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	t.Cleanup(srv.Shutdown)
	return pc.LocalAddr().String()
}

func static() dns53.Handler {
	z := authdns.NewZone(".")
	z.AddA("google.com.", 300, netip.MustParseAddr("142.250.64.78"))
	return z
}

func TestDo53Query(t *testing.T) {
	addr := startDo53(t, static())
	out, err := capture(t, "-server", addr, "google.com", "A")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NOERROR", "142.250.64.78", "Query time", "(udp)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestSchemeAddressedServer checks that an explicit scheme on -server
// selects the transport regardless of -proto.
func TestSchemeAddressedServer(t *testing.T) {
	addr := startDo53(t, static())
	out, err := capture(t, "-server", "udp://"+addr, "-proto", "doh", "google.com")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"142.250.64.78", "(udp)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestShortOutput(t *testing.T) {
	addr := startDo53(t, static())
	out, err := capture(t, "-server", addr, "-short", "google.com")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "142.250.64.78" {
		t.Errorf("short output = %q", out)
	}
}

func TestDoTQuery(t *testing.T) {
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: static()}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })

	// Write the CA for -cacert.
	caPath := filepath.Join(t.TempDir(), "ca.pem")
	if err := os.WriteFile(caPath, pemEncode(ca), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "-proto", "dot", "-server", ln.Addr().String(),
		"-cacert", caPath, "google.com")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "142.250.64.78") {
		t.Errorf("answer missing:\n%s", out)
	}

	// The same server reached through an explicit tls:// scheme.
	out, err = capture(t, "-server", "tls://"+ln.Addr().String(),
		"-cacert", caPath, "google.com")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"142.250.64.78", "(tls)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func pemEncode(ca *certs.CA) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: ca.Cert.Raw})
}

func TestDoHQueryInsecure(t *testing.T) {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	rec := &resolver.Recursive{Exchange: h.Registry, Roots: h.RootServers,
		Cache: resolver.NewCache(256, nil), RNGSeed: 1}
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, &doh.Handler{DNS: rec})
	ca, _ := certs.NewCA(0)
	tlsCfg, _ := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux, TLSConfig: tlsCfg}
	go hs.ServeTLS(ln, "", "")
	t.Cleanup(func() { hs.Close() })

	out, err := capture(t, "-proto", "doh", "-insecure",
		"-server", "https://"+ln.Addr().String()+doh.DefaultPath, "wikipedia.com")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "208.80.154.232") {
		t.Errorf("answer missing:\n%s", out)
	}
}

// startLoopbackHierarchy serves a three-level delegation chain (root →
// com. → example.com.) over real loopback UDP sockets, one 127.0.0.x
// address per name server on a shared random port. It returns the root
// server address and the shared port.
func startLoopbackHierarchy(t *testing.T) (rootAddr string, port int) {
	t.Helper()
	leafIP := netip.MustParseAddr("127.0.0.3")
	comIP := netip.MustParseAddr("127.0.0.2")
	rootIP := netip.MustParseAddr("127.0.0.1")

	root := authdns.NewZone(".")
	root.SetSOA("a.root.test.", "root.test.", 1, 300)
	root.Delegate("com.", map[string]netip.Addr{"ns.com.": comIP})

	com := authdns.NewZone("com.")
	com.SetSOA("ns.com.", "h.com.", 1, 300)
	com.Delegate("example.com.", map[string]netip.Addr{"ns.example.com.": leafIP})

	leaf := authdns.NewZone("example.com.")
	leaf.SetSOA("ns.example.com.", "h.example.com.", 1, 300)
	leaf.AddA("www.example.com.", 300, netip.MustParseAddr("192.0.2.80"))

	// Bind the same random port on all three loopback addresses.
	rootPC, err := net.ListenPacket("udp", rootIP.String()+":0")
	if err != nil {
		t.Fatal(err)
	}
	port = rootPC.LocalAddr().(*net.UDPAddr).Port
	comPC, err := net.ListenPacket("udp", fmt.Sprintf("%s:%d", comIP, port))
	if err != nil {
		t.Skipf("cannot bind %s:%d: %v", comIP, port, err)
	}
	leafPC, err := net.ListenPacket("udp", fmt.Sprintf("%s:%d", leafIP, port))
	if err != nil {
		t.Skipf("cannot bind %s:%d: %v", leafIP, port, err)
	}
	for _, pair := range []struct {
		pc net.PacketConn
		z  *authdns.Zone
	}{{rootPC, root}, {comPC, com}, {leafPC, leaf}} {
		srv := &dns53.Server{Handler: pair.z}
		go srv.ServeUDP(pair.pc)
		t.Cleanup(srv.Shutdown)
	}
	return fmt.Sprintf("%s:%d", rootIP, port), port
}

// TestTraceOverRealUDP serves the full authoritative hierarchy over real
// loopback UDP sockets (one 127.0.0.x address per name server, shared
// port) and walks it with -trace — dig +trace against our own root.
func TestTraceOverRealUDP(t *testing.T) {
	rootAddr, port := startLoopbackHierarchy(t)
	out, err := capture(t, "-trace",
		"-roots", rootAddr,
		"-glue-port", fmt.Sprintf("%d", port),
		"www.example.com")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"zone . via", "zone com.", "zone example.com.", "192.0.2.80"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestSpanTrace queries an in-process DoT server with -trace (and no
// -roots): the output must carry the span tree with the dial, TLS
// handshake, and exchange phases the transport recorded.
func TestSpanTrace(t *testing.T) {
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: static()}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })
	caPath := filepath.Join(t.TempDir(), "ca.pem")
	if err := os.WriteFile(caPath, pemEncode(ca), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, "-trace", "-server", "tls://"+ln.Addr().String(),
		"-cacert", caPath, "google.com")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"142.250.64.78",
		";; Trace:",
		"dnsdig google.com A via tls://",
		"attempt (scheme=tls)",
		"dial",
		"tls-handshake",
		"exchange",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span trace missing %q:\n%s", want, out)
		}
	}
}

func TestArgErrors(t *testing.T) {
	cases := [][]string{
		{},                                // no name
		{"-proto", "carrier-pigeon", "x"}, // bad proto... needs server? checked after parse
		{"bad..name"},
		{"example.com", "WAT"},
		{"-cacert", "/nonexistent/ca.pem", "example.com"},
	}
	for _, args := range cases {
		if _, err := capture(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestInfraRequiresRoots checks that -infra is refused, with or without
// -roots: latency-aware recursion is deleted, and so are -eyeballs and
// -stagger, the happy-eyeballs flags beside it. Each is an undefined flag.
func TestInfraRequiresRoots(t *testing.T) {
	for _, args := range [][]string{
		{"-infra", "example.com"},
		{"-infra", "-roots", "127.0.0.1:53", "example.com"},
		{"-eyeballs", "example.com"},
		{"-stagger=1s", "example.com"},
	} {
		if _, err := capture(t, args...); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("args %v: %v, want an undefined flag", args, err)
		}
	}
}

// TestChainFlag queries a real DoT server through a -chain dialer: the
// ClientHello goes out fragmented (the server reassembles it per RFC
// 8446), the answer comes back, and the SERVER line names the chain.
func TestChainFlag(t *testing.T) {
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	inner := &dns53.Server{Handler: static()}
	srv := &dot.Server{DNS: inner, TLS: srvTLS}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })
	caPath := filepath.Join(t.TempDir(), "ca.pem")
	if err := os.WriteFile(caPath, pemEncode(ca), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, "-chain", "split:3|tlsfrag:sni",
		"-server", "tls://"+ln.Addr().String(), "-cacert", caPath, "google.com")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"142.250.64.78", "split:3|tlsfrag:sni|tls://"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if _, err := capture(t, "-chain", "warp:9", "-server", "tls://"+ln.Addr().String(), "google.com"); err == nil {
		t.Error("bogus -chain layer accepted")
	}
}

// TestRingCanonicalPeers: -ring keys the ring by the IDs the cluster's
// members use, so bare and udp:// spellings of one cluster print the owner
// the cluster itself computes; a peer that does not speak
// Do53 is rejected by name. Nothing listens on the peers' ports: the
// probes fail and only the ring lines are compared.
func TestRingCanonicalPeers(t *testing.T) {
	ids := []string{"udp://127.0.0.1:5301", "udp://127.0.0.1:5302", "udp://127.0.0.1:5303"}
	owner, _ := cluster.NewRing(ids).Owner(keyhash.Key("www.google.com.", uint16(dnswire.TypeA)))
	want := ";; owner: " + owner + "\n"
	for _, peers := range []string{
		"127.0.0.1:5301,127.0.0.1:5302,127.0.0.1:5303",
		strings.Join(ids, ","),
		"udp://127.0.0.1:5303, 127.0.0.1:5301,udp://127.0.0.1:5302",
	} {
		out, err := capture(t, "-ring", "-peers", peers, "-timeout", "300ms", "www.google.com.")
		if err != nil {
			t.Fatalf("-peers %q: %v", peers, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("-peers %q: output lacks %q:\n%s", peers, want, out)
		}
		if strings.Contains(out, "replicas") {
			t.Errorf("-peers %q: output still names replicas:\n%s", peers, out)
		}
	}

	_, err := capture(t, "-ring", "-peers", "127.0.0.1:5301,tls://127.0.0.1:853", "www.google.com.")
	if err == nil || !strings.Contains(err.Error(), `-peers: peer "tls://127.0.0.1:853"`) {
		t.Errorf("tls:// peer: err = %v, want one naming it", err)
	}
}
