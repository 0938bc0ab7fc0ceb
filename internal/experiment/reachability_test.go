// The reachability scenario lives in internal/live; its classification
// test runs here, beside the report it feeds, as an external package.
package experiment_test

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/dialer"
	"encdns/internal/dns53"
	"encdns/internal/dot"
	"encdns/internal/live"
	"encdns/internal/netsim"
	"encdns/internal/transport"
)

// startReachDoT serves DoT for serverName on the VirtualNet using the
// shared test CA.
func startReachDoT(t *testing.T, vn *dialer.VirtualNet, ca *certs.CA, addr, serverName string) {
	t.Helper()
	srvTLS, err := ca.ServerConfig([]string{serverName}, nil)
	if err != nil {
		t.Fatal(err)
	}
	zone := authdns.NewZone(".")
	zone.AddA("example.com.", 300, netip.MustParseAddr("192.0.2.1"))
	inner := &dns53.Server{Handler: zone}
	ln, err := vn.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go (&dot.Server{DNS: inner, TLS: srvTLS}).Serve(ln)
	t.Cleanup(func() { ln.Close(); inner.Shutdown() })
}

// TestReachabilityClassification is the campaign-report half of the
// acceptance criteria: each simulated vantage classifies each resolver
// as reachable-plain / reachable-evasion / unreachable, and the report
// table carries the grid.
func TestReachabilityClassification(t *testing.T) {
	vn := dialer.NewVirtualNet()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	const blocked = "blocked.test"
	const open = "open.test"
	startReachDoT(t, vn, ca, blocked+":853", blocked)
	startReachDoT(t, vn, ca, open+":853", open)

	// One TLS config must verify both names: trust the CA, let the
	// client derive ServerName from each endpoint host.
	tlsCfg := ca.ClientConfig("")
	tlsCfg.ServerName = ""

	vantages := []live.VantagePolicy{
		{Name: "open-net"},
		{Name: "sni-censor", Middleboxes: []dialer.Middlebox{
			&dialer.RSTOnSNI{Blocked: []string{blocked}},
		}},
		{Name: "blackhole", Middleboxes: []dialer.Middlebox{&dialer.Blackhole{}}},
	}
	results, err := live.RunReachability(context.Background(), live.ReachabilityConfig{
		Net:       vn,
		Vantages:  vantages,
		Endpoints: []string{"tls://" + blocked + ":853", "tls://" + open + ":853"},
		Options:   transport.Options{TLS: tlsCfg},
		Timeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]live.ReachClass{
		"open-net/tls://" + blocked + ":853":   live.ReachPlain,
		"open-net/tls://" + open + ":853":      live.ReachPlain,
		"sni-censor/tls://" + blocked + ":853": live.ReachEvasion,
		"sni-censor/tls://" + open + ":853":    live.ReachPlain,
		"blackhole/tls://" + blocked + ":853":  live.Unreachable,
		"blackhole/tls://" + open + ":853":     live.Unreachable,
	}
	if len(results) != len(want) {
		t.Fatalf("results = %d, want %d", len(results), len(want))
	}
	for _, r := range results {
		key := r.Vantage + "/" + r.Endpoint
		if r.Class != want[key] {
			t.Errorf("%s = %s, want %s", key, r.Class, want[key])
		}
		if r.Class == live.ReachEvasion && r.Chain == "" {
			t.Errorf("%s: evasion class with no chain", key)
		}
		if r.Class == live.ReachEvasion && r.PlainErr != netsim.ErrConnect {
			t.Errorf("%s: plain error = %s, want connect (RST)", key, r.PlainErr)
		}
	}

	var sb strings.Builder
	if err := live.RenderReachability(&sb, results); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, wantStr := range []string{
		"reachable-plain", "reachable-evasion", "unreachable",
		"sni-censor", "tlsfrag:sni", "connect",
	} {
		if !strings.Contains(out, wantStr) {
			t.Errorf("report missing %q:\n%s", wantStr, out)
		}
	}
}
