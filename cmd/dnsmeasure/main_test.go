package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/core"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/reachability.txt from this tree")

// capture runs run() with stdout redirected to a pipe and returns output.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	runErr := run(args, w)
	w.Close()
	out := <-done
	r.Close()
	return string(out), runErr
}

// readResults loads the records a run wrote with -o.
func readResults(t *testing.T, path string) *core.ResultSet {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rs := core.NewResultSet()
	for _, rec := range testutil.DecodeJSONL[core.Record](t, f) {
		rs.Add(rec)
	}
	return rs
}

func TestListVantages(t *testing.T) {
	out, err := capture(t, "-list-vantages")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chicago-home-1", "ec2-ohio", "ec2-frankfurt", "ec2-seoul", "home", "datacenter"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestListResolvers(t *testing.T) {
	out, err := capture(t, "-list-resolvers")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dns.google") || !strings.Contains(out, "[mainstream]") {
		t.Errorf("resolver list incomplete:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 75 {
		t.Errorf("listed %d resolvers, want 75", n)
	}
}

func TestSimCampaignSummary(t *testing.T) {
	out, err := capture(t, "-resolvers", "dns.google,ordns.he.net",
		"-vantage", "ec2-ohio", "-rounds", "10")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Response times from ec2-ohio", "dns.google", "ordns.he.net", "Median"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWritesJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.jsonl")
	_, err := capture(t, "-resolvers", "dns.google", "-rounds", "5", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	rs := readResults(t, path)
	// 5 rounds × (3 domains + 1 ping).
	if rs.Len() != 20 {
		t.Errorf("records = %d, want 20", rs.Len())
	}
}

// A bounded watch streams its records as they happen; the file must be
// the one a plain run writes at its end.
func TestWatchStreamsWhatOWrites(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-resolvers", "dns.google,ordns.he.net", "-rounds", "4", "-interval", "8h", "-summary=false"}
	if _, err := capture(t, append(args, "-o", filepath.Join(dir, "plain.jsonl"))...); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, append(args, "-watch", "-metrics-addr", "127.0.0.1:0", "-o", filepath.Join(dir, "watch.jsonl"))...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "streamed records to") {
		t.Errorf("watch output: %s", out)
	}
	plain, err1 := os.ReadFile(filepath.Join(dir, "plain.jsonl"))
	watched, err2 := os.ReadFile(filepath.Join(dir, "watch.jsonl"))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(plain) == 0 || string(plain) != string(watched) {
		t.Errorf("-watch -o streamed %d bytes, -o wrote %d, and they differ", len(watched), len(plain))
	}
}

// TestWatchConfigMatchesFlags: a bounded watch given by a config file
// stops after its rounds at its interval, streaming the bytes the same
// run given as flags streams.
func TestWatchConfigMatchesFlags(t *testing.T) {
	dir := t.TempDir()
	conf := filepath.Join(dir, "watch.json")
	if err := os.WriteFile(conf, []byte(`{"resolvers":["dns.google"],"domains":["google.com"],"rounds":2,"interval":"30s"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	watch := []string{"-watch", "-metrics-addr", "127.0.0.1:0", "-summary=false"}
	if _, err := capture(t, append(watch, "-resolvers", "dns.google", "-domains", "google.com",
		"-rounds", "2", "-interval", "30s", "-o", filepath.Join(dir, "flags.jsonl"))...); err != nil {
		t.Fatal(err)
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	done := make(chan error, 1)
	go func() { done <- run(append(watch, "-config", conf, "-o", filepath.Join(dir, "config.jsonl")), devnull) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the config-file watch did not stop after its 2 rounds")
	}
	flags, err1 := os.ReadFile(filepath.Join(dir, "flags.jsonl"))
	config, err2 := os.ReadFile(filepath.Join(dir, "config.jsonl"))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(flags) == 0 || string(flags) != string(config) {
		t.Errorf("config form streamed %d bytes, flag form %d, and they differ", len(config), len(flags))
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-resolvers", "not.a.known.host"},
		{"-resolvers", ""},
		{"-vantage", "mars"},
		{"-mode", "quantum"},
		{"-domains", ""},
		{"-watch", "-interval", "999ms", "-rounds", "1"}, // below the 1s floor
	}
	for _, args := range cases {
		if _, err := capture(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestMainstreamShortcut(t *testing.T) {
	out, err := capture(t, "-resolvers", "mainstream", "-rounds", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dns.quad9.net") || !strings.Contains(out, "anycast.dns.nextdns.io") {
		t.Errorf("mainstream set missing rows:\n%s", out)
	}
}

func TestAdHocHTTPSTarget(t *testing.T) {
	// Parsing only: an https:// URL becomes an ad-hoc target. In sim mode
	// it has no model parameters (zero sites), so we just check parsing.
	targets, err := parseTargets("https://dns.example/custom-path")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0].Host != "https://dns.example/custom-path" {
		t.Fatalf("targets = %+v", targets)
	}
	if targets[0].Endpoint != "https://dns.example/custom-path" {
		t.Errorf("endpoint = %s", targets[0].Endpoint)
	}
	// Live -proto dot probes the URL's host on the DoT port.
	if got := liveEndpoints(targets, "dot")[0].Endpoint; got != "tls://dns.example:853" {
		t.Errorf("-proto dot endpoint = %s, want tls://dns.example:853", got)
	}
}

// serveUDP serves h on a loopback UDP socket and returns its udp://
// endpoint.
// googleZone answers google.com. A 192.0.2.1.
func googleZone() *authdns.Zone {
	z := authdns.NewZone(".")
	z.AddA("google.com.", 300, netip.MustParseAddr("192.0.2.1"))
	return z
}

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

// TestAdHocEndpointsOnOneHostStayApart: two live endpoints on one host
// are two resolvers. One answers, the other SERVFAILs every query, so
// their summary rows must differ in Errors.
func TestAdHocEndpointsOnOneHostStayApart(t *testing.T) {
	good := serveUDP(t, googleZone())
	bad := serveUDP(t, testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		return nil, errors.New("always SERVFAIL")
	}))
	const rounds = 3
	out, err := capture(t, "-mode", "live", "-proto", "do53", "-resolvers", good+","+bad,
		"-domains", "google.com", "-rounds", strconv.Itoa(rounds), "-interval", "1ms")
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]string{} // summary row's Resolver → Errors
	for _, line := range strings.Split(out, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) != 6 || strings.HasPrefix(cells[0], "-") || strings.TrimSpace(cells[0]) == "Resolver" {
			continue
		}
		errs[strings.TrimSpace(cells[0])] = strings.TrimSpace(cells[5])
	}
	if len(errs) != 2 || errs[good] != "0" || errs[bad] != strconv.Itoa(rounds) {
		t.Fatalf("summary rows (resolver → errors) = %v, want %s → 0 and %s → %d\n%s", errs, good, bad, rounds, out)
	}
}

// TestLiveWritesNoPingRecords: live mode has no pinger, so it must not
// record a ping for any target, answered or not.
func TestLiveWritesNoPingRecords(t *testing.T) {
	good := serveUDP(t, googleZone())
	path := filepath.Join(t.TempDir(), "live.jsonl")
	if _, err := capture(t, "-mode", "live", "-proto", "do53", "-resolvers", good, "-domains", "google.com",
		"-rounds", "3", "-interval", "1ms", "-summary=false", "-o", path); err != nil {
		t.Fatal(err)
	}
	kinds := map[core.Kind]int{}
	for _, rec := range readResults(t, path).Records() {
		kinds[rec.Kind]++
	}
	if kinds[core.KindQuery] != 3 || kinds[core.KindPing] != 0 {
		t.Errorf("records by kind = %v, want 3 queries and no pings", kinds)
	}
}

func TestSplitNonEmpty(t *testing.T) {
	got := splitNonEmpty(" a, ,b ,, c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.json")
	outPath := filepath.Join(dir, "out.jsonl")
	conf := `{
		"resolvers": ["dns.google", "dns.quad9.net"],
		"domains": ["google.com"],
		"vantage": "ec2-seoul",
		"rounds": 4,
		"interval": "1h",
		"seed": 9,
		"output": ` + strconv.Quote(outPath) + `
	}`
	if err := os.WriteFile(path, []byte(conf), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "-config", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ec2-seoul") || !strings.Contains(out, "dns.quad9.net") {
		t.Errorf("config not applied:\n%s", out)
	}
	rs := readResults(t, outPath)
	if rs.Len() != 4*2*2 { // 4 rounds × 2 resolvers × (1 domain + 1 ping)
		t.Errorf("records = %d", rs.Len())
	}
}

func TestConfigFlagOverride(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.json")
	conf := `{"resolvers": ["dns.google"], "vantage": "ec2-seoul", "rounds": 3}`
	if err := os.WriteFile(path, []byte(conf), 0o644); err != nil {
		t.Fatal(err)
	}
	// Explicit -vantage beats the config value.
	out, err := capture(t, "-config", path, "-vantage", "ec2-ohio")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ec2-ohio") {
		t.Errorf("flag did not override config:\n%s", out)
	}
}

func TestConfigErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []string{
		write("bad.json", "{not json"),
		write("unknown.json", `{"surprise": true}`),
		write("badmode.json", `{"mode": "psychic"}`),
		write("badinterval.json", `{"interval": "yearly"}`),
		write("badrounds.json", `{"rounds": -3}`),
		filepath.Join(dir, "missing.json"),
	}
	for _, p := range cases {
		if _, err := LoadConfig(p); err == nil {
			t.Errorf("config %s accepted", p)
		}
	}
}

func TestProtoFlag(t *testing.T) {
	for _, proto := range []string{"doh", "dot", "do53"} {
		out, err := capture(t, "-resolvers", "dns.google", "-rounds", "5", "-proto", proto)
		if err != nil {
			t.Fatalf("proto %s: %v", proto, err)
		}
		if !strings.Contains(out, "dns.google") {
			t.Errorf("proto %s output:\n%s", proto, out)
		}
	}
	if _, err := capture(t, "-proto", "smoke-signals"); err == nil {
		t.Error("bad proto accepted")
	}
}

func TestProtoAffectsSimTiming(t *testing.T) {
	// Do53 is one round trip; fresh DoH is three. The summary medians
	// must reflect that.
	med := func(proto string) float64 {
		path := filepath.Join(t.TempDir(), proto+".jsonl")
		if _, err := capture(t, "-resolvers", "doh.la.ahadns.net", "-rounds", "40",
			"-proto", proto, "-o", path); err != nil {
			t.Fatal(err)
		}
		rs := readResults(t, path)
		return rs.MedianResponse("ec2-ohio", "doh.la.ahadns.net")
	}
	udp, doh := med("do53"), med("doh")
	if ratio := doh / udp; ratio < 2 || ratio > 4.5 {
		t.Errorf("doh/do53 ratio = %.2f, want ~3", ratio)
	}
}

// TestReachabilityScenario runs the -reachability campaign: the report
// must classify every vantage/endpoint pair and name evasion chains, and
// match testdata/reachability.txt byte for byte. The table names the
// chain that got through, so a change in layer order or dial-failure
// counting shows up here. Regenerate with -update only when the report
// is meant to change.
func TestReachabilityScenario(t *testing.T) {
	out, err := capture(t, "-reachability")
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/reachability.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("report differs from %s:\n got:\n%s\nwant:\n%s", golden, out, want)
	}
	for _, want := range []string{
		"Reachability by vantage",
		"open-net", "sni-censor", "large-record-filter", "blackhole",
		"reachable-plain", "reachable-evasion", "unreachable",
		"tls://dns.google:853",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The sni-censor vantage must need evasion for every endpoint.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "sni-censor") && !strings.Contains(line, "reachable-evasion") {
			t.Errorf("sni-censor row not classified as evasion: %s", line)
		}
	}
}
