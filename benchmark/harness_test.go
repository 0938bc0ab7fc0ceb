package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"encdns/benchmark/wire"
)

// TestMain lets the test binary stand in for the harness when the smoke
// test re-executes it as the echo sentinel.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-echo" {
		_ = serveEcho()
		return
	}
	os.Exit(m.Run())
}

func TestPercentileAndQuartiles(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p50, p99 := percentile(sorted, 50), percentile(sorted, 99); p50 != 500 || p99 != 990 {
		t.Errorf("p50 %v p99 %v, want 500 and 990 (ten samples beyond p99)", p50, p99)
	}
	if got := percentile(sorted[:3], 99); got != 3 {
		t.Errorf("p99 of three samples = %v, want the largest", got)
	}
	// statistics.quantiles([1, 3, 4, 8, 9, 20, 21, 40], n=4) == [3.25, 8.5, 20.75]
	q1, med, q3 := quartiles([]float64{40, 1, 21, 3, 20, 4, 9, 8})
	if q1 != 3.25 || med != 8.5 || q3 != 20.75 {
		t.Errorf("quartiles %v %v %v, want 3.25 8.5 20.75", q1, med, q3)
	}
	d := summarize(99, []float64{100, 101, 99, 100, 102, 100, 98, 400}, 8000, "us")
	if d.Value != 99 || d.Median != 100 || d.Q3 > 102 || d.NSlices != 8 || d.NSamples != 8000 {
		t.Errorf("slices summarized: %+v", d)
	}
	if _, med, _ := quartiles(nil); !math.IsNaN(med) {
		t.Errorf("median of nothing = %v", med)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP dns53_server_seconds Handler latency.
# TYPE dns53_server_seconds histogram
dns53_server_seconds_bucket{le="+Inf"} 7
dns53_server_seconds_sum 0.000156406
dns53_server_seconds_count 7
resolver_cache_hit_serve_total{path="materialized"} 9
resolver_cache_hit_serve_total{path="template"} 1048
udpbatch_read_packets_total 12
udpbatch_read_batch_size_sum{socket="127.0.0.1:15353"} 2
process_heap_alloc_bytes 2.585864e+06
garbage line
`
	before := scrape(parseMetrics(strings.NewReader(text)))
	if got := before[`resolver_cache_hit_serve_total{path="template"}`]; got != 1048 {
		t.Errorf("labelled series = %v", got)
	}
	if got := before["process_heap_alloc_bytes"]; got != 2585864 {
		t.Errorf("exponent value = %v", got)
	}
	after := scrape(parseMetrics(strings.NewReader(strings.Replace(text, "template\"} 1048", "template\"} 2048", 1))))
	if d, absent := delta(before, after, "resolver_cache_hit_serve_total"); absent || d != 1000 {
		t.Errorf("delta over label sets = %v absent=%v, want 1000", d, absent)
	}
	if _, absent := delta(before, after, "no_such_series"); !absent {
		t.Error("a vanished series must be reported absent")
	}
	var c counters
	c.add(before, after)
	if !c.absent["process_gc_runs"] || c.absent["udpbatch_read_packets_total"] {
		t.Errorf("absent set: %v", c.absent)
	}
}

func TestParseProc(t *testing.T) {
	// comm may hold spaces and parentheses; utime=250 stime=150 ticks.
	stat := []byte("4242 (doh) server) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 150 0 0 20 0 9 0 12345 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 4*time.Second {
		t.Errorf("cpu = %v, %v; want 4s", cpu, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("garbage stat line parsed")
	}
	mb, err := parseVmHWM([]byte("Name:\tdohserver\nVmPeak:\t 1234 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"))
	if err != nil || mb != 20 {
		t.Errorf("VmHWM = %v, %v; want 20", mb, err)
	}
	if self, err := procCPU(os.Getpid()); err != nil || self < 0 {
		t.Errorf("own /proc stat: %v, %v", self, err)
	}
}

// TestBuckets cuts rounds into stretches of at least bucketTime and
// bucketRounds and reads the figure off their better end.
func TestBuckets(t *testing.T) {
	// Ping-pong rounds of 400 µs: three to a bucket, the remainder of two
	// joins the last.
	rounds := make([]float64, 11)
	for i := range rounds {
		rounds[i] = 400
	}
	b := buckets(rounds)
	if len(b) != 3 || len(b[0]) != 3 || len(b[2]) != 5 {
		t.Errorf("11 rounds of 400 µs: %d buckets %v", len(b), b)
	}
	// A round longer than bucketTime still shares its bucket with another.
	if b := buckets([]float64{25000, 26000, 24000}); len(b) != 1 || len(b[0]) != 3 {
		t.Errorf("three long rounds: %v", b)
	}
	if b := buckets([]float64{250000}); len(b) != 1 {
		t.Errorf("a single round is one bucket: %v", b)
	}
	if b := buckets(nil); len(b) != 0 {
		t.Errorf("no rounds: %v", b)
	}
	if got := rate([]float64{250, 250}, 32); got != 128000 {
		t.Errorf("two rounds of 32 in 250 µs each = %v ops/s, want 128000", got)
	}
	// Disturbed buckets pile up at the worse end and leave the figure alone;
	// the very best bucket is passed over.
	lat := make([]float64, 0, 40)
	for i := 0; i < 10; i++ {
		lat = append(lat, 16+float64(i)/10, 23, 24, 23.5)
	}
	lat[0] = 12 // a lucky one
	if got := better(lat, true); got != 16.1 {
		t.Errorf("5th percentile of 40 = %v, want 16.1", got)
	}
	thr := []float64{100, 101, 99, 70, 71, 72, 69, 70, 102, 100, 98, 97, 71, 70, 69, 68, 72, 99, 100, 140}
	if got := better(thr, false); got != 102 {
		t.Errorf("95th percentile of 20 = %v, want 102", got)
	}
}

// TestRoundFailsOnLoss answers a UDP generator from a server that drops
// every fifth datagram: a round with a lost query must fail after the
// loss timeout, be left out of the timed rounds, and the next round must
// start with a full window, so the loop neither stalls nor miscounts.
func TestRoundFailsOnLoss(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 512)
		for n := 1; ; n++ {
			l, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if n%5 == 0 {
				continue
			}
			resp := append([]byte(nil), buf[:l]...)
			resp[2], resp[3] = 0x81, 0x80 // a NOERROR response
			for i, d := range wire.Domains {
				if bytes.HasPrefix(resp[12:], wire.AppendName(nil, d)) {
					for _, rd := range wire.KnownA[i] {
						resp = append(append(resp, 0xc0, 12, 0, 1, 0, 1, 0, 0, 1, 44, 0, 4), rd[:]...)
						resp[7]++
					}
				}
			}
			_, _ = pc.WriteTo(resp, from)
		}
	}()
	g, err := newUDPGen(pc.LocalAddr().String(), wire.NewQuerySource(1, false))
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	var rounds []float64
	p := g.run(3*lossTimeout, 2, &rounds)
	// Rounds of two with every fifth datagram lost: two rounds in five lose
	// one and wait out the timeout, the other three are timed.
	if p.attempted < 10 || p.attempted%2 != 0 {
		t.Errorf("%d queries in %v: the loop stalled or sent a partial round", p.attempted, 3*lossTimeout)
	}
	if p.failed == 0 || p.failed > p.attempted/4 {
		t.Errorf("phase %+v: about a fifth of the queries were lost", p)
	}
	if want := p.attempted/2 - p.failed; len(rounds) != want {
		t.Errorf("%d timed rounds, want %d: a round with a lost query is not timed", len(rounds), want)
	}
	for _, us := range rounds {
		if us >= float64(lossTimeout/time.Microsecond) {
			t.Errorf("a timed round took %v µs", us)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{"latency_p50_us", "us", true, 0.10}
	thr := metricDef{"throughput_ops_s", "1/s", false, 0.10}
	d := func(q1, med, q3 float64) dist { return dist{Q1: q1, Median: med, Q3: q3} }
	cases := []struct {
		m    metricDef
		a, b dist
		want string
	}{
		{lat, d(99, 100, 101), d(99, 101, 102), "same"},
		{lat, d(99, 100, 101), d(118, 120, 122), "worse"},
		{lat, d(99, 100, 101), d(78, 80, 82), "better"},
		{lat, d(80, 100, 120), d(95, 115, 135), "unresolved"}, // spread wider than the bound
		{thr, d(990, 1000, 1010), d(790, 800, 810), "worse"},
		{thr, d(990, 1000, 1010), d(1190, 1200, 1210), "better"},
		{failRatio, d(0, 0, 0), d(0.004, 0.005, 0.006), "worse"},
		{failRatio, d(0, 0, 0), d(0, 0.0005, 0.0008), "same"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.name, c.a, c.b, got, c.want)
		}
	}
}

// TestBlackBox keeps the harness a black box: neither it nor the wire
// package may import the repository's internals, or a refactor of an
// internal API could break the gate that judges it.
func TestBlackBox(t *testing.T) {
	for _, dir := range []string{".", "wire"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				for _, imp := range file.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if path == "encdns" || strings.HasPrefix(path, "encdns/internal") || strings.HasPrefix(path, "encdns/cmd") {
						t.Errorf("%s imports %s", name, path)
					}
				}
			}
		}
	}
}

// TestContractMatchesCode checks BENCHMARK.json against the tables the
// harness prints from.
func TestContractMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	for _, w := range workloads {
		if !strings.Contains(string(data), `{"name": "`+w.name+`", "why":`) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(string(data), `{"name": "`+m.name+`", "unit": "`+m.unit+`"`) {
			t.Errorf("metric %s (%s) missing from BENCHMARK.json", m.name, m.unit)
		}
	}
}

// TestSmoke runs every workload for one short slice against the real
// binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the repository's binaries")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	if err := e.startSentinel(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := &runner{e: e, w: w, seed: 1}
		if err := r.setup(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		err := r.runSlice(200 * time.Millisecond)
		r.teardown()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res := r.result()
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed: %s", w.name, res.Attempted, res.Failed, res.FirstErr)
		}
		for _, m := range endToEnd {
			if v := res.EndToEnd[m.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v", w.name, m.name, v)
			}
		}
	}
}
