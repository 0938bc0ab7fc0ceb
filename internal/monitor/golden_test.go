package monitor

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"math/rand/v2"
	"os"
	"testing"
	"time"

	"encdns/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite testdata/watch_report.jsonl.gz from this tree")

// goldenGaps are the clock jumps of the golden script, by step: half an
// hour wraps the dashboard window, seven hours the fine ring, four days
// the coarse one.
var goldenGaps = map[int]time.Duration{
	1190: 30 * time.Minute,
	2390: 7 * time.Hour,
	3590: 4 * 24 * time.Hour,
	4390: 30 * time.Minute,
}

// watchScript drives a Tracker on the virtual clock through a seeded
// probe stream: four targets, failure bursts, four error classes (one
// unnamed), RTTs past the last bucket bound and gaps that wrap every
// ring. It returns one WatchReport JSON line every 400 steps and, last,
// the journal as JSON Lines.
func watchScript() []byte {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	tr := New(testConfig(clk))
	rng := rand.New(rand.NewPCG(37, 2026))
	targets := []string{"doh:a.example", "dot:b.example", "do53:c.example", "doh:d.example"}
	classes := []string{"timeout", "tls-failure", "connect-failure", ""}
	burst := make([]int, len(targets))
	var out bytes.Buffer
	for step := 1; step <= 5200; step++ {
		i := rng.IntN(len(targets))
		if burst[i] == 0 && rng.IntN(150) == 0 {
			burst[i] = 5 + rng.IntN(60)
		}
		ok := rng.IntN(40) != 0
		if burst[i] > 0 {
			burst[i]--
			ok = rng.IntN(5) == 0
		}
		rtt := time.Duration(rng.ExpFloat64() * float64(30*time.Millisecond))
		if rng.IntN(100) == 0 {
			rtt = 33*time.Second + time.Duration(rng.IntN(20))*time.Second
		}
		tr.ObserveProbe(targets[i], ok, rtt, classes[rng.IntN(len(classes))])
		clk.Advance(time.Duration(rng.IntN(6000)) * time.Millisecond)
		clk.Advance(goldenGaps[step])
		if step%400 == 0 {
			b, err := json.Marshal(tr.WatchReport())
			if err != nil {
				panic(err)
			}
			out.Write(append(b, '\n'))
		}
	}
	if err := tr.Journal().WriteJSONL(&out); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// TestWatchReportGolden holds the watch report and the journal of a
// fixed script to the bytes in testdata. Regenerate with -update only
// when the report is meant to change.
func TestWatchReportGolden(t *testing.T) {
	const path = "testdata/watch_report.jsonl.gz"
	got := watchScript()
	if *update {
		var zb bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&zb, gzip.BestCompression)
		zw.Write(got)
		zw.Close()
		if err := os.WriteFile(path, zb.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gl), len(wl)) {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d differs:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}
