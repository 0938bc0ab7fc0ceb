package report

import (
	"bytes"
	"encoding/xml"
	"io"
	"strings"
	"testing"
)

func TestChartSVGWellFormed(t *testing.T) {
	c := &BoxChart{
		Title: "SVG demo <figure> & friends",
		MaxMs: 600,
		Rows: []BoxRow{
			{Label: "fast.example", Bold: true,
				Response: box(t, 10, 12, 14, 16, 18, 300),
				Ping:     box(t, 3, 4, 5), HasPing: true},
			{Label: "slow.example",
				Response: box(t, 400, 450, 500, 550, 900)}, // 900 overflows
			{Label: "empty.example"},
		},
	}
	var buf bytes.Buffer
	if err := ChartSVG(c, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Well-formed XML (escaping of the <>& in the title included).
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
	for _, want := range []string{
		"<svg", "DNS response time", "ping RTT",
		"fast.example", "slow.example",
		`class="b"`,        // bold mainstream label
		"no ICMP reply",    // slow.example has no ping
		"&lt;figure&gt;",   // escaped title
		"→",                // overflow marker
		`stroke="#4878a8"`, // response boxes drawn
		`stroke="#b8860b"`, // ping boxes drawn
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestChartSVGScalesWithRows(t *testing.T) {
	small := &BoxChart{MaxMs: 100, Rows: []BoxRow{{Label: "a", Response: box(t, 1, 2, 3)}}}
	big := &BoxChart{MaxMs: 100}
	for i := 0; i < 30; i++ {
		big.Rows = append(big.Rows, BoxRow{Label: "r", Response: box(t, 1, 2, 3)})
	}
	var sBuf, bBuf bytes.Buffer
	if err := ChartSVG(small, &sBuf); err != nil {
		t.Fatal(err)
	}
	if err := ChartSVG(big, &bBuf); err != nil {
		t.Fatal(err)
	}
	if bBuf.Len() <= sBuf.Len() {
		t.Error("bigger chart did not produce bigger SVG")
	}
	if !strings.Contains(bBuf.String(), `height="1116"`) {
		// 36 + 40 + 30*34 + 20 = 1116
		t.Error("row-scaled height wrong")
	}
}

func TestNiceStep(t *testing.T) {
	cases := map[float64]float64{
		600: 100, 100: 20, 60: 10, 1000: 200, 50: 10,
	}
	for maxMs, want := range cases {
		if got := niceStep(maxMs); got != want {
			t.Errorf("niceStep(%v) = %v, want %v", maxMs, got, want)
		}
	}
}

func TestXMLEscape(t *testing.T) {
	if got := xmlEscape(`a<b>&"c"`); got != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Errorf("escape = %q", got)
	}
}

// TestChartSVGAllocs pins ChartSVG's allocations for a figure-sized
// chart: the document buffer, and nothing per row or per number.
func TestChartSVGAllocs(t *testing.T) {
	c := &BoxChart{Title: "Figure 1: response times", MaxMs: 600}
	for i := 0; i < 40; i++ {
		c.Rows = append(c.Rows, BoxRow{Label: "resolver.example", Bold: i%3 == 0,
			Response: box(t, 10, 12, 14, 16, 18, 300, 900), Ping: box(t, 3, 4, 5, 40), HasPing: i%2 == 0})
	}
	if n := testing.AllocsPerRun(20, func() { _ = ChartSVG(c, io.Discard) }); n != 1 {
		t.Errorf("ChartSVG: %v allocations, want 1", n)
	}
}
