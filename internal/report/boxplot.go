// Package report renders the paper's artefacts from measurement results:
// Unicode boxplot charts shaped like Figures 1–4 (per-resolver response
// time and ping distributions), markdown tables shaped like Tables 1–3,
// and CSV exports for external plotting tools.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"encdns/internal/stats"
)

// BoxRow is one resolver row of a figure: the response-time distribution
// and (optionally) the ping distribution.
type BoxRow struct {
	Label string
	// Bold marks mainstream resolvers, as the paper's figures do.
	Bold bool
	// Response summarises DNS response times; N == 0 hides the row's box.
	Response stats.BoxPlot
	// Ping summarises ICMP RTTs; HasPing false means the resolver did not
	// answer probes and no latency is drawn (paper §4).
	Ping    stats.BoxPlot
	HasPing bool
}

// BoxChart is a full figure: a title, rows, and an axis limit.
type BoxChart struct {
	Title string
	Rows  []BoxRow
	// MaxMs truncates the axis, like the paper's 600 ms cut ("we have
	// truncated the plots for ease of exposition"). Zero auto-scales.
	MaxMs float64
}

// chartWidth is the plot area in character cells.
const chartWidth = 72

// SortByMedian orders rows fastest-first (the paper's figures are ordered
// by median response time).
func (c *BoxChart) SortByMedian() {
	sort.SliceStable(c.Rows, func(i, j int) bool {
		return c.Rows[i].Response.Q2 < c.Rows[j].Response.Q2
	})
}

func (c *BoxChart) maxMs() float64 {
	if c.MaxMs > 0 {
		return c.MaxMs
	}
	maxV := 1.0
	for _, r := range c.Rows {
		if r.Response.N > 0 && r.Response.WhiskerHigh > maxV {
			maxV = r.Response.WhiskerHigh
		}
		if r.HasPing && r.Ping.WhiskerHigh > maxV {
			maxV = r.Ping.WhiskerHigh
		}
	}
	return maxV * 1.05
}

// Render writes the chart as fixed-width text. Each row gets two lines —
// the response-time box and the ping box — mirroring the paired
// distributions of the paper's figures:
//
//	dns.google        ├──[▒▒█▒▒▒]──┤ ∘
//	           (ping) ├[█]┤
func (c *BoxChart) Render(w io.Writer) error {
	labelW := len("(ping)")
	for _, r := range c.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	maxMs := c.maxMs()

	if _, err := fmt.Fprintf(w, "%s\n%s\n", c.Title, strings.Repeat("=", len(c.Title))); err != nil {
		return err
	}
	scaleNote := fmt.Sprintf("axis: 0 .. %.0f ms (%d cells/row; ▒=IQR █=median ├┤=whiskers ∘=outlier beyond axis→)", maxMs, chartWidth)
	if _, err := fmt.Fprintf(w, "%s\n\n", scaleNote); err != nil {
		return err
	}
	for _, r := range c.Rows {
		label := r.Label
		if r.Bold {
			label = "**" + label + "**"
		}
		respLine := renderBox(r.Response, maxMs, chartWidth)
		med := ""
		if r.Response.N > 0 {
			med = fmt.Sprintf("  med=%.0fms n=%d", r.Response.Q2, r.Response.N)
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|%s\n", labelW+4, label, respLine, med); err != nil {
			return err
		}
		if r.HasPing {
			pingLine := renderBox(r.Ping, maxMs, chartWidth)
			if _, err := fmt.Fprintf(w, "%-*s |%s|  med=%.0fms\n", labelW+4, "(ping)", pingLine, r.Ping.Q2); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%-*s |%s|  (no ICMP reply)\n", labelW+4, "(ping)", strings.Repeat(" ", chartWidth)); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderBox draws one horizontal boxplot into a width-cell line.
func renderBox(b stats.BoxPlot, maxMs float64, width int) string {
	cells := make([]rune, width)
	for i := range cells {
		cells[i] = ' '
	}
	if b.N == 0 {
		return string(cells)
	}
	pos := func(v float64) int {
		if math.IsNaN(v) || v < 0 {
			return 0
		}
		p := int(v / maxMs * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p > width-1 {
			p = width - 1
		}
		return p
	}
	lo, q1, q2, q3, hi := pos(b.WhiskerLow), pos(b.Q1), pos(b.Q2), pos(b.Q3), pos(b.WhiskerHigh)
	for i := lo; i <= hi; i++ {
		cells[i] = '─'
	}
	for i := q1; i <= q3; i++ {
		cells[i] = '▒'
	}
	cells[lo] = '├'
	cells[hi] = '┤'
	cells[q2] = '█'
	overflow := false
	for _, o := range b.Outliers {
		if o > maxMs {
			overflow = true
			continue
		}
		p := pos(o)
		if cells[p] == ' ' || cells[p] == '─' {
			cells[p] = '∘'
		}
	}
	if overflow {
		cells[width-1] = '→'
	}
	return string(cells)
}
