package report

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"encdns/internal/stats"
)

// SVG rendering: publication-style boxplot figures matching the paper's
// visual layout — one row per resolver with paired DNS-response-time and
// ping distributions, mainstream resolvers bold, axis truncated like the
// text renderer. Output is self-contained SVG 1.1 with no external fonts
// or scripts, viewable in any browser.

const (
	svgRowH     = 34  // vertical space per resolver row
	svgBoxH     = 10  // height of one boxplot
	svgLabelW   = 300 // label gutter
	svgPlotW    = 640 // plot area width
	svgMargin   = 20
	svgWidth    = svgMargin*2 + svgLabelW + svgPlotW
	svgAxisH    = 40
	svgTitleH   = 36
	respColor   = "#4878a8"
	respFill    = "#a8c8e8"
	pingColor   = "#b8860b"
	pingFill    = "#eed9a2"
	outlierGrey = "#666666"
)

// ChartSVG renders the chart as an SVG document. Numbers are written as
// the %d and %.1f verbs write them, by appends rather than through fmt.
func ChartSVG(c *BoxChart, w io.Writer) error {
	maxMs := c.maxMs()
	height := int64(svgTitleH + svgAxisH + len(c.Rows)*svgRowH + svgMargin)

	b := make([]byte, 0, 4096+2048*len(c.Rows))
	b = strconv.AppendInt(append(b, svgHead[0]...), height, 10)
	b = strconv.AppendInt(append(b, svgHead[1]...), height, 10)
	b = strconv.AppendInt(append(b, svgHead[2]...), height, 10)
	b = append(append(append(b, svgHead[3]...), xmlEscape(c.Title)...), "</text>\n"...)

	plotX := float64(svgMargin + svgLabelW)
	scale := func(v float64) float64 {
		if math.IsNaN(v) || v < 0 {
			v = 0
		}
		if v > maxMs {
			v = maxMs
		}
		return plotX + v/maxMs*float64(svgPlotW)
	}

	// Axis with gridlines at round intervals.
	axisY := float64(svgTitleH + svgAxisH - 14)
	plotBottom := float64(svgTitleH+svgAxisH+len(c.Rows)*svgRowH) - 6
	step := niceStep(maxMs)
	for v := 0.0; v <= maxMs+1e-9; v += step {
		x := scale(v)
		b = svgLine(b, x, axisY, x, plotBottom, "#ddd", ` stroke-width="1"`)
		b = svgNum(svgNum(append(b, `<text class="ax"`...), "x", x), "y", axisY-4)
		b = append(appendFixed(append(b, ` text-anchor="middle">`...), v, 0), "</text>\n"...)
	}
	b = svgNum(svgNum(append(b, `<text class="ax"`...), "x", plotX+float64(svgPlotW)), "y", axisY-16)
	b = append(b, ` text-anchor="end">ms</text>`+"\n"...)
	b = append(b, svgLegend...)

	for i, row := range c.Rows {
		rowTop := float64(svgTitleH + svgAxisH + i*svgRowH)
		b = append(b, "<text"...)
		if row.Bold {
			b = append(b, ` class="b"`...)
		}
		b = svgNum(append(b, svgLabelX...), "y", rowTop+svgBoxH+4)
		b = append(append(append(b, ` text-anchor="end">`...), xmlEscape(row.Label)...), "</text>\n"...)
		if row.Response.N > 0 {
			b = svgBox(b, row.Response, scale, rowTop+2, respColor, respFill, maxMs)
		}
		if row.HasPing {
			b = svgBox(b, row.Ping, scale, rowTop+svgBoxH+8, pingColor, pingFill, maxMs)
		} else {
			b = svgNum(svgNum(append(b, `<text class="ax"`...), "x", plotX+4), "y", rowTop+svgBoxH+16)
			b = append(b, ">no ICMP reply</text>\n"...)
		}
	}
	b = append(b, "</svg>\n"...)
	_, err := w.Write(b)
	return err
}

// The parts of every chart that do not depend on its rows: the document's
// head, split where its height goes, the row labels' x attribute, a box's
// height, and the legend.
var (
	svgHead = [...]string{
		fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="`, svgWidth),
		fmt.Sprintf(`" viewBox="0 0 %d `, svgWidth),
		`">` + "\n" + `<style>text{font-family:Helvetica,Arial,sans-serif;font-size:12px;fill:#222}.t{font-size:15px;font-weight:bold}.b{font-weight:bold}.ax{font-size:10px;fill:#555}</style>` + "\n" +
			fmt.Sprintf(`<rect width="%d" height="`, svgWidth),
		fmt.Sprintf(`" fill="white"/>`+"\n"+`<text class="t" x="%d" y="%d">`, svgMargin, svgMargin+4),
	}
	svgLabelX    = fmt.Sprintf(` x="%d"`, svgMargin+svgLabelW-10)
	svgBoxHeight = fmt.Sprintf(` height="%d" fill="`, svgBoxH)
	svgLegend    = fmt.Sprintf(`<rect x="%d" y="%d" width="14" height="8" fill="%s" stroke="%s"/><text x="%d" y="%d">DNS response time</text>`+"\n"+
		`<rect x="%d" y="%d" width="14" height="8" fill="%s" stroke="%s"/><text x="%d" y="%d">ping RTT</text>`+"\n",
		svgMargin, svgTitleH, respFill, respColor, svgMargin+20, svgTitleH+8,
		svgMargin+170, svgTitleH, pingFill, pingColor, svgMargin+190, svgTitleH+8)
)

// svgBox draws one horizontal boxplot at vertical offset y.
func svgBox(b []byte, p stats.BoxPlot, scale func(float64) float64,
	y float64, stroke, fill string, maxMs float64) []byte {
	mid := y + svgBoxH/2
	loX, q1X := scale(p.WhiskerLow), scale(p.Q1)
	q2X, q3X, hiX := scale(p.Q2), scale(p.Q3), scale(p.WhiskerHigh)
	// Whiskers.
	b = svgLine(b, loX, mid, q1X, mid, stroke, "")
	b = svgLine(b, q3X, mid, hiX, mid, stroke, "")
	b = svgLine(b, loX, y, loX, y+svgBoxH, stroke, "")
	b = svgLine(b, hiX, y, hiX, y+svgBoxH, stroke, "")
	// IQR box; enforce a 1px minimum so tight distributions stay visible.
	boxW := q3X - q1X
	if boxW < 1 {
		boxW = 1
	}
	b = svgNum(svgNum(svgNum(append(b, "<rect"...), "x", q1X), "y", y), "width", boxW)
	b = append(append(append(b, svgBoxHeight...), fill...), `" stroke="`...)
	b = append(append(b, stroke...), "\"/>\n"...)
	// Median tick.
	b = svgLine(b, q2X, y-1, q2X, y+svgBoxH+1, stroke, ` stroke-width="2"`)
	// Outliers (truncated at the axis, like the paper's figures).
	overflow := false
	for _, o := range p.Outliers {
		if o > maxMs {
			overflow = true
			continue
		}
		b = svgNum(svgNum(append(b, "<circle"...), "cx", scale(o)), "cy", mid)
		b = append(b, ` r="1.8" fill="none" stroke="`+outlierGrey+"\"/>\n"...)
	}
	if overflow {
		b = svgNum(svgNum(append(b, `<text class="ax"`...), "x", scale(maxMs)+2), "y", mid+3)
		b = append(b, ">→</text>\n"...)
	}
	return b
}

// svgLine appends a <line> from (x1, y1) to (x2, y2); extra follows its
// stroke attribute.
func svgLine(b []byte, x1, y1, x2, y2 float64, stroke, extra string) []byte {
	b = svgNum(svgNum(append(b, "<line"...), "x1", x1), "y1", y1)
	b = svgNum(svgNum(b, "x2", x2), "y2", y2)
	b = append(append(append(b, ` stroke="`...), stroke...), '"')
	return append(append(b, extra...), "/>\n"...)
}

// svgNum appends the attribute ` name="v"`, v as %.1f writes it.
func svgNum(b []byte, name string, v float64) []byte {
	b = append(append(append(b, ' '), name...), `="`...)
	return append(appendFixed(b, v, 1), '"')
}

// niceStep picks a round gridline interval for the axis span.
func niceStep(maxMs float64) float64 {
	raw := maxMs / 6
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	for _, m := range []float64{1, 2, 5, 10} {
		if raw <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func xmlEscape(s string) string { return xmlEscaper.Replace(s) }
