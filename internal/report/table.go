package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-aligned table with a markdown-style renderer.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row; it must match the header arity.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned markdown.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
			return err
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports the table (headers + rows) as CSV for external tools.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ChartCSV exports a BoxChart's summary statistics as CSV rows (one per
// resolver) so the figures can be re-plotted elsewhere.
func ChartCSV(c *BoxChart, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"resolver", "mainstream",
		"resp_n", "resp_q1", "resp_median", "resp_q3", "resp_lo", "resp_hi",
		"ping_n", "ping_median"}
	if err := cw.Write(header); err != nil {
		return err
	}
	var num [32]byte
	f := func(v float64) string { return string(appendFixed(num[:0], v, 3)) } // %.3f
	for _, r := range c.Rows {
		row := []string{r.Label, strconv.FormatBool(r.Bold),
			strconv.Itoa(r.Response.N),
			f(r.Response.Q1), f(r.Response.Q2), f(r.Response.Q3),
			f(r.Response.WhiskerLow), f(r.Response.WhiskerHigh),
		}
		if r.HasPing {
			row = append(row, strconv.Itoa(r.Ping.N), f(r.Ping.Q2))
		} else {
			row = append(row, "0", "")
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
