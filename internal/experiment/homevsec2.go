package experiment

import (
	"fmt"
	"io"
	"math"
	"sort"

	"encdns/internal/dataset"
	"encdns/internal/report"
	"encdns/internal/stats"
)

// HomeVsEC2Row compares one resolver between the pooled Chicago home
// devices and the Ohio EC2 instance — §4's "resolver performance can vary
// across measurements collected on virtual instances versus home
// networks", with the accompanying observation that "except for these
// cases, the median resolver response times are almost identical for the
// home network and Ohio EC2 measurements" (modulo the access-network
// overhead).
type HomeVsEC2Row struct {
	Resolver   string
	HomeMedian float64
	HomeIQR    float64
	OhioMedian float64
	OhioIQR    float64
}

// MedianGap is home minus Ohio.
func (r HomeVsEC2Row) MedianGap() float64 { return r.HomeMedian - r.OhioMedian }

// HomeVsEC2Report holds all rows plus the §4 summary statistics.
type HomeVsEC2Report struct {
	Rows []HomeVsEC2Row
	// TypicalGapMs is the median over resolvers of (home - Ohio) medians:
	// the access-network overhead of the Raspberry Pi deployments.
	TypicalGapMs float64
}

// HomeVsEC2 compares every resolver between the home devices and Ohio.
func (r *Runner) HomeVsEC2() (*HomeVsEC2Report, error) {
	rs, err := r.Results()
	if err != nil {
		return nil, err
	}
	rep := &HomeVsEC2Report{}
	var gaps []float64
	for _, res := range dataset.Resolvers() {
		home, _ := SamplesFor(rs, "home", res.Host)
		ohio, _ := SamplesFor(rs, dataset.VantageOhio, res.Host)
		hb, err1 := stats.Summarize(home)
		ob, err2 := stats.Summarize(ohio)
		if err1 != nil || err2 != nil {
			continue
		}
		row := HomeVsEC2Row{
			Resolver:   res.Host,
			HomeMedian: hb.Q2, HomeIQR: hb.IQR(),
			OhioMedian: ob.Q2, OhioIQR: ob.IQR(),
		}
		rep.Rows = append(rep.Rows, row)
		gaps = append(gaps, row.MedianGap())
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		return math.Abs(rep.Rows[i].MedianGap()) > math.Abs(rep.Rows[j].MedianGap())
	})
	rep.TypicalGapMs = stats.Median(gaps)
	return rep, nil
}

// Render writes the comparison: the typical access gap and the rows that
// deviate most from it.
func (rep *HomeVsEC2Report) Render(w io.Writer) error {
	fmt.Fprintln(w, "Home networks vs Ohio EC2 (§4 variability comparison)")
	fmt.Fprintln(w, "======================================================")
	fmt.Fprintf(w, "resolvers compared: %d; typical home-minus-Ohio median gap: %.1f ms\n",
		len(rep.Rows), rep.TypicalGapMs)
	fmt.Fprintln(w, "(the gap is the Raspberry-Pi access-network overhead; §4 calls the")
	fmt.Fprintln(w, " medians \"almost identical\" once that constant is accounted for)")
	fmt.Fprintln(w)
	t := &report.Table{
		Title: "Largest home-vs-EC2 differences",
		Headers: []string{"Resolver", "Home med (ms)", "Home IQR", "Ohio med (ms)",
			"Ohio IQR", "Gap (ms)"},
	}
	for i, row := range rep.Rows {
		if i >= 12 {
			break
		}
		t.AddRow(row.Resolver,
			fmt.Sprintf("%.1f", row.HomeMedian), fmt.Sprintf("%.1f", row.HomeIQR),
			fmt.Sprintf("%.1f", row.OhioMedian), fmt.Sprintf("%.1f", row.OhioIQR),
			fmt.Sprintf("%+.1f", row.MedianGap()))
	}
	return t.Render(w)
}
