package experiment

import (
	"fmt"

	"encdns/internal/core"
	"encdns/internal/dataset"
	"encdns/internal/report"
	"encdns/internal/stats"
)

// FigureID names one of the paper's figure panels.
type FigureID string

// Figure panels. Figure 1 is the Ohio panel of the NA group (the paper
// presents it standalone first, then repeats it inside Figure 2).
const (
	Fig1  FigureID = "fig1"  // NA resolvers from Ohio EC2
	Fig2a FigureID = "fig2a" // NA from U.S. home networks
	Fig2b FigureID = "fig2b" // NA from Ohio EC2
	Fig2c FigureID = "fig2c" // NA from Frankfurt EC2
	Fig2d FigureID = "fig2d" // NA from Seoul EC2
	Fig3a FigureID = "fig3a" // EU from U.S. home networks
	Fig3b FigureID = "fig3b" // EU from Ohio EC2
	Fig3c FigureID = "fig3c" // EU from Frankfurt EC2
	Fig3d FigureID = "fig3d" // EU from Seoul EC2
	Fig4a FigureID = "fig4a" // Asia from U.S. home networks
	Fig4b FigureID = "fig4b" // Asia from Ohio EC2
	Fig4c FigureID = "fig4c" // Asia from Frankfurt EC2
	Fig4d FigureID = "fig4d" // Asia from Seoul EC2
)

// AllFigures lists every panel in paper order.
func AllFigures() []FigureID {
	return []FigureID{Fig1, Fig2a, Fig2b, Fig2c, Fig2d,
		Fig3a, Fig3b, Fig3c, Fig3d, Fig4a, Fig4b, Fig4c, Fig4d}
}

// figureSpec resolves a panel to its resolver group and vantage selector.
type figureSpec struct {
	group   func() []dataset.Resolver
	vantage string // vantage name or "home"
	title   string
}

var specs = map[FigureID]figureSpec{
	Fig1:  {dataset.NAGroup, dataset.VantageOhio, "Figure 1: North America resolvers from Ohio EC2"},
	Fig2a: {dataset.NAGroup, "home", "Figure 2a: North America resolvers from U.S. home networks"},
	Fig2b: {dataset.NAGroup, dataset.VantageOhio, "Figure 2b: North America resolvers from Ohio EC2"},
	Fig2c: {dataset.NAGroup, dataset.VantageFrankfurt, "Figure 2c: North America resolvers from Frankfurt EC2"},
	Fig2d: {dataset.NAGroup, dataset.VantageSeoul, "Figure 2d: North America resolvers from Seoul EC2"},
	Fig3a: {dataset.EUGroup, "home", "Figure 3a: Europe resolvers from U.S. home networks"},
	Fig3b: {dataset.EUGroup, dataset.VantageOhio, "Figure 3b: Europe resolvers from Ohio EC2"},
	Fig3c: {dataset.EUGroup, dataset.VantageFrankfurt, "Figure 3c: Europe resolvers from Frankfurt EC2"},
	Fig3d: {dataset.EUGroup, dataset.VantageSeoul, "Figure 3d: Europe resolvers from Seoul EC2"},
	Fig4a: {dataset.AsiaGroup, "home", "Figure 4a: Asia resolvers from U.S. home networks"},
	Fig4b: {dataset.AsiaGroup, dataset.VantageOhio, "Figure 4b: Asia resolvers from Ohio EC2"},
	Fig4c: {dataset.AsiaGroup, dataset.VantageFrankfurt, "Figure 4c: Asia resolvers from Frankfurt EC2"},
	Fig4d: {dataset.AsiaGroup, dataset.VantageSeoul, "Figure 4d: Asia resolvers from Seoul EC2"},
}

func specFor(id FigureID) (figureSpec, error) {
	s, ok := specs[id]
	if !ok {
		return figureSpec{}, fmt.Errorf("experiment: unknown figure %q", id)
	}
	return s, nil
}

// Figure builds the boxplot chart for one panel, rows sorted by median
// response time (fastest first), mainstream rows bolded, axis truncated at
// 600 ms like the paper.
func (r *Runner) Figure(id FigureID) (*report.BoxChart, error) {
	spec, err := specFor(id)
	if err != nil {
		return nil, err
	}
	rs, err := r.Results()
	if err != nil {
		return nil, err
	}
	return BuildChart(rs, spec.title, spec.group(), spec.vantage), nil
}

// BuildChart assembles a figure chart from any result set — exported so
// live-measurement results from the CLI render identically.
func BuildChart(rs *core.ResultSet, title string, group []dataset.Resolver, vantage string) *report.BoxChart {
	chart := &report.BoxChart{Title: title, MaxMs: 600}
	for _, res := range group {
		resp, ping := SamplesFor(rs, vantage, res.Host)
		row := report.BoxRow{Label: res.Host, Bold: res.Mainstream}
		if b, err := stats.Summarize(resp); err == nil {
			row.Response = b
		}
		if b, err := stats.Summarize(ping); err == nil {
			row.Ping = b
			row.HasPing = true
		}
		chart.Rows = append(chart.Rows, row)
	}
	chart.SortByMedian()
	return chart
}
