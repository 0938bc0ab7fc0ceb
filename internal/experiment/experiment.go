// Package experiment reproduces the paper's evaluation: one driver per
// table and figure, wiring the dataset through the measurement engine and
// the statistics into rendered artefacts. The experiment index lives in
// DESIGN.md; EXPERIMENTS.md records paper-vs-measured numbers.
package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"encdns/internal/core"
	"encdns/internal/dataset"
	"encdns/internal/netsim"
	"encdns/internal/stats"
)

// DefaultRounds is the per-campaign round count used by the reproduction:
// with three domains per round it yields a few hundred response-time
// samples per (vantage, resolver) pair, matching the paper's multi-month
// collection density.
const DefaultRounds = 80

// Runner executes the reproduction campaigns lazily and caches the result
// set, so the figures and tables all derive from one campaign — exactly
// like the paper's single data collection feeding every plot.
type Runner struct {
	Seed   uint64
	Rounds int

	once    sync.Once
	results *core.ResultSet
	runErr  error
}

// New builds a Runner; rounds <= 0 selects DefaultRounds.
func New(seed uint64, rounds int) *Runner {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	if seed == 0 {
		seed = 1
	}
	return &Runner{Seed: seed, Rounds: rounds}
}

// Targets converts the dataset population into campaign targets.
func Targets(rs []dataset.Resolver) []core.Target {
	out := make([]core.Target, 0, len(rs))
	for _, r := range rs {
		out = append(out, core.Target{Host: r.Host, Endpoint: r.Endpoint, Net: r.Net})
	}
	return out
}

// Results runs (once) the full campaign: every vantage × every resolver ×
// the three domains, fresh-connection DoH with per-round pings.
func (r *Runner) Results() (*core.ResultSet, error) {
	r.once.Do(func() {
		prober := &core.SimProber{Net: netsim.New(netsim.Config{Seed: r.Seed})}
		cfg := core.CampaignConfig{
			Vantages: dataset.Vantages(),
			Targets:  Targets(dataset.Resolvers()),
			Domains:  dataset.Domains,
			Rounds:   r.Rounds,
			Interval: 8 * time.Hour, // §3.2: tests "run every few hours"
		}
		c, err := core.NewCampaign(cfg, prober)
		if err != nil {
			r.runErr = err
			return
		}
		r.results, r.runErr = c.Run(context.Background())
	})
	return r.results, r.runErr
}

// MustResults is Results for contexts where the config is known-valid.
func (r *Runner) MustResults() *core.ResultSet {
	rs, err := r.Results()
	if err != nil {
		panic(fmt.Sprintf("experiment: campaign failed: %v", err))
	}
	return rs
}

// homeSamples pools a metric across the four home devices, as the paper's
// "U.S. Home Networks" panels do.
func homeSamples(rs *core.ResultSet, host string, kind core.Kind) []float64 {
	var out []float64
	for _, v := range dataset.HomeVantages() {
		if kind == core.KindQuery {
			out = append(out, rs.QuerySamples(v.Name, host)...)
		} else {
			out = append(out, rs.PingSamples(v.Name, host)...)
		}
	}
	return out
}

// SamplesFor returns response-time and ping samples for a resolver from a
// vantage selector: a concrete vantage name, or "home" for the pooled
// Chicago devices.
func SamplesFor(rs *core.ResultSet, vantage, host string) (resp, ping []float64) {
	if vantage == "home" {
		return homeSamples(rs, host, core.KindQuery), homeSamples(rs, host, core.KindPing)
	}
	return rs.QuerySamples(vantage, host), rs.PingSamples(vantage, host)
}

// MedianFor returns the median response time for a vantage selector.
func MedianFor(rs *core.ResultSet, vantage, host string) float64 {
	if vantage == "home" {
		return stats.Median(homeSamples(rs, host, core.KindQuery))
	}
	return rs.MedianResponse(vantage, host)
}
