package core

import (
	"context"
	"fmt"
	"time"

	"encdns/internal/netsim"
	"encdns/internal/obs"
)

// Campaign-level instruments: round/record throughput and the number of
// vantage probes in flight, so a long-running campaign's progress reads
// live at /metrics instead of only on the Progress callback.
var (
	campaignRounds = obs.Default().Counter("campaign_rounds_total",
		"Measurement rounds completed across campaigns.")
	campaignRecords = obs.Default().Counter("campaign_records_total",
		"Records emitted across campaigns (queries and pings).")
	campaignInflight = obs.Default().Gauge("campaign_inflight_vantages",
		"Vantage probe batches currently executing.")
)

// CampaignConfig describes one measurement campaign: which vantage points
// probe which resolvers for which domains, how many rounds, and how far
// apart. §3.2: home tests ran "every few hours"; EC2 tests "three times a
// day".
type CampaignConfig struct {
	Vantages []netsim.Vantage
	Targets  []Target
	Domains  []string
	// Rounds is the number of measurement rounds; must be positive
	// unless Continuous is set.
	Rounds int
	// Continuous runs rounds forever (until ctx cancellation) — the
	// watchtower deployment mode. Rounds is ignored; records are not
	// retained in memory unless a Sink wants them first (a run with no
	// Sink forces DiscardResults so an always-on watch cannot grow
	// without bound).
	Continuous bool
	// Pace is a real-time floor between rounds. A wall clock already
	// paces itself by sleeping Interval; Pace matters for virtual-clock
	// continuous runs (watch-over-netsim), where time would otherwise
	// advance as fast as the CPU allows.
	Pace time.Duration
	// Observer, when non-nil, receives every query outcome as it
	// happens — the feed for monitor.Tracker. Targets are keyed
	// "proto:host" (e.g. "doh:dns.google") so one resolver probed over
	// several protocols tracks independently.
	Observer ProbeObserver
	// Interval is the virtual (or real) time between rounds.
	Interval time.Duration
	// Clock timestamps records and advances between rounds; nil uses a
	// virtual clock starting at the paper's campaign epoch.
	Clock netsim.Clock
	// SkipPing turns off the one ICMP probe per (vantage, target) round
	// that the paper's procedure step 2 specifies. A prober whose Label
	// says it cannot ping (a live one) skips pings regardless.
	SkipPing bool
	// Sink, when non-nil, receives every record as it is produced (in
	// deterministic order), enabling continuous deployments to stream
	// results to disk instead of holding months of records in memory —
	// how the paper's tool ran June–September 2023. Records are still
	// accumulated in the returned ResultSet unless DiscardResults is set.
	Sink func(Record) error
	// DiscardResults stops the campaign from retaining records in memory;
	// only the Sink sees them. Requires Sink.
	DiscardResults bool
	// Progress, when non-nil, receives a callback after each round.
	// total is 0 for continuous campaigns.
	Progress func(round, total int)
}

// ProbeObserver consumes per-query outcomes as the campaign produces
// them. monitor.Tracker implements it; ok carries whether the query
// succeeded, rtt its duration, and errClass the failure classification
// (empty on success).
type ProbeObserver interface {
	ObserveProbe(target string, ok bool, rtt time.Duration, errClass string)
}

// Campaign executes measurement rounds through a Prober.
type Campaign struct {
	cfg    CampaignConfig
	prober Prober
	// targets holds, per cfg.Targets entry, what every probe of it reuses.
	targets []targetState
}

// targetState is what is fixed per target for a campaign's life.
type targetState struct {
	// proto is the records' protocol label, obsKey the Observer's key.
	proto, obsKey string
	// probes counts issued queries per target host — the per-target
	// progress reading at /metrics; failures counts the failed ones.
	probes, failures *obs.Counter
}

// maxPresize caps the records Run allocates room for up front, so a long
// live campaign cancelled early does not pay for rounds it never ran.
const maxPresize = 1 << 18

// NewCampaign validates the configuration and builds a campaign.
func NewCampaign(cfg CampaignConfig, prober Prober) (*Campaign, error) {
	if prober == nil {
		return nil, fmt.Errorf("core: campaign needs a prober")
	}
	if len(cfg.Vantages) == 0 {
		return nil, fmt.Errorf("core: campaign needs at least one vantage")
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("core: campaign needs at least one target")
	}
	if len(cfg.Domains) == 0 {
		return nil, fmt.Errorf("core: campaign needs at least one domain")
	}
	if cfg.Rounds <= 0 && !cfg.Continuous {
		return nil, fmt.Errorf("core: campaign needs a positive round count")
	}
	if cfg.Clock == nil {
		cfg.Clock = netsim.NewVirtualClock(netsim.CampaignEpoch)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 8 * time.Hour
	}
	if cfg.Continuous && cfg.Sink == nil {
		// An unbounded run must not accumulate records forever; the
		// Observer/monitor side is the continuous consumer.
		cfg.DiscardResults = true
	}
	if cfg.DiscardResults && cfg.Sink == nil && !cfg.Continuous {
		return nil, fmt.Errorf("core: DiscardResults needs a Sink")
	}
	c := &Campaign{cfg: cfg, prober: prober, targets: make([]targetState, len(cfg.Targets))}
	for i, t := range cfg.Targets {
		ts := &c.targets[i]
		var pings bool
		ts.proto, ts.obsKey, pings = label(prober, t)
		if !pings {
			c.cfg.SkipPing = true
		}
		ts.probes = obs.Default().Counter("campaign_probes_total",
			"Queries issued per target resolver.", "resolver", t.Host)
		ts.failures = obs.Default().Counter("campaign_probe_failures_total",
			"Failed queries per target resolver.", "resolver", t.Host)
	}
	return c, nil
}

// perVantage is the number of records one vantage produces per round.
func (c *Campaign) perVantage() int {
	n := len(c.cfg.Domains)
	if !c.cfg.SkipPing {
		n++
	}
	return len(c.cfg.Targets) * n
}

// Run executes every round, following the paper's §3.2 measurement
// procedure per (vantage, resolver): a dig-style query per domain, then
// one ICMP probe. It stops early (returning partial results and the
// context's error) when ctx is cancelled — for Continuous campaigns
// cancellation is the only way the loop ends, and it is a clean stop,
// not an error to alarm on.
func (c *Campaign) Run(ctx context.Context) (*ResultSet, error) {
	rs := NewResultSet()
	if !c.cfg.Continuous && !c.cfg.DiscardResults {
		perRound := len(c.cfg.Vantages) * c.perVantage()
		rs.records = make([]Record, 0, perRound*min(c.cfg.Rounds, maxPresize/perRound+1))
	}
	var spare []Record // the round buffer of a run whose records only the Sink sees
	for round := 0; c.cfg.Continuous || round < c.cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return rs, err
		}
		now := c.cfg.Clock.Now()
		// The round appends straight into the set: nothing else holds rs
		// until Run returns it.
		log := rs.records
		if c.cfg.DiscardResults {
			log = spare[:0]
		}
		var err error
		for _, v := range c.cfg.Vantages {
			from := len(log)
			if log, err = c.emit(c.probeVantage(ctx, log, v, round, now), from); err != nil {
				break
			}
		}
		if c.cfg.DiscardResults {
			spare = log
		} else {
			rs.records = log
		}
		if err != nil {
			return rs, err
		}
		campaignRounds.Inc()
		if c.cfg.Progress != nil {
			total := c.cfg.Rounds
			if c.cfg.Continuous {
				total = 0
			}
			c.cfg.Progress(round+1, total)
		}
		last := !c.cfg.Continuous && round == c.cfg.Rounds-1
		if err := c.waitRound(ctx, last); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

// emit counts log[from:], the records one vantage has just added, and
// hands them to the Sink in order. A record the Sink refuses is counted
// but cut from the log, with everything after it.
func (c *Campaign) emit(log []Record, from int) ([]Record, error) {
	if c.cfg.Sink == nil {
		campaignRecords.Add(uint64(len(log) - from))
		return log, nil
	}
	for i := from; i < len(log); i++ {
		campaignRecords.Inc()
		if err := c.cfg.Sink(log[i]); err != nil {
			return log[:i], fmt.Errorf("core: sink: %w", err)
		}
	}
	return log, nil
}

// sleeper is the optional real-time side of a clock: WallClock has it,
// VirtualClock deliberately does not, so virtual-time runs never block.
type sleeper interface {
	Sleep(ctx context.Context, d time.Duration) error
}

// waitRound advances the clock by one interval and, for paced runs,
// waits out the real time before the next round. Bounded simulated
// campaigns keep their historical behaviour: advance and continue
// immediately.
func (c *Campaign) waitRound(ctx context.Context, last bool) error {
	c.cfg.Clock.Advance(c.cfg.Interval) // wall clocks no-op; time is real
	if last {
		return ctx.Err()
	}
	if s, ok := c.cfg.Clock.(sleeper); ok && (c.cfg.Continuous || c.cfg.Pace > 0) {
		d := c.cfg.Interval
		if c.cfg.Pace > d {
			d = c.cfg.Pace
		}
		return s.Sleep(ctx, d)
	}
	if c.cfg.Pace > 0 {
		// Virtual clock with a real-time floor: virtual time already
		// advanced a full interval; the pace only throttles the host CPU.
		t := time.NewTimer(c.cfg.Pace)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return ctx.Err()
}

// probeVantage runs one round's probes from one vantage point, following
// the §3.2 procedure per resolver, and appends their records to out.
func (c *Campaign) probeVantage(ctx context.Context, out []Record, v netsim.Vantage, round int, now time.Time) []Record {
	campaignInflight.Inc()
	defer campaignInflight.Dec()
	for i, t := range c.cfg.Targets {
		ts := &c.targets[i]
		for _, domain := range c.cfg.Domains {
			q := c.prober.Query(ctx, v, t, domain, round)
			ts.probes.Inc()
			if q.Err != netsim.OK {
				ts.failures.Inc()
			}
			rec := Record{
				Time:         now,
				Vantage:      v.Name,
				Resolver:     t.Host,
				Kind:         KindQuery,
				Protocol:     ts.proto,
				Domain:       domain,
				Round:        round,
				Milliseconds: float64(q.Duration) / float64(time.Millisecond),
				OK:           q.Err == netsim.OK,
			}
			if q.Err != netsim.OK {
				rec.Error = q.Err.String()
			} else {
				rec.RCode = q.RCode.String()
			}
			if c.cfg.Observer != nil {
				c.cfg.Observer.ObserveProbe(ts.obsKey, rec.OK, q.Duration, rec.Error)
			}
			out = append(out, rec)
		}
		if !c.cfg.SkipPing {
			p := c.prober.Ping(ctx, v, t, round)
			rec := Record{
				Time:     now,
				Vantage:  v.Name,
				Resolver: t.Host,
				Kind:     KindPing,
				Round:    round,
				OK:       p.OK,
			}
			if p.OK {
				rec.Milliseconds = float64(p.RTT) / float64(time.Millisecond)
			} else {
				rec.Error = "no-reply"
			}
			out = append(out, rec)
		}
	}
	return out
}

// label is a target's record label, Observer key and ping policy: the
// prober's own when it is a Labeler, else the protocol-qualified
// hostname ("doh:dns.google") with pings.
func label(p Prober, t Target) (proto, key string, pings bool) {
	if l, ok := p.(Labeler); ok {
		return l.Label(t)
	}
	proto = "doh"
	if sp, ok := p.(*SimProber); ok {
		proto = sp.Protocol.String()
	}
	return proto, proto + ":" + t.Host, true
}
