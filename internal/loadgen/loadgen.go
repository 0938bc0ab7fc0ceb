// Package loadgen generates DNS workloads against any scheme-addressed
// endpoint and records latency in a way that survives overload.
//
// Two generation disciplines are provided, because they answer different
// questions:
//
//   - Open loop: arrivals follow a schedule (constant-rate or Poisson)
//     that does not react to the system under test. Every query has an
//     intended start time fixed by the schedule, and recorded latency is
//     measured from that intended start — so when the server stalls, the
//     queries that queued behind the stall report the queueing delay they
//     actually suffered. This is the coordinated-omission-safe discipline
//     (wrk2's insight): a closed-loop client quietly stops sending while
//     the server is slow and therefore under-samples exactly the moments
//     that matter.
//   - Closed loop: N workers issue a query, wait for the response, think,
//     and repeat. This measures service latency under a fixed concurrency
//     and is the right tool for "how fast is one resolver conversation",
//     but its throughput self-limits under overload.
//
// The workload itself is a Mix: domains under a Zipf popularity skew,
// a weighted QTYPE mix, and a weighted endpoint mix spanning udp://,
// tcp://, tls://, and https:// via internal/transport. Results carry an
// HDR-style latency recorder (p50/p90/p99/p999), exact extremes, and a
// per-second timeline. RunAgainst runs the same open-loop engine against
// an in-process model on internal/netsim's virtual clock, which is how
// the coordinated-omission property is provable in a deterministic test.
package loadgen

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"time"
)

// Mode selects the generation discipline.
type Mode int

const (
	// OpenLoop paces arrivals on a schedule independent of responses.
	OpenLoop Mode = iota
	// ClosedLoop runs Workers request→response→think cycles.
	ClosedLoop
)

func (m Mode) String() string {
	if m == ClosedLoop {
		return "closed"
	}
	return "open"
}

// Arrival selects the open-loop arrival process.
type Arrival int

const (
	// ArrivalConstant spaces intended starts exactly 1/rate apart.
	ArrivalConstant Arrival = iota
	// ArrivalPoisson draws exponential inter-arrival gaps (mean 1/rate)
	// from the seeded RNG — the memoryless process real aggregate client
	// populations produce.
	ArrivalPoisson
)

func (a Arrival) String() string {
	if a == ArrivalPoisson {
		return "poisson"
	}
	return "constant"
}

// Config parameterises one generation run.
type Config struct {
	// Mode is OpenLoop (default) or ClosedLoop.
	Mode Mode
	// Rate is the offered load in queries per second (open loop).
	Rate float64
	// Arrivals selects the open-loop arrival process.
	Arrivals Arrival
	// Workers is the closed-loop concurrency; zero means 8.
	Workers int
	// Think is the closed-loop pause between a response and the next
	// query from the same worker.
	Think time.Duration
	// Duration bounds the run.
	Duration time.Duration
	// Timeout bounds each query; zero means 2s.
	Timeout time.Duration
	// MaxInFlight bounds concurrent open-loop queries; arrivals beyond it
	// are dropped (and counted against the SLO) instead of blocking the
	// schedule, which would silently re-introduce coordinated omission.
	// Zero means 4096.
	MaxInFlight int
	// Seed fixes the arrival gaps and the query mix; zero means 1.
	Seed uint64
	// Mix is the query workload; nil means the default Mix.
	Mix *Mix
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mix == nil {
		c.Mix = &Mix{}
	}
	return c
}

// Result is the outcome of one generation run.
type Result struct {
	// Config echoes the effective configuration.
	Config Config `json:"-"`
	// Offered is the number of arrivals the schedule produced.
	Offered uint64 `json:"offered"`
	// Sent is the number of queries actually launched.
	Sent uint64 `json:"sent"`
	// Received counts successful exchanges.
	Received uint64 `json:"received"`
	// Errors counts failed exchanges; Dropped counts arrivals shed at the
	// in-flight bound.
	Errors  uint64 `json:"errors"`
	Dropped uint64 `json:"dropped"`
	// Elapsed is the wall (or virtual) time the run covered.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Latency is the run-wide recorder (intended-start latency in open
	// loop, service latency in closed loop).
	Latency *Recorder `json:"-"`
	// Timeline is the per-second breakdown.
	Timeline []SecondStats `json:"timeline"`
}

// ActualQPS is the achieved success throughput.
func (r *Result) ActualQPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Received) / r.Elapsed.Seconds()
}

// ErrorRate is (errors + drops) / offered; zero when nothing was offered.
func (r *Result) ErrorRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Errors+r.Dropped) / float64(r.Offered)
}

// arrivalSchedule yields intended start offsets from the run start. Both
// processes are driven by the seeded RNG so a seed replays a schedule.
type arrivalSchedule struct {
	rate    float64
	poisson bool
	rng     *rand.Rand
	n       int
	next    time.Duration // cumulative, for poisson
}

func newArrivalSchedule(cfg Config) *arrivalSchedule {
	return &arrivalSchedule{
		rate:    cfg.Rate,
		poisson: cfg.Arrivals == ArrivalPoisson,
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x6172726976616c)), // "arrival"
	}
}

// nextOffset returns the intended start of the next arrival.
func (a *arrivalSchedule) nextOffset() time.Duration {
	if a.poisson {
		gap := a.rng.ExpFloat64() / a.rate
		a.next += time.Duration(gap * float64(time.Second))
		a.n++
		return a.next
	}
	off := time.Duration(float64(a.n) / a.rate * float64(time.Second))
	a.n++
	return off
}

// Run executes one generation run against send on the wall clock.
func Run(ctx context.Context, send SendFunc, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be positive")
	}
	if cfg.Mode == OpenLoop && cfg.Rate <= 0 {
		return nil, errors.New("loadgen: open-loop Rate must be positive")
	}
	if send == nil {
		return nil, errors.New("loadgen: nil SendFunc")
	}
	if cfg.Mode == ClosedLoop {
		return runClosed(ctx, send, cfg)
	}
	return runOpen(ctx, send, cfg)
}

// runOpen is the open-loop engine: a single dispatcher paces the arrival
// schedule, samples the mix, and hands each query to its own goroutine.
// Latency is measured from the *intended* start, so scheduler lag and
// server-induced queueing both show up in the recorded distribution.
func runOpen(ctx context.Context, send SendFunc, cfg Config) (*Result, error) {
	res := &Result{Config: cfg, Latency: NewRecorder()}
	tl := newTimeline(cfg.Duration)
	sched := newArrivalSchedule(cfg)
	smp := cfg.Mix.newSampler(cfg.Seed)

	start := time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.MaxInFlight)
	var sent, offered, dropped uint64

	for {
		off := sched.nextOffset()
		if off >= cfg.Duration {
			break
		}
		intended := start.Add(off)
		if d := time.Until(intended); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		offered++
		second := int(off / time.Second)
		tl.sent(second)
		q := smp.next()
		select {
		case sem <- struct{}{}:
		default:
			// In-flight bound reached: shed rather than stall the schedule.
			dropped++
			res.Latency.Drop()
			tl.error(second)
			continue
		}
		sent++
		wg.Add(1)
		go func(intended time.Time, second int, q Query) {
			defer wg.Done()
			defer func() { <-sem }()
			qctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
			err := send(qctx, q)
			cancel()
			lat := time.Since(intended)
			if err != nil {
				res.Latency.Error()
				tl.error(second)
				return
			}
			res.Latency.Observe(lat)
			tl.observe(second, lat)
		}(intended, second, q)
	}
	wg.Wait()

	res.Offered, res.Sent, res.Dropped = offered, sent, dropped
	res.Received = res.Latency.Count()
	res.Errors = res.Latency.Errors()
	res.Elapsed = time.Since(start)
	res.Timeline = tl.seconds()
	return res, ctx.Err()
}

// runClosed is the closed-loop engine: Workers independent
// request→response→think cycles, each with a private sampler and a
// private recorder merged at the end (Recorder.Merge — no shared atomics
// on the per-query path beyond the timeline).
func runClosed(ctx context.Context, send SendFunc, cfg Config) (*Result, error) {
	res := &Result{Config: cfg, Latency: NewRecorder()}
	tl := newTimeline(cfg.Duration)
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	recorders := make([]*Recorder, cfg.Workers)
	counts := make([]uint64, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		rec := NewRecorder()
		recorders[w] = rec
		wg.Add(1)
		go func(w int, rec *Recorder) {
			defer wg.Done()
			smp := cfg.Mix.newSampler(cfg.Seed + uint64(w)*0x9e3779b9)
			for {
				now := time.Now()
				if now.After(deadline) || ctx.Err() != nil {
					return
				}
				second := int(now.Sub(start) / time.Second)
				tl.sent(second)
				counts[w]++
				q := smp.next()
				qctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
				t0 := time.Now()
				err := send(qctx, q)
				lat := time.Since(t0)
				cancel()
				if err != nil {
					rec.Error()
					tl.error(second)
				} else {
					rec.Observe(lat)
					tl.observe(second, lat)
				}
				if cfg.Think > 0 {
					select {
					case <-time.After(cfg.Think):
					case <-ctx.Done():
						return
					}
				}
			}
		}(w, rec)
	}
	wg.Wait()

	for w, rec := range recorders {
		res.Latency.Merge(rec)
		res.Offered += counts[w]
	}
	res.Sent = res.Offered
	res.Received = res.Latency.Count()
	res.Errors = res.Latency.Errors()
	res.Elapsed = time.Since(start)
	res.Timeline = tl.seconds()
	return res, ctx.Err()
}
