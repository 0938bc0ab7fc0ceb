package resolver

import (
	"context"
	"math/rand/v2"
	"net/netip"
	"sync"
	"testing"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/netsim"
)

func TestInfraObserveEWMA(t *testing.T) {
	inf := NewInfra(nil)
	inf.Observe("198.51.100.1:53", 100*time.Millisecond)
	stats := inf.Snapshot()
	if len(stats) != 1 {
		t.Fatalf("snapshot = %v", stats)
	}
	// First sample: SRTT = sample, RTTVAR = sample/2.
	if stats[0].SRTT != 100*time.Millisecond || stats[0].RTTVar != 50*time.Millisecond {
		t.Fatalf("first sample: srtt=%v rttvar=%v", stats[0].SRTT, stats[0].RTTVar)
	}
	// Second sample moves srtt by alpha toward it: 100 + 0.3*(200-100) = 130.
	inf.Observe("198.51.100.1:53", 200*time.Millisecond)
	stats = inf.Snapshot()
	if got, want := stats[0].SRTT, 130*time.Millisecond; got != want {
		t.Fatalf("EWMA srtt = %v, want %v", got, want)
	}
	if stats[0].Observations != 2 {
		t.Fatalf("observations = %d", stats[0].Observations)
	}
}

func TestInfraPenaltyDecaysInVirtualTime(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	inf := NewInfra(netsim.NowFunc(clk))
	inf.Fail("198.51.100.1:53")
	if s := inf.Snapshot()[0]; s.Penalty != failPenalty || s.Failures != 1 {
		t.Fatalf("fresh failure: %+v", s)
	}
	// One half-life halves the penalty.
	clk.Advance(penaltyHalfLife)
	if s := inf.Snapshot()[0]; s.Penalty != failPenalty/2 {
		t.Fatalf("penalty after one half-life = %v, want %v", s.Penalty, failPenalty/2)
	}
	// Long quiet spells clear it entirely.
	clk.Advance(time.Hour)
	if s := inf.Snapshot()[0]; s.Penalty != 0 {
		t.Fatalf("penalty after an hour = %v, want 0", s.Penalty)
	}
}

func TestInfraSuccessHalvesPenalty(t *testing.T) {
	clk := netsim.NewVirtualClock(netsim.CampaignEpoch)
	inf := NewInfra(clk.Now)
	inf.Fail("ns:53")
	inf.Observe("ns:53", 10*time.Millisecond)
	if s := inf.Snapshot()[0]; s.Penalty != failPenalty/2 {
		t.Fatalf("penalty after success = %v, want %v", s.Penalty, failPenalty/2)
	}
}

func TestInfraSelectPrefersFastAndUnknown(t *testing.T) {
	inf := NewInfra(nil)
	inf.Observe("fast:53", 5*time.Millisecond)
	inf.Observe("slow:53", 300*time.Millisecond)
	// nil rng: no exploration, pure score order.
	best, second := inf.Select([]string{"slow:53", "fast:53", "new:53"}, nil)
	// fast (5ms) < new (80ms optimistic default) < slow (300ms).
	if best != "fast:53" || second != "new:53" {
		t.Fatalf("select = (%q, %q), want fast then unknown", best, second)
	}
	// A lone server needs no scoring.
	if b, s := inf.Select([]string{"only:53"}, nil); b != "only:53" || s != "" {
		t.Fatalf("single-server select = (%q, %q)", b, s)
	}
	if b, s := inf.Select(nil, nil); b != "" || s != "" {
		t.Fatalf("empty select = (%q, %q)", b, s)
	}
}

func TestInfraExplorationKeepsProbing(t *testing.T) {
	inf := NewInfra(nil)
	inf.Observe("fast:53", 1*time.Millisecond)
	inf.Observe("slow:53", 500*time.Millisecond)
	rng := rand.New(rand.NewPCG(7, 7))
	servers := []string{"fast:53", "slow:53"}
	slowLeads := 0
	const picks = 2000
	for i := 0; i < picks; i++ {
		if best, _ := inf.Select(servers, rng); best == "slow:53" {
			slowLeads++
		}
	}
	// Exploration is ~exploreP/2 of picks (the explored index can land on
	// the winner). Expect a small but non-zero share.
	if slowLeads == 0 {
		t.Fatal("slow server never explored; stale SRTTs could persist forever")
	}
	if float64(slowLeads)/picks > 3*exploreP {
		t.Fatalf("slow server led %d/%d picks; exploration rate far above %v", slowLeads, picks, exploreP)
	}
}

func TestInfraHedgeDelayBounds(t *testing.T) {
	inf := NewInfra(nil)
	// Unknown server: optimistic default, not the floor.
	if d := inf.HedgeDelay("unknown:53"); d != 2*unknownSRTT {
		t.Fatalf("unknown hedge delay = %v, want %v", d, 2*unknownSRTT)
	}
	inf.Observe("micro:53", 100*time.Microsecond)
	if d := inf.HedgeDelay("micro:53"); d != minHedgeDelay {
		t.Fatalf("fast-path hedge delay = %v, want clamp to %v", d, minHedgeDelay)
	}
	inf.Observe("glacial:53", 10*time.Second)
	if d := inf.HedgeDelay("glacial:53"); d != maxHedgeDelay {
		t.Fatalf("slow-path hedge delay = %v, want clamp to %v", d, maxHedgeDelay)
	}
}

func TestInfraSnapshotSortedAndBounded(t *testing.T) {
	inf := NewInfra(nil)
	inf.Observe("a:53", 30*time.Millisecond)
	inf.Observe("b:53", 10*time.Millisecond)
	inf.Fail("c:53")
	stats := inf.Snapshot()
	if len(stats) != 3 || inf.Len() != 3 {
		t.Fatalf("snapshot len = %d, Len = %d", len(stats), inf.Len())
	}
	for i := 1; i < len(stats); i++ {
		if stats[i-1].Score > stats[i].Score {
			t.Fatalf("snapshot not sorted by score: %v", stats)
		}
	}
	if stats[0].Server != "b:53" {
		t.Fatalf("best server = %q, want b:53", stats[0].Server)
	}
}

// delayedAnswerer answers every query with an A record after advancing a
// virtual clock by the per-server delay, so the resolver's RTT measurement
// sees exactly that delay without any real sleeping.
type delayedAnswerer struct {
	clk    *fixedClock
	delays map[string]time.Duration
	mu     sync.Mutex
	calls  map[string]int
}

func (d *delayedAnswerer) Exchange(_ context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	d.mu.Lock()
	if d.calls == nil {
		d.calls = make(map[string]int)
	}
	d.calls[server]++
	d.mu.Unlock()
	d.clk.advance(d.delays[server])
	q0 := q.Question0()
	resp := q.Reply()
	resp.Header.AA = true
	resp.Answers = append(resp.Answers, dnswire.Record{
		Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.77")},
	})
	return resp, nil
}

func (d *delayedAnswerer) count(server string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls[server]
}

// TestSRTTConvergesAwayFromSlowServer is the ISSUE's deterministic netsim
// proof: with a 200ms server in a 3-NS set, SRTT selection must stop
// choosing it within a handful of queries — everything runs on a virtual
// clock, so the test takes microseconds of real time and the same seed
// always walks the same path.
func TestSRTTConvergesAwayFromSlowServer(t *testing.T) {
	clk := &fixedClock{now: netsim.CampaignEpoch}
	slow := "203.0.113.1:53"
	fastA := "203.0.113.2:53"
	fastB := "203.0.113.3:53"
	upstream := &delayedAnswerer{clk: clk, delays: map[string]time.Duration{
		slow:  200 * time.Millisecond,
		fastA: 10 * time.Millisecond,
		fastB: 12 * time.Millisecond,
	}}
	r := &Recursive{
		Exchange: upstream,
		// All three servers are "roots" so every query is one exchange.
		Roots:   []string{slow, fastA, fastB},
		Cache:   NewCache(4096, clk.Now),
		RNGSeed: 1,
		Infra:   NewInfra(clk.Now),
		Now:     clk.Now,
	}
	const queries = 50
	for i := 0; i < queries; i++ {
		// Unique names: every query misses the cache.
		name := "q" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".example.com."
		if _, rcode, err := r.Resolve(context.Background(), name, dnswire.TypeA, 0); err != nil || rcode != dnswire.RCodeSuccess {
			t.Fatalf("query %d: rcode=%v err=%v", i, rcode, err)
		}
	}
	slowCalls := upstream.count(slow)
	fastCalls := upstream.count(fastA) + upstream.count(fastB)
	// The slow server may be measured once (first contact) and re-probed by
	// the ~5% exploration, but the bulk of traffic must have converged onto
	// the fast pair.
	if slowCalls > queries/10 {
		t.Fatalf("slow server got %d/%d queries; selection did not converge", slowCalls, queries)
	}
	if fastCalls < queries*8/10 {
		t.Fatalf("fast servers got only %d/%d queries", fastCalls, queries)
	}
	// The infra table must reflect the measured asymmetry.
	stats := r.Infra.Snapshot()
	if stats[0].Server == slow {
		t.Fatalf("slow server ranked best: %v", stats)
	}
}

// TestHedgeRacesSecondBest wires a best server that hangs and asserts the
// SRTT-derived hedge fires, the second-best answers, and the hanging
// server is not charged a failure for our own cancellation.
func TestHedgeRacesSecondBest(t *testing.T) {
	hang := "203.0.113.1:53"
	backup := "203.0.113.2:53"
	inf := NewInfra(nil)
	// Pre-warm so hang is best (1ms) and backup second (5ms); the hedge
	// delay for hang is then 2*1ms+2*0.5ms = 3ms — a fast test.
	inf.Observe(hang, 1*time.Millisecond)
	inf.Observe(backup, 5*time.Millisecond)
	upstream := exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		if server == hang {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		q0 := q.Question0()
		resp := q.Reply()
		resp.Header.AA = true
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.88")},
		})
		return resp, nil
	})
	r := &Recursive{
		Exchange: upstream,
		Roots:    []string{hang, backup},
		Cache:    NewCache(64, nil),
		RNGSeed:  1,
		Infra:    inf,
		Hedge:    true,
	}
	wins := resolverHedgeWins.Value()
	rrs, rcode, err := r.Resolve(context.Background(), "hedged.example.com.", dnswire.TypeA, 0)
	if err != nil || rcode != dnswire.RCodeSuccess || len(rrs) == 0 {
		t.Fatalf("hedged resolve: rrs=%v rcode=%v err=%v", rrs, rcode, err)
	}
	if got := resolverHedgeWins.Value(); got != wins+1 {
		t.Fatalf("hedge wins = %d, want %d", got, wins+1)
	}
	for _, s := range inf.Snapshot() {
		if s.Server == hang && s.Failures != 0 {
			t.Fatalf("hanging best server charged %d failures for a hedge cancellation", s.Failures)
		}
	}
}

// TestInfraFailureSteersSelection checks the penalty path end to end: a
// server that errors gets penalised and the retry goes elsewhere.
func TestInfraFailureSteersSelection(t *testing.T) {
	clk := &fixedClock{now: netsim.CampaignEpoch}
	dead := "203.0.113.9:53"
	alive := "203.0.113.10:53"
	upstream := exchangerFunc(func(_ context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
		if server == dead {
			return nil, context.DeadlineExceeded
		}
		q0 := q.Question0()
		resp := q.Reply()
		resp.Header.AA = true
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.99")},
		})
		return resp, nil
	})
	r := &Recursive{
		Exchange: upstream,
		Roots:    []string{dead, alive},
		Cache:    NewCache(64, clk.Now),
		RNGSeed:  1,
		Infra:    NewInfra(clk.Now),
		Now:      clk.Now,
	}
	if _, rcode, err := r.Resolve(context.Background(), "steer.example.com.", dnswire.TypeA, 0); err != nil || rcode != dnswire.RCodeSuccess {
		t.Fatalf("rcode=%v err=%v", rcode, err)
	}
	var deadStat *InfraStat
	for _, s := range r.Infra.Snapshot() {
		if s.Server == dead {
			deadStat = &s
			break
		}
	}
	if deadStat == nil {
		// The dead server may simply never have been picked (alive scored
		// equal and won the scan) — that is also a pass for steering.
		return
	}
	if deadStat.Failures == 0 || deadStat.Penalty == 0 {
		t.Fatalf("dead server not penalised: %+v", *deadStat)
	}
}
