package resolver

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/dnswire"
	"encdns/internal/testutil"
)

// countingExchanger counts exchanges through an inner Exchanger, with an
// optional gate that in-flight exchanges block on once armed.
type countingExchanger struct {
	inner Exchanger
	calls atomic.Int64
	gated atomic.Bool
	gate  chan struct{}
}

func (c *countingExchanger) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	c.calls.Add(1)
	if c.gated.Load() {
		select {
		case <-c.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return c.inner.Exchange(ctx, q, server)
}

// TestPrefetchKeepsHotNameWarm is the ISSUE's zero-top-level-miss proof: a
// hot name queried inside its refresh-ahead window is refreshed in the
// background, so a later query past the original TTL boundary is still a
// pure cache hit — zero upstream exchanges.
func TestPrefetchKeepsHotNameWarm(t *testing.T) {
	clk := &fixedClock{now: time.Unix(1_700_000_000, 0)}
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	upstream := &countingExchanger{inner: h.Registry}
	r := &Recursive{
		Exchange:         upstream,
		Roots:            h.RootServers,
		Cache:            NewCache(4096, clk.Now),
		RNGSeed:          1,
		PrefetchFraction: 0.2,
		Now:              clk.Now,
	}
	defer r.Close()
	ctx := context.Background()

	// Warm: full cold walk. The leaf A TTL is 300s.
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(1, "google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	// Step to 250s: remaining 50s ≤ 0.2×300s — inside the refresh window.
	clk.advance(250 * time.Second)
	resp, err := r.ServeDNS(ctx, dnswire.NewQuery(2, "google.com", dnswire.TypeA))
	if err != nil || len(resp.Answers) == 0 {
		t.Fatalf("windowed hit not served immediately: %v %v", resp, err)
	}
	// The hit itself is synchronous; the refresh runs behind it.
	r.pf.wg.Wait()

	// Cross the original TTL boundary (t=310s > 300s). Without prefetch
	// this would be a top-level miss and a fresh walk; with it, the
	// refreshed entry (expires t=550s) serves with zero exchanges.
	clk.advance(60 * time.Second)
	before := upstream.calls.Load()
	resp, err = r.ServeDNS(ctx, dnswire.NewQuery(3, "google.com", dnswire.TypeA))
	if err != nil || len(resp.Answers) == 0 {
		t.Fatalf("post-boundary query failed: %v %v", resp, err)
	}
	if got := upstream.calls.Load(); got != before {
		t.Fatalf("post-boundary query cost %d upstream exchanges, want 0", got-before)
	}
	counts := readCacheCounts()
	// Sanity: the fourth query's (name, A) lookup is a hit, so the miss
	// counter cannot move for it.
	resp, err = r.ServeDNS(ctx, dnswire.NewQuery(4, "google.com", dnswire.TypeA))
	if err != nil || len(resp.Answers) == 0 {
		t.Fatal("fourth query failed")
	}
	if d := readCacheCounts().since(counts); d.misses != 0 {
		t.Fatalf("hot name still missing: %d more misses", d.misses)
	}
}

// TestPrefetchCoalescesAndBounds checks the dedup map (one refresh per key
// no matter how hot the name) and the budget semaphore (excess keys are
// dropped, not queued), here a budget of one instead of prefetchBudget.
func TestPrefetchCoalescesAndBounds(t *testing.T) {
	clk := &fixedClock{now: time.Unix(1_700_000_000, 0)}
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	upstream := &countingExchanger{inner: h.Registry, gate: make(chan struct{})}
	r := &Recursive{
		Exchange:         upstream,
		Roots:            h.RootServers,
		Cache:            NewCache(4096, clk.Now),
		RNGSeed:          1,
		PrefetchFraction: 0.2,
		Now:              clk.Now,
	}
	r.pf.inflight, r.pf.sem = map[cacheKey]struct{}{}, make(chan struct{}, 1)
	ctx := context.Background()
	for _, name := range []string{"google.com", "amazon.com"} {
		if _, err := r.ServeDNS(ctx, dnswire.NewQuery(1, name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(250 * time.Second)
	upstream.gated.Store(true) // refreshes now hang on the gate

	issued := prefetchIssued.Value()
	coalesced := prefetchCoalesced.Value()
	dropped := prefetchDropped.Value()

	// First windowed hit issues the one budgeted refresh...
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(2, "google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	// ...a repeat for the same name coalesces onto it...
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(3, "google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	// ...and a different name finds the budget exhausted and is dropped.
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(4, "amazon.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if got := prefetchIssued.Value() - issued; got != 1 {
		t.Errorf("issued = %d, want 1", got)
	}
	if got := prefetchCoalesced.Value() - coalesced; got != 1 {
		t.Errorf("coalesced = %d, want 1", got)
	}
	if got := prefetchDropped.Value() - dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	r.pf.mu.Lock()
	inflight := len(r.pf.inflight)
	r.pf.mu.Unlock()
	if inflight != 1 {
		t.Errorf("inflight = %d, want exactly the budget", inflight)
	}
	close(upstream.gate)
	r.Close()
}

// TestPrefetchStalledDoesNotBlock: a refresh that cannot reach any upstream
// fails in the background while the windowed hit that started it is
// served at once; once the entry expires the name fails like any walk.
func TestPrefetchStalledDoesNotBlock(t *testing.T) {
	clk := &fixedClock{now: time.Unix(1_700_000_000, 0)}
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	r := &Recursive{
		Exchange:         h.Registry,
		Roots:            h.RootServers,
		Cache:            NewCache(4096, clk.Now),
		RNGSeed:          1,
		PrefetchFraction: 0.2,
		Now:              clk.Now,
	}
	defer r.Close()
	ctx := context.Background()
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(1, "google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	// The upstream dies, then the hot name enters its refresh window.
	r.Exchange = exchangerFunc(func(context.Context, *dnswire.Message, string) (*dnswire.Message, error) {
		return nil, errors.New("upstream down")
	})
	clk.advance(250 * time.Second)
	resp, err := r.ServeDNS(ctx, dnswire.NewQuery(2, "google.com", dnswire.TypeA))
	if err != nil || len(resp.Answers) == 0 {
		t.Fatalf("windowed hit blocked on a doomed refresh: %v %v", resp, err)
	}
	r.pf.wg.Wait() // the refresh fails in the background
	// Past expiry: the foreground walk fails too.
	clk.advance(60 * time.Second)
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(3, "google.com", dnswire.TypeA)); !errors.Is(err, ErrNoServers) {
		t.Fatalf("expired name with no upstream: err = %v, want ErrNoServers", err)
	}
}

// TestPrefetchCloseDrains is the goroutine-leak proof: Close must wait for
// every background refresh and afterwards refuse new ones.
func TestPrefetchCloseDrains(t *testing.T) {
	before := testutil.GoroutineBaseline()
	clk := &fixedClock{now: time.Unix(1_700_000_000, 0)}
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	upstream := &countingExchanger{inner: h.Registry, gate: make(chan struct{})}
	r := &Recursive{
		Exchange:         upstream,
		Roots:            h.RootServers,
		Cache:            NewCache(4096, clk.Now),
		RNGSeed:          1,
		PrefetchFraction: 0.2,
		Now:              clk.Now,
	}
	ctx := context.Background()
	for i, name := range []string{"google.com", "amazon.com", "wikipedia.com"} {
		if _, err := r.ServeDNS(ctx, dnswire.NewQuery(uint16(i), name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(250 * time.Second)
	upstream.gated.Store(true)
	for i, name := range []string{"google.com", "amazon.com", "wikipedia.com"} {
		if _, err := r.ServeDNS(ctx, dnswire.NewQuery(uint16(10+i), name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	close(upstream.gate)
	r.Close()
	// Close has waited; after it, new windowed hits must not spawn work.
	if _, err := r.ServeDNS(ctx, dnswire.NewQuery(20, "google.com", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	r.pf.mu.Lock()
	inflight := len(r.pf.inflight)
	r.pf.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight after Close = %d", inflight)
	}
	testutil.WaitNoLeaks(t, before)
}

// TestResolverStressRace mixes prefetch and concurrent identical queries
// over an advancing clock; run under -race by CI.
func TestResolverStressRace(t *testing.T) {
	clk := &fixedClock{now: time.Unix(1_700_000_000, 0)}
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	r := &Recursive{
		Exchange:         h.Registry,
		Roots:            h.RootServers,
		Cache:            NewCache(4096, clk.Now),
		RNGSeed:          1,
		PrefetchFraction: 0.3,
		Infra:            NewInfra(clk.Now),
		Now:              clk.Now,
	}
	names := []string{"google.com", "www.amazon.com", "wikipedia.com"}
	const workers = 8
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 150; i++ {
				name := names[(w+i)%len(names)]
				if _, err := r.ServeDNS(context.Background(), dnswire.NewQuery(uint16(i), name, dnswire.TypeA)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if i%25 == 0 {
					// Hop the clock around TTL cliffs so hits, refresh
					// windows and misses all interleave.
					clk.advance(45 * time.Second)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	r.Close()
}
