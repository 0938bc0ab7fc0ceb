package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/dnswire"
)

// blockingAnswerer answers every query authoritatively with one A record,
// counting calls. Every call blocks until release is closed, so a test can
// see how many resolutions are in an upstream exchange at once.
type blockingAnswerer struct {
	calls   atomic.Int64
	release chan struct{} // exchanges block until this closes
}

func newBlockingAnswerer() *blockingAnswerer {
	return &blockingAnswerer{release: make(chan struct{})}
}

func (s *blockingAnswerer) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	s.calls.Add(1)
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	q0 := q.Question0()
	resp := q.Reply()
	resp.Header.AA = true
	resp.Answers = append(resp.Answers, dnswire.Record{
		Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")},
	})
	return resp, nil
}

// TestSingleflightDeduplicatesConcurrentMisses piles K concurrent
// identical cache misses onto the resolver and asserts that every one of
// them reaches the upstream before any exchange is released: each miss
// walks on its own goroutine, none is parked behind another's walk, and
// all K come back with the same answer.
func TestSingleflightDeduplicatesConcurrentMisses(t *testing.T) {
	upstream := newBlockingAnswerer()
	r := &Recursive{
		Exchange: upstream,
		Roots:    []string{"198.41.0.4:53"},
		Cache:    NewCache(1024, nil),
		RNGSeed:  1,
	}

	const K = 32
	var wg sync.WaitGroup
	errs := make([]error, K)
	answers := make([][]dnswire.Record, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rrs, rcode, err := r.Resolve(context.Background(), "herd.example.com.", dnswire.TypeA, 0)
			if err == nil && rcode != dnswire.RCodeSuccess {
				err = fmt.Errorf("rcode = %v", rcode)
			}
			errs[i] = err
			answers[i] = rrs
		}(i)
	}

	// Every miss must be in its own exchange while all of them still block.
	deadline := time.Now().Add(5 * time.Second)
	for upstream.calls.Load() < K && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	entered := upstream.calls.Load()
	close(upstream.release)
	wg.Wait()
	if entered != K {
		t.Fatalf("%d of %d concurrent identical misses reached the upstream before the first was released", entered, K)
	}

	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if len(answers[i]) != 1 || answers[i][0].String() != answers[0][0].String() {
			t.Fatalf("goroutine %d answered %v, goroutine 0 %v", i, answers[i], answers[0])
		}
	}
}

// TestSingleflightDistinctKeysDoNotShare checks that different (name,
// type) pairs resolve independently rather than serialising on one call.
func TestSingleflightDistinctKeysDoNotShare(t *testing.T) {
	upstream := newBlockingAnswerer()
	close(upstream.release) // no blocking: plain counting
	r := &Recursive{
		Exchange: upstream,
		Roots:    []string{"198.41.0.4:53"},
		Cache:    NewCache(1024, nil),
		RNGSeed:  1,
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("host%d.example.com.", i)
			if _, _, err := r.Resolve(context.Background(), name, dnswire.TypeA, 0); err != nil {
				t.Errorf("resolve %s: %v", name, err)
			}
		}(i)
	}
	wg.Wait()
	if got := upstream.calls.Load(); got != 8 {
		t.Fatalf("upstream exchanges = %d, want 8 (one per distinct name)", got)
	}
}

// TestCacheConcurrentStress hammers one cache from many goroutines doing
// mixed puts, lookups, replies and length reads. Run under -race (the CI
// test step does) this checks the sharded cache's locking.
func TestCacheConcurrentStress(t *testing.T) {
	c := NewCache(2048, nil)
	const (
		workers = 8
		ops     = 2000
	)
	rr := func(name string, ttl uint32) []dnswire.Record {
		return []dnswire.Record{{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")},
		}}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				name := fmt.Sprintf("n%d.example.com.", (w*31+i)%512)
				switch i % 5 {
				case 0:
					c.PutRRset(name, dnswire.TypeA, rr(name, 300))
				case 1:
					c.PutNegative(name, dnswire.TypeAAAA, i%2 == 0, 60)
				case 2:
					c.Lookup(name, dnswire.TypeA)
				case 3:
					c.Reply(dnswire.NewQuery(0, name, dnswire.TypeAAAA))
				case 4:
					c.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n < 0 || n > 2048 {
		t.Fatalf("entries = %d, want within [0, 2048]", n)
	}
}

// TestCacheCloseIdempotent closes a cache twice (teardown paths often
// race a defer against an explicit shutdown) and checks the bookkeeping
// cannot go negative or double-release.
func TestCacheCloseIdempotent(t *testing.T) {
	c := NewCache(64, nil)
	rr := []dnswire.Record{{
		Name: "x.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.9")},
	}}
	for i := 0; i < 10; i++ {
		c.PutRRset(fmt.Sprintf("h%d.example.com.", i), dnswire.TypeA, rr)
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	c.Close()
	if c.Len() != 0 {
		t.Fatalf("Len after Close = %d, want 0", c.Len())
	}
	c.Close() // must be a no-op, not a second gauge decrement
	if c.Len() != 0 {
		t.Fatalf("Len after second Close = %d, want 0", c.Len())
	}
	// A closed cache ignores puts (nothing can leak past teardown) but
	// still answers lookups.
	c.PutRRset("late.example.com.", dnswire.TypeA, rr)
	if c.Len() != 0 {
		t.Fatalf("closed cache accepted a put: Len = %d", c.Len())
	}
	if _, ok := c.Lookup("late.example.com.", dnswire.TypeA); ok {
		t.Fatal("closed cache returned a hit for an ignored put")
	}
	// Closing many caches repeatedly must leave the per-cache entry count
	// balanced; the shared gauge receives exactly the same deltas.
	for i := 0; i < 4; i++ {
		cc := NewCache(64, nil)
		cc.PutRRset("y.example.com.", dnswire.TypeA, rr)
		cc.Close()
		cc.Close()
		if cc.Len() != 0 {
			t.Fatalf("cache %d: Len after Close = %d", i, cc.Len())
		}
	}
}

// TestCacheShardingBounds checks that a large (multi-shard) cache still
// respects its global capacity bound.
func TestCacheShardingBounds(t *testing.T) {
	const max = 4096
	c := NewCache(max, nil)
	if len(c.shards) < 2 {
		t.Fatalf("cache of %d entries got %d shards, want several", max, len(c.shards))
	}
	rr := func(name string) []dnswire.Record {
		return []dnswire.Record{{
			Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.11")},
		}}
	}
	for i := 0; i < 3*max; i++ {
		name := fmt.Sprintf("host%d.example.com.", i)
		c.PutRRset(name, dnswire.TypeA, rr(name))
		if l := c.Len(); l > max {
			t.Fatalf("Len = %d exceeds max %d after %d puts", l, max, i+1)
		}
	}
	// Recently inserted keys should still be resident.
	misses := 0
	for i := 3*max - 64; i < 3*max; i++ {
		if _, ok := c.Lookup(fmt.Sprintf("host%d.example.com.", i), dnswire.TypeA); !ok {
			misses++
		}
	}
	if misses > 0 {
		t.Fatalf("%d of the 64 most recent keys were evicted", misses)
	}
}

// TestResolverStressRace mixes concurrent identical queries over an
// advancing clock, so hits, expiries and in-line walks interleave; run
// under -race by CI.
func TestResolverStressRace(t *testing.T) {
	clk := &fixedClock{now: time.Unix(1_700_000_000, 0)}
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	r := &Recursive{
		Exchange: h.Registry,
		Roots:    h.RootServers,
		Cache:    NewCache(4096, clk.Now),
		RNGSeed:  1,
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
					// Hop the clock around TTL cliffs so hits, expiries
					// and misses all interleave.
					clk.advance(45 * time.Second)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
