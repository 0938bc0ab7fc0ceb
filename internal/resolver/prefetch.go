package resolver

import (
	"context"
	"sync"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// Refresh-ahead instruments.
var (
	prefetchHits = obs.Default().Counter("resolver_prefetch_hits_total",
		"Cache hits that landed inside the refresh-ahead window.")
	prefetchIssued = obs.Default().Counter("resolver_prefetch_issued_total",
		"Background refresh walks actually launched.")
	prefetchCoalesced = obs.Default().Counter("resolver_prefetch_coalesced_total",
		"Refresh-ahead triggers absorbed by an already-in-flight refresh.")
	prefetchDropped = obs.Default().Counter("resolver_prefetch_dropped_total",
		"Refresh-ahead triggers dropped because the budget was exhausted.")
	prefetchRefreshed = obs.Default().Counter("resolver_prefetch_refreshed_total",
		"Background refreshes that completed and re-warmed the cache.")
	prefetchInflight = obs.Default().Gauge("resolver_prefetch_inflight",
		"Background refresh goroutines currently running.")
)

const (
	// prefetchBudget bounds concurrent background refreshes.
	prefetchBudget = 32
	// prefetchTimeout bounds one background refresh walk; the foreground
	// hit was already served, so a stuck walk should just die quietly.
	prefetchTimeout = 5 * time.Second
)

// prefetcher tracks refresh-ahead goroutines: a dedup map so one name in
// its refresh window triggers one walk no matter how hot it is, a
// semaphore bounding total concurrency, and a WaitGroup so Close can
// drain every refresh before the owner tears down the cache or exchanger.
type prefetcher struct {
	mu       sync.Mutex
	inflight map[cacheKey]struct{}
	sem      chan struct{}
	wg       sync.WaitGroup
	closed   bool
}

// noteRefreshAhead inspects a fresh positive cache hit and, when it falls
// inside the final PrefetchFraction of the entry's original TTL, kicks off
// a deduplicated, budget-bounded background re-resolution. The hit itself
// has already been served — refresh-ahead only ever adds work off-path.
func (r *Recursive) noteRefreshAhead(key cacheKey, res LookupResult) {
	frac := r.PrefetchFraction
	if frac <= 0 || res.Negative || res.OrigTTL <= 0 {
		return
	}
	if float64(res.Remaining) > frac*float64(res.OrigTTL) {
		return
	}
	prefetchHits.Inc()
	r.maybePrefetch(key)
}

// maybePrefetch launches a background refresh for key unless one is
// already in flight (coalesced), the budget is exhausted (dropped), or
// the resolver is closing.
func (r *Recursive) maybePrefetch(key cacheKey) {
	pf := &r.pf
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return
	}
	if pf.inflight == nil {
		pf.inflight = make(map[cacheKey]struct{})
		pf.sem = make(chan struct{}, prefetchBudget)
	}
	if _, dup := pf.inflight[key]; dup {
		pf.mu.Unlock()
		prefetchCoalesced.Inc()
		return
	}
	select {
	case pf.sem <- struct{}{}:
	default:
		pf.mu.Unlock()
		prefetchDropped.Inc()
		return
	}
	pf.inflight[key] = struct{}{}
	// wg.Add happens under the same lock as the closed check, so Close's
	// wg.Wait can never race with a straggling Add.
	pf.wg.Add(1)
	pf.mu.Unlock()

	prefetchIssued.Inc()
	prefetchInflight.Inc()
	go r.runPrefetch(key)
}

// runPrefetch is the background refresh: a bounded-time resolveWalk whose
// answers land in the cache as every walk's do. It deliberately bypasses
// both the cache lookup (the stale-ish entry is exactly what it must
// replace) and the top-level singleflight (a foreground miss waiting on
// the singleflight should never chain behind a background refresh's
// timeout).
func (r *Recursive) runPrefetch(key cacheKey) {
	defer func() {
		pf := &r.pf
		pf.mu.Lock()
		delete(pf.inflight, key)
		<-pf.sem
		pf.mu.Unlock()
		prefetchInflight.Dec()
		pf.wg.Done()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), prefetchTimeout)
	defer cancel()
	if _, rcode, err := r.resolveWalk(ctx, key, r.Cache.now(), 0); err == nil && rcode == dnswire.RCodeSuccess {
		prefetchRefreshed.Inc()
		if r.OnPrefetch != nil {
			r.OnPrefetch(key.name, key.typ)
		}
	}
}

// Close stops accepting new refresh-ahead work and blocks until every
// in-flight background refresh has finished, so callers can tear down the
// exchanger and cache afterwards without racing stray goroutines.
func (r *Recursive) Close() {
	pf := &r.pf
	pf.mu.Lock()
	pf.closed = true
	pf.mu.Unlock()
	pf.wg.Wait()
}
