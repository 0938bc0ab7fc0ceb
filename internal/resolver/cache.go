// Package resolver implements the caching recursive resolver that sits
// behind every encrypted-DNS endpoint the paper measures: a TTL-aware
// positive cache with an LRU bound, RFC 2308 negative caching, iterative
// resolution from the root with referral walking, glue use, and CNAME
// chasing, plus a simple forwarding mode. It implements dns53.Handler, so
// the same resolver instance serves Do53, DoT, and DoH frontends.
package resolver

import (
	"sync"
	"sync/atomic"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/keyhash"
	"encdns/internal/obs"
)

// Process-wide cache instruments, the one count of what every Cache
// instance does; they read at /metrics.
var (
	cacheHits = obs.Default().Counter("resolver_cache_hits_total",
		"Lookups answered from the cache (fresh entries).")
	// Hit-serve split: template hits were answered straight from the
	// precomputed wire template (AppendResponse); materialized hits went
	// through record materialization and a full repack (Lookup).
	cacheHitTemplate = obs.Default().Counter("resolver_cache_hit_serve_total",
		"Cache hits by serve path.", "path", "template")
	cacheHitMaterialized = obs.Default().Counter("resolver_cache_hit_serve_total",
		"Cache hits by serve path.", "path", "materialized")
	cacheMisses = obs.Default().Counter("resolver_cache_misses_total",
		"Lookups that found no usable entry.")
	cacheEvictions = obs.Default().Counter("resolver_cache_evictions_total",
		"Entries dropped for expiry, LRU bound, or replacement.")
	cacheEntries = obs.Default().Gauge("resolver_cache_entries",
		"Live cache entries across resolver caches (expired-but-unswept included).")
)

// Shard sizing: a cache is split into power-of-two lock shards only once
// it is big enough that each shard still holds a meaningful LRU
// (minShardCapacity entries); small caches keep one shard and therefore
// exact global LRU order.
const (
	maxCacheShards   = 16
	minShardCapacity = 64
)

// cacheKey identifies a cached RRset or negative entry.
type cacheKey struct {
	name string
	typ  dnswire.Type
}

// shardIndex hashes the key with the shared FNV-1a key hash
// (internal/keyhash — the same bytes the cluster ring hashes) and masks
// it onto a shard.
func (k cacheKey) shardIndex(mask uint32) uint32 {
	return uint32(keyhash.Key(k.name, uint16(k.typ))) & mask
}

// cacheEntry is one cached item. It is an intrusive node of its shard's
// LRU list, avoiding the separate container/list element allocation the
// previous implementation paid per entry.
//
// Everything except the LRU links and the delegation memo is immutable
// after insertion, so readers may keep serving from records and tmpl after
// dropping the shard lock: a replacement inserts a fresh entry rather than
// mutating this one in place.
type cacheEntry struct {
	key     cacheKey
	expires time.Time
	// ttl is the entry's original lifetime, kept so hits can report how
	// deep into the lifetime they landed (refresh-ahead needs the ratio).
	ttl time.Duration
	// records is the positive RRset; empty for negative entries.
	records []dnswire.Record
	// tmpl is the precomputed wire-format answer template serving hits
	// without materialize/repack; the zero template when building it
	// failed, which falls the hit back to the record path.
	tmpl answerTemplate
	// negative marks an NXDOMAIN/NODATA entry (RFC 2308).
	negative bool
	// nxdomain distinguishes NXDOMAIN from NODATA within negative entries.
	nxdomain bool
	// deleg, on an NS entry, memoises the server list of the zone cut the
	// RRset delegates (see delegation). It is the one field written after
	// insert, hence the atomic; it goes when the entry does.
	deleg      atomic.Pointer[delegation]
	prev, next *cacheEntry // intrusive LRU links; nil at list ends
}

// cacheShard is one lock domain: a map plus an intrusive LRU list
// (head = most recent, tail = least recent) under one plain mutex. Every
// access changes the list — a read re-fronts what it finds — so there is
// nothing a shared lock could let readers share.
type cacheShard struct {
	mu    sync.Mutex
	items map[cacheKey]*cacheEntry
	head  *cacheEntry
	tail  *cacheEntry
	max   int
	_     [24]byte // pads a shard to 64 bytes, one cache line
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// Cache is a TTL- and LRU-bounded DNS cache, safe for concurrent use.
// Keys are spread across lock shards so concurrent lookups of different
// names do not serialise on one mutex. An entry is dropped at the first
// read past its expiry. Recursive, Forwarder and cluster.Node each
// require one.
type Cache struct {
	shards  []cacheShard
	mask    uint32
	now     func() time.Time
	closed  atomic.Bool
	entries atomic.Int64
}

// NewCache creates a cache holding at most maxEntries RRsets (minimum 16).
// now is the clock; nil means time.Now. Virtual-time campaigns inject the
// simulation clock so TTLs expire in simulated time.
func NewCache(maxEntries int, now func() time.Time) *Cache {
	if maxEntries < 16 {
		maxEntries = 16
	}
	if now == nil {
		now = time.Now
	}
	nshards := 1
	for nshards < maxCacheShards && maxEntries/(nshards*2) >= minShardCapacity {
		nshards *= 2
	}
	c := &Cache{
		shards: make([]cacheShard, nshards),
		mask:   uint32(nshards - 1),
		now:    now,
	}
	for i := range c.shards {
		c.shards[i].items = make(map[cacheKey]*cacheEntry)
		// Integer division keeps the summed bound at or below maxEntries.
		c.shards[i].max = maxEntries / nshards
	}
	return c
}

func (c *Cache) shard(key cacheKey) *cacheShard {
	return &c.shards[key.shardIndex(c.mask)]
}

// evictLocked removes e from its shard, counting the eviction. Callers
// hold s.mu.
func (c *Cache) evictLocked(s *cacheShard, e *cacheEntry) {
	s.unlink(e)
	delete(s.items, e.key)
	c.entries.Add(-1)
	cacheEvictions.Inc()
	cacheEntries.Dec()
}

// Len returns the number of live entries (including expired-but-unswept).
func (c *Cache) Len() int {
	return int(c.entries.Load())
}

// PutRRset caches a positive RRset under the TTL of its shortest record.
// The answer section is also packed once into an immutable wire template
// so hits can be served by byte copy (see AppendResponse).
func (c *Cache) PutRRset(name string, t dnswire.Type, rrs []dnswire.Record) {
	if len(rrs) == 0 {
		return
	}
	ttl := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	cp := make([]dnswire.Record, len(rrs))
	copy(cp, rrs)
	d := time.Duration(ttl) * time.Second
	key := cacheKey{name: dnswire.CanonicalName(name), typ: t}
	c.put(&cacheEntry{
		key:     key,
		expires: c.now().Add(d),
		ttl:     d,
		records: cp,
		tmpl:    buildTemplate(key, cp),
	})
}

// putAnswers caches answer records as RRsets grouped by (name, type).
func (c *Cache) putAnswers(rrs []dnswire.Record) {
	groups := make(map[cacheKey][]dnswire.Record)
	for _, rr := range rrs {
		k := cacheKey{name: dnswire.CanonicalName(rr.Name), typ: rr.Type}
		groups[k] = append(groups[k], rr)
	}
	for k, g := range groups {
		c.PutRRset(k.name, k.typ, g)
	}
}

// PutNegative caches an NXDOMAIN or NODATA for (name, type) for ttl
// seconds (the RFC 2308 value: min(SOA TTL, SOA MINIMUM)).
func (c *Cache) PutNegative(name string, t dnswire.Type, nxdomain bool, ttl uint32) {
	c.putNegative(cacheKey{name: dnswire.CanonicalName(name), typ: t}, nxdomain, ttl)
}

// putNegative is PutNegative for a key whose name is already canonical.
// The entry is the only allocation: its template is held by value and,
// for a name without escapes, computed rather than packed.
func (c *Cache) putNegative(key cacheKey, nxdomain bool, ttl uint32) {
	d := time.Duration(ttl) * time.Second
	c.put(&cacheEntry{
		key:      key,
		expires:  c.now().Add(d),
		ttl:      d,
		negative: true,
		nxdomain: nxdomain,
		tmpl:     negativeTemplate(key),
	})
}

func (c *Cache) put(e *cacheEntry) {
	if c.closed.Load() {
		return
	}
	s := c.shard(e.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.items[e.key]; ok {
		c.evictLocked(s, old)
	}
	s.pushFront(e)
	s.items[e.key] = e
	c.entries.Add(1)
	cacheEntries.Inc()
	for len(s.items) > s.max {
		back := s.tail
		if back == nil {
			break
		}
		c.evictLocked(s, back)
	}
}

// LookupResult reports what the cache knows about a (name, type).
type LookupResult struct {
	// Records is the positive RRset with TTLs aged to the remaining
	// lifetime; nil for negative results and template-served hits.
	Records []dnswire.Record
	// Negative is true for a cached NXDOMAIN/NODATA.
	Negative bool
	// NXDomain is true when the negative entry is an NXDOMAIN.
	NXDomain bool
	// Remaining is the entry's time left before expiry and OrigTTL its
	// original lifetime, both set on every hit. Their ratio tells a
	// refresh-ahead caller how close the hit was to the TTL cliff.
	Remaining time.Duration
	OrigTTL   time.Duration
}

// MinTTL converts a hit into the RFC 8484 cache-lifetime value the
// dns53.ResponseAppender contract reports: the minimum answer TTL in
// seconds, or -1 when the response carries no answers (a negative hit; a
// positive entry is never empty). Every answer TTL is aged to at most the
// remaining lifetime and the RRset's shortest equals it, so no scan is
// needed.
func (r LookupResult) MinTTL() int64 {
	if r.Negative {
		return -1
	}
	return int64(r.Remaining / time.Second)
}

// result reports a read of e with remaining lifetime left, records aside.
func (e *cacheEntry) result(remaining time.Duration) LookupResult {
	return LookupResult{Negative: e.negative, NXDomain: e.nxdomain, Remaining: remaining, OrigTTL: e.ttl}
}

// Lookup returns the cached state for (name, type), expiring stale
// entries. ok is false on a miss. Positive records are copied with their
// TTLs aged, so the caller owns them.
func (c *Cache) Lookup(name string, t dnswire.Type) (LookupResult, bool) {
	return c.lookupKey(cacheKey{name: dnswire.CanonicalName(name), typ: t}, c.now(), true)
}

// lookupKey is Lookup for a key whose name is already canonical, at a
// time the caller read once for all of a walk's probes. client says whose
// question it is: a client's moves the hit and miss counters, one the
// resolver asks itself (NS walk, glue, the speculative CNAME) does not.
func (c *Cache) lookupKey(key cacheKey, now time.Time, client bool) (LookupResult, bool) {
	e, remaining := c.find(key, now)
	if e == nil {
		if client {
			cacheMisses.Inc()
		}
		return LookupResult{}, false
	}
	if client {
		cacheHits.Inc()
		cacheHitMaterialized.Inc()
	}
	res := e.result(remaining)
	if !e.negative {
		res.Records = append([]dnswire.Record(nil), e.records...)
		aged := uint32(remaining / time.Second)
		for i := range res.Records {
			if res.Records[i].TTL > aged {
				res.Records[i].TTL = aged
			}
		}
	}
	return res, true
}

// Reply answers q from the cache as a resolver answers a hit: q's reply
// with RA set, carrying the cached RRset (TTLs aged) or the negative
// entry's RCODE. ok is false on a miss, which Lookup has counted.
func (c *Cache) Reply(q *dnswire.Message) (*dnswire.Message, bool) {
	q0 := q.Question0()
	res, ok := c.Lookup(q0.Name, q0.Type)
	if !ok {
		return nil, false
	}
	resp := q.Reply()
	resp.Header.RA = true
	if res.NXDomain {
		resp.Header.RCode = dnswire.RCodeNXDomain
	}
	resp.Answers = res.Records
	return resp, true
}

// find is the one read of a shard's map for a lookup. In one critical
// section it looks key up, evicts it if expired, and re-fronts the entry
// it returns, so the LRU order is exact. It returns the entry and its
// remaining lifetime, or nil.
func (c *Cache) find(key cacheKey, now time.Time) (*cacheEntry, time.Duration) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.items[key]
	if e == nil {
		return nil, 0
	}
	remaining := e.expires.Sub(now)
	if remaining <= 0 {
		c.evictLocked(s, e)
		return nil, 0
	}
	s.moveToFront(e)
	return e, remaining
}

// Close releases the cache's entries and detaches it from the process-wide
// resolver_cache_entries gauge. It is idempotent: closing a cache twice
// (e.g. from both a frontend teardown and a defer) cannot drive the shared
// gauge negative. A closed cache stays usable for lookups but ignores
// further puts.
func (c *Cache) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	var dropped int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		dropped += int64(len(s.items))
		s.items = make(map[cacheKey]*cacheEntry)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
	c.entries.Add(-dropped)
	cacheEntries.Add(-dropped)
}
