package resolver

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"encdns/internal/dnswire"
)

// naiveCache is the reference TestCacheMatchesNaiveLRU holds the cache
// to: a map and a slice ordered most recent first — one global LRU, no
// shards, no templates, no pooling, no locks — with every rule written
// out the plain way.
type naiveCache struct {
	max     int
	order   []cacheKey // most recently used first
	items   map[cacheKey]naiveEntry
	hits    uint64
	misses  uint64
	evicted uint64
	bounded uint64 // evictions the size bound forced
}

type naiveEntry struct {
	expires  time.Time
	records  []dnswire.Record
	negative bool
	nxdomain bool
}

func (n *naiveCache) remove(k cacheKey) {
	delete(n.items, k)
	n.order = slices.DeleteFunc(n.order, func(x cacheKey) bool { return x == k })
	n.evicted++
}

func (n *naiveCache) put(k cacheKey, e naiveEntry) {
	if _, ok := n.items[k]; ok {
		n.remove(k) // a replacement counts as an eviction
	}
	n.items[k] = e
	n.order = slices.Insert(n.order, 0, k)
	for len(n.order) > n.max {
		n.remove(n.order[len(n.order)-1])
		n.bounded++
	}
}

// get is every read: an entry past its TTL goes; whatever a read returns
// moves to the front.
func (n *naiveCache) get(k cacheKey, now time.Time) (naiveEntry, time.Duration, bool) {
	e, ok := n.items[k]
	if !ok {
		return naiveEntry{}, 0, false
	}
	left := e.expires.Sub(now)
	if left <= 0 {
		n.remove(k)
		return naiveEntry{}, 0, false
	}
	n.order = slices.DeleteFunc(n.order, func(x cacheKey) bool { return x == k })
	n.order = slices.Insert(n.order, 0, k)
	return e, left, true
}

// lookup is Lookup: a counted read, records copied with each TTL capped
// at the whole seconds left.
func (n *naiveCache) lookup(k cacheKey, now time.Time) (LookupResult, bool) {
	e, left, ok := n.get(k, now)
	if !ok {
		n.misses++
		return LookupResult{}, false
	}
	n.hits++
	res := LookupResult{Negative: e.negative, NXDomain: e.nxdomain}
	for _, rr := range e.records {
		rr.TTL = min(rr.TTL, uint32(left/time.Second))
		res.Records = append(res.Records, rr)
	}
	return res, true
}

// appendResponse is AppendResponse: a read that declines uncounted when
// the client's question bytes are not the length of the name's plain
// spelling (fullQ), and otherwise answers — counted — with what
// materialize + AppendPack makes of the lookup result.
func (n *naiveCache) appendResponse(t *testing.T, k cacheKey, now time.Time, q *dnswire.Message, rawQ []byte, fullQ int) ([]byte, int64, bool) {
	e, left, ok := n.get(k, now)
	if !ok || len(rawQ) != fullQ {
		return nil, 0, false
	}
	n.hits++
	minTTL := int64(left / time.Second)
	if e.negative {
		minTTL = -1
	}
	resp := q.Reply()
	resp.Header.RA = true
	if e.nxdomain {
		resp.Header.RCode = dnswire.RCodeNXDomain
	}
	for _, rr := range e.records {
		rr.TTL = min(rr.TTL, uint32(left/time.Second))
		resp.Answers = append(resp.Answers, rr)
	}
	wire, err := resp.AppendPack(nil)
	if err != nil {
		t.Fatalf("reference pack: %v", err)
	}
	return wire, minTTL, true
}

// lruOrder is the cache's one shard's list, most recent first.
func lruOrder(c *Cache) []cacheKey {
	s := &c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []cacheKey
	for e := s.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

// naiveRecords is a random RRset for key: one to three records whose
// TTLs start at ttl.
func naiveRecords(rng *rand.Rand, key cacheKey, ttl uint32) []dnswire.Record {
	rrs := make([]dnswire.Record, 1+rng.IntN(3))
	for i := range rrs {
		rrs[i] = dnswire.Record{Name: key.name, Type: key.typ, Class: dnswire.ClassIN, TTL: ttl + uint32(rng.IntN(3))}
		if key.typ == dnswire.TypeA {
			rrs[i].Data = &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(rng.IntN(256))})}
		} else {
			rrs[i].Data = &dnswire.TXT{Strings: []string{strings.Repeat("t", 1+rng.IntN(40))}}
		}
	}
	rrs[rng.IntN(len(rrs))].TTL = ttl
	return rrs
}

// TestCacheMatchesNaiveLRU runs seeded random operation sequences against
// the cache and naiveCache side by side on a virtual clock: puts of both
// kinds, counted lookups, template serves (some with a question of the
// wrong length), and clock jumps that land on, just before and just past
// TTL edges. A cache of at most 127 entries has one shard, so its LRU is
// the global one. After every step the hit, miss and eviction counts
// (resolver_cache_*), the entry count, the LRU order (and so which key
// each eviction took), every result with its aged TTLs, and every
// template response's bytes must match.
func TestCacheMatchesNaiveLRU(t *testing.T) {
	const (
		seeds    = 8
		steps    = 2000
		capacity = 32
	)
	ttls := []uint32{0, 1, 2, 5, 30, 60, 300}
	jumps := []time.Duration{time.Nanosecond, 999 * time.Millisecond, time.Second, 2 * time.Second, 5 * time.Second, 21 * time.Second}

	// 48 names × 2 types: three times what the cache holds.
	type keyInfo struct {
		key   cacheKey
		fullQ int // wire length of the question in its plain spelling
	}
	var keys []keyInfo
	for i := 0; i < 48; i++ {
		for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT} {
			k := cacheKey{name: fmt.Sprintf("n%d.lru.example.", i), typ: typ}
			raw, err := dnswire.NewQuery(0, k.name, k.typ).AppendPack(nil)
			if err != nil {
				t.Fatal(err)
			}
			rawQ, _ := dnswire.QuestionBytes(raw)
			keys = append(keys, keyInfo{key: k, fullQ: len(rawQ)})
		}
	}

	var tally struct {
		hits, templateHits, declined, expiredEvictions, edges int
		boundEvictions                                        uint64
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x1b5))
		clk := &tmplClock{now: time.Unix(1700000000, 0)}
		c := NewCache(capacity, clk.Now)
		if len(c.shards) != 1 {
			t.Fatalf("a %d-entry cache has %d shards", capacity, len(c.shards))
		}
		ref := &naiveCache{max: capacity, items: map[cacheKey]naiveEntry{}}
		base := readCacheCounts()
		for step := 0; step < steps; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}
			ki := keys[rng.IntN(1+rng.IntN(len(keys)))] // low indices run hot
			key, now := ki.key, clk.now
			spelled := key.name
			if rng.IntN(4) == 0 {
				spelled = strings.ToUpper(spelled) // lookups canonicalise
			}
			evictedBefore := ref.evicted
			op := rng.IntN(100)
			switch {
			case op < 25:
				ttl := ttls[rng.IntN(len(ttls))]
				rrs := naiveRecords(rng, key, ttl)
				c.PutRRset(spelled, key.typ, rrs)
				d := time.Duration(ttl) * time.Second
				ref.put(key, naiveEntry{expires: now.Add(d), records: slices.Clone(rrs)})
			case op < 35:
				ttl, nx := ttls[rng.IntN(len(ttls))], rng.IntN(2) == 0
				c.PutNegative(spelled, key.typ, nx, ttl)
				d := time.Duration(ttl) * time.Second
				ref.put(key, naiveEntry{expires: now.Add(d), negative: true, nxdomain: nx})
			case op < 62:
				got, gotOK := c.Lookup(spelled, key.typ)
				want, wantOK := ref.lookup(key, now)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					fail("Lookup(%v) = %+v %v, reference %+v %v", key, got, gotOK, want, wantOK)
				}
				if gotOK {
					tally.hits++
				}
			case op < 88:
				raw, err := dnswire.NewQuery(uint16(step), key.name, key.typ).AppendPack(nil)
				if err != nil {
					t.Fatal(err)
				}
				mangleCase(raw, rng.Uint64())
				q, err := dnswire.Unpack(raw)
				if err != nil {
					t.Fatal(err)
				}
				rawQ, _ := dnswire.QuestionBytes(raw)
				if op >= 81 {
					rawQ = rawQ[:len(rawQ)-1] // a question of another length
				}
				got, gotTTL, gotOK := c.AppendResponse(nil, q, rawQ)
				want, wantTTL, wantOK := ref.appendResponse(t, key, now, q, rawQ, ki.fullQ)
				if gotOK != wantOK || gotTTL != wantTTL {
					fail("AppendResponse(%v) = minTTL %d %v, reference %d %v", key, gotTTL, gotOK, wantTTL, wantOK)
				}
				if !gotOK {
					if _, held := ref.items[key]; held {
						tally.declined++
					}
					break
				}
				if !bytes.Equal(got[12:12+len(rawQ)], rawQ) {
					fail("question not echoed verbatim")
				}
				lowerQuestion(got)
				if !bytes.Equal(got, want) {
					fail("template response differs from materialize + AppendPack:\ntmpl %x\n mat %x", got, want)
				}
				tally.templateHits++
			default:
				// Half the jumps go to the next expiry of a held entry,
				// landing a nanosecond before, on, or a nanosecond past it.
				d := jumps[rng.IntN(len(jumps))]
				var next time.Time
				for _, e := range ref.items {
					if e.expires.After(now) && (next.IsZero() || e.expires.Before(next)) {
						next = e.expires
					}
				}
				if rng.IntN(2) == 0 && !next.IsZero() {
					d = max(next.Sub(now)+time.Duration(rng.IntN(3)-1)*time.Nanosecond, 0)
					tally.edges++
				}
				clk.now = now.Add(d)
			}
			if op >= 35 && op < 88 && ref.evicted > evictedBefore {
				tally.expiredEvictions++ // a read met an expired entry
			}

			if m := readCacheCounts().since(base); m.hits != ref.hits || m.misses != ref.misses || m.evictions != ref.evicted || c.Len() != len(ref.items) {
				fail("counted %+v and %d entries, reference hits %d misses %d evictions %d entries %d",
					m, c.Len(), ref.hits, ref.misses, ref.evicted, len(ref.items))
			}
			if got := lruOrder(c); !slices.Equal(got, ref.order) {
				fail("LRU order\n got %v\nwant %v", got, ref.order)
			}
		}
		c.Close()
		tally.boundEvictions += ref.bounded
	}
	t.Logf("%+v", tally)
	if tally.hits < 500 || tally.templateHits < 500 || tally.declined < 200 ||
		tally.expiredEvictions < 500 || tally.edges < 500 || tally.boundEvictions < 500 {
		t.Fatalf("sequences too tame: %+v", tally)
	}
}
