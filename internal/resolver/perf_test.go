package resolver

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
)

// Microbenchmarks feeding the CI bench smoke step.
// BenchmarkCacheGetPut is the single-goroutine hot path; the concurrent
// variant is where lock sharding pays: the pre-sharding cache serialised
// every lookup on one mutex.

func BenchmarkCacheGetPut(b *testing.B) {
	c := NewCache(4096, nil)
	rrs := []dnswire.Record{{Name: "www.example.com", Type: dnswire.TypeA,
		Class: dnswire.ClassIN, TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	c.PutRRset("www.example.com", dnswire.TypeA, rrs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			c.PutRRset("www.example.com", dnswire.TypeA, rrs)
		}
		if _, ok := c.Lookup("www.example.com", dnswire.TypeA); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkResolveConcurrent(b *testing.B) {
	c := NewCache(4096, func() time.Time { return time.Unix(0, 0) })
	names := make([]string, 64)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + "x.example.com."
		c.PutRRset(names[i], dnswire.TypeA, []dnswire.Record{{
			Name: names[i], Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")}}})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			res, ok := c.Lookup(names[i%len(names)], dnswire.TypeA)
			if !ok || len(res.Records) == 0 {
				b.Fatal("miss")
			}
			i++
		}
	})
}

// serveHitBench builds a warmed cache plus a parsed query and runs the
// cache-hit serve path to full response bytes b.N times. template=true
// is the tentpole wire-template path (AppendResponse); false is the
// materialize+repack reference, what ServeDNS does with a hit: Lookup, a
// Reply-shaped response, a full AppendPack.
func serveHitBench(b *testing.B, template bool) {
	c := NewCache(4096, nil)
	name := "www.example.com."
	c.PutRRset(name, dnswire.TypeA, []dnswire.Record{
		{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}},
	})
	q := dnswire.NewQuery(42, name, dnswire.TypeA)
	raw, err := q.AppendPack(nil)
	if err != nil {
		b.Fatal(err)
	}
	rawQ, ok := dnswire.QuestionBytes(raw)
	if !ok {
		b.Fatal("QuestionBytes declined")
	}
	query, err := dnswire.Unpack(raw)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if template {
			wire, _, ok := c.AppendResponse(out[:0], query, rawQ)
			if !ok {
				b.Fatal("template declined")
			}
			out = wire
			continue
		}
		res, ok := c.Lookup(name, dnswire.TypeA)
		if !ok {
			b.Fatal("miss")
		}
		resp := query.Reply()
		resp.Header.RA = true
		resp.Answers = res.Records
		wire, err := resp.AppendPack(out[:0])
		if err != nil {
			b.Fatal(err)
		}
		out = wire
	}
}

// BenchmarkServeHitTemplate is the tentpole number: a cache hit served
// as header write + question echo + answer memcpy + TTL patches.
func BenchmarkServeHitTemplate(b *testing.B) { serveHitBench(b, true) }

// BenchmarkServeHitMaterialized is the pre-template baseline the ≥2×
// acceptance criterion compares against.
func BenchmarkServeHitMaterialized(b *testing.B) { serveHitBench(b, false) }

// BenchmarkCacheHitStorm hammers one hot name from 8 goroutines — every
// lookup lands on the same shard and takes its one mutex to re-front the
// entry, the worst case for LRU bookkeeping under contention.
func BenchmarkCacheHitStorm(b *testing.B) {
	c := NewCache(4096, nil)
	name := "hot.example.com."
	c.PutRRset(name, dnswire.TypeA, []dnswire.Record{{
		Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}})
	// Background entries, so the hot one has neighbours to move past.
	for i := 0; i < 256; i++ {
		n := fmt.Sprintf("cold%d.example.com.", i)
		c.PutRRset(n, dnswire.TypeA, []dnswire.Record{{
			Name: n, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}}})
	}
	b.SetParallelism(8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := c.Lookup(name, dnswire.TypeA); !ok {
				b.Fatal("miss")
			}
		}
	})
}

// missQueries packs n queries for distinct random-looking subdomains of
// google.com, the shape of the udp-miss workload: every one is an NXDOMAIN
// the resolver has never seen.
func missQueries(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		name := fmt.Sprintf("%016x.google.com.", uint64(i+1)*0x9e3779b97f4a7c15)
		raw, err := dnswire.NewQuery(uint16(i), name, dnswire.TypeA).AppendPack(nil)
		if err != nil {
			panic(err)
		}
		out[i] = raw
	}
	return out
}

// missStack is the udp-miss server's resolver: the built-in hierarchy, a
// 4096-entry cache, everything else the zero value. One resolved name
// warms the google.com. delegation.
func missStack(tb testing.TB) *Recursive {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	r := &Recursive{Exchange: h.Registry, Roots: h.RootServers, Cache: NewCache(4096, nil)}
	if _, _, err := r.Resolve(context.Background(), "google.com.", dnswire.TypeA, 0); err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkResolveMiss is one client miss end to end inside the process:
// unpack the query, decline the hit path, walk from the cached delegation
// to the leaf (one exchange), insert the negative entry (evicting one once
// the cache is full) and pack the NXDOMAIN.
func BenchmarkResolveMiss(b *testing.B) {
	r := missStack(b)
	queries := missQueries(b.N)
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	out := make([]byte, 0, 512)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for _, raw := range queries {
		if err := msg.Unpack(raw); err != nil {
			b.Fatal(err)
		}
		resp, _, err := dns53.Answer(ctx, r, out[:0], msg, raw, dnswire.MaxMessageSize)
		if err != nil || resp[3]&0x0f != byte(dnswire.RCodeNXDomain) {
			b.Fatalf("miss answered %x, %v", resp, err)
		}
	}
}
