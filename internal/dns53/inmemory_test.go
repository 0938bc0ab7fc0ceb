// Tests for handlers that answer from memory (dns53.InMemory): their
// misses are run to completion in the receive loop like hits, and only a
// handler that may block gets a goroutine per miss — up to a bound past
// which the loop drops instead of stopping. External package for the same
// import-cycle reason as template_test.go.
package dns53_test

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/authdns"
	"encdns/internal/cluster"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/monitor"
	"encdns/internal/obs"
	"encdns/internal/resolver"
	"encdns/internal/testutil"
	"encdns/internal/udpbatch"
)

// registryResolver is the resolver dohserver runs by default: the paper's
// hierarchy walked in memory, with a cache of n entries. With n 0 the
// cache is closed, so it keeps nothing and every query is a miss.
func registryResolver(n int) *resolver.Recursive {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	r := &resolver.Recursive{Exchange: h.Registry, Roots: h.RootServers, Cache: resolver.NewCache(n, nil), RNGSeed: 1}
	if n == 0 {
		r.Cache.Close()
	}
	return r
}

// exampleZone is an authoritative example.com. holding www.example.com. A.
func exampleZone() *authdns.Zone {
	z := authdns.NewZone("example.com.")
	z.SetSOA("ns.example.com.", "hostmaster.example.com.", 1, 60)
	z.AddA("www.example.com.", 300, netip.MustParseAddr("192.0.2.1"))
	return z
}

// hiddenExchanger is an exchanger that does not say it answers from
// memory, as a socket-backed one would not.
type hiddenExchanger struct{ resolver.Exchanger }

var domains = []string{"google.com.", "amazon.com.", "wikipedia.com."}

func peerAt(i int) *net.UDPAddr {
	return &net.UDPAddr{IP: net.IPv4(192, 0, 2, byte(i)), Port: 4000 + i}
}

// mixedRegistryBatch is n queries from n peers alternating between hits on
// the three domains and never-seen names under them (NXDOMAIN misses,
// unique per seq), the udp-miss workload's names.
func mixedRegistryBatch(t testing.TB, seq, n int) []memPkt {
	batch := make([]memPkt, n)
	for i := range batch {
		name := domains[i%len(domains)]
		if i%2 == 1 {
			name = fmt.Sprintf("%08x-%02x.%s", seq, i, name)
		}
		batch[i] = memPkt{packQuery(t, uint16(i), name, dnswire.TypeA, 1232), peerAt(i)}
	}
	return batch
}

// TestInMemoryMissesShareTheBatchWrite: behind a resolver that answers
// from memory, a batch of hits and misses is answered in the receive loop
// and leaves in the batch's one WriteBatch — nothing is handed off — and
// costs only the misses' own allocations.
func TestInMemoryMissesShareTheBatchWrite(t *testing.T) {
	conn := newMemConn(nil)
	srv := &dns53.Server{Handler: registryResolver(4096)}
	go srv.ServeUDP(conn)
	t.Cleanup(srv.Shutdown)

	warm := make([]memPkt, len(domains))
	for i, d := range domains {
		warm[i] = memPkt{packQuery(t, uint16(i), d, dnswire.TypeA, 0), peerAt(i)}
	}
	conn.feed <- warm
	if sizes := waitWrites(t, conn, len(warm)); len(sizes) != 1 {
		t.Fatalf("three misses in one batch written as %v, want one WriteBatch", sizes)
	}

	const runs, n = 100, 32
	batches := make([][]memPkt, runs+1) // AllocsPerRun adds a warm-up run
	for i := range batches {
		batches[i] = mixedRegistryBatch(t, i, n)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		conn.feed <- batches[next]
		next++
		if got := <-conn.wrote; got != n {
			t.Fatalf("WriteBatch of %d, want the whole batch of %d", got, n)
		}
	})
	// The measured bound: 9 allocations a miss, what one costs through
	// dns53.Answer on its own (BenchmarkResolveMiss), and one a batch. Hits
	// allocate nothing, and neither does answering a miss in the loop.
	if want := float64(9*n/2 + 1); allocs > want && !raceEnabled {
		t.Errorf("a batch of %d hits and %d misses allocated %v times, want at most %v", n/2, n/2, allocs, want)
	}
}

// TestPoolOnlyForHandlersThatMayBlock: a hit and a miss in one batch leave
// together only behind a handler that promises to answer from memory;
// behind every other handler the miss runs on a goroutine of its own and
// is written by it.
func TestPoolOnlyForHandlersThatMayBlock(t *testing.T) {
	local := registryResolver(64)
	node := &cluster.Node{
		Members: cluster.NewMembership("udp://127.0.0.1:1", nil, monitor.Config{}),
		Local:   local,
	}
	blocking := registryResolver(64)
	blocking.Exchange = hiddenExchanger{blocking.Exchange}
	for _, tc := range []struct {
		name     string
		h        dns53.Handler
		declines bool
	}{
		{"Forwarder", fixedClockForwarder(), true},
		{"cluster.Node over an in-memory resolver", node, true},
		{"HandlerFunc", testutil.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			return q.Reply(), nil
		}), true},
		{"Recursive over an exchanger that may block", blocking, true},
		{"Recursive over the registry", registryResolver(64), false},
		{"authdns.Zone", exampleZone(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := newMemConn(nil)
			srv := &dns53.Server{Handler: tc.h}
			go srv.ServeUDP(conn)
			defer srv.Shutdown()
			conn.feed <- []memPkt{
				{packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0), peerAt(1)},
				{packQuery(t, 2, "nx.google.com.", dnswire.TypeA, 0), peerAt(2)},
			}
			sizes := waitWrites(t, conn, 2)
			if together := len(sizes) == 1; together == tc.declines {
				t.Errorf("WriteBatch sizes %v; miss declined: %v", sizes, tc.declines)
			}
		})
	}
}

// TestFullQueueDropsNotBlocks: once maxUDPMisses slow misses are in
// flight, the receive loop drops the next one, counts it, and goes on
// answering hits; every miss in flight is still answered once released.
func TestFullQueueDropsNotBlocks(t *testing.T) {
	dropped := obs.Default().Counter("dns53_udp_dropped_total", "")
	var mu sync.Mutex
	got := answers{m: map[string][]byte{}}
	conn := newMemConn(func(p udpbatch.Packet) { mu.Lock(); got.add(p); mu.Unlock() })
	const bound = dns53.MaxUDPMisses
	conn.wrote = make(chan int, bound+2) // room for every write, waited on or not
	h := &gatedHandler{Forwarder: fixedClockForwarder(),
		entered: make(chan struct{}, bound+1), release: make(chan struct{})}
	srv := &dns53.Server{Handler: h}
	go srv.ServeUDP(conn)
	t.Cleanup(srv.Shutdown)
	release := sync.OnceFunc(func() { close(h.release) })
	t.Cleanup(release) // runs first: misses still blocked must not hang Shutdown

	miss := func(id int) memPkt {
		return memPkt{packQuery(t, uint16(id), "slow.example.com.", dnswire.TypeA, 0), peerAt(1)}
	}
	for first := 1; first <= bound; first += udpbatch.DefaultBatch {
		var chunk []memPkt
		for id := first; id < first+udpbatch.DefaultBatch && id <= bound; id++ {
			chunk = append(chunk, miss(id))
		}
		conn.feed <- chunk
	}
	for n := 0; n < bound; n++ {
		select {
		case <-h.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d misses reached ServeDNS before any was released", n, bound)
		}
	}
	d0 := dropped.Value()
	conn.feed <- []memPkt{miss(bound + 1), {packQuery(t, 100, "www.example.com.", dnswire.TypeA, 0), peerAt(2)}}
	waitWrites(t, conn, 1)
	if d := dropped.Value() - d0; d != 1 {
		t.Errorf("dns53_udp_dropped_total moved by %d, want 1", d)
	}
	mu.Lock()
	_, hit := got.m[fmt.Sprintf("%s/%d", peerAt(2), 100)]
	mu.Unlock()
	if !hit {
		t.Fatal("the hit behind the full bound was not answered")
	}

	release()
	waitWrites(t, conn, bound)
	mu.Lock()
	defer mu.Unlock()
	for id := 1; id <= bound+1; id++ {
		if _, ok := got.m[fmt.Sprintf("%s/%d", peerAt(1), id)]; ok != (id <= bound) {
			t.Errorf("miss %d answered: %v", id, ok)
		}
	}
}

// TestInMemoryLoopsShareOneResolver runs two receive loops over one
// in-memory resolver, both fed the same never-seen names at once, so both
// loops walk the same name at once. Meant for -race; every answer must
// carry the right RCODE, and Shutdown — no miss to wait for — must leave
// no goroutine behind.
func TestInMemoryLoopsShareOneResolver(t *testing.T) {
	// The one case is the unhedged walk; the subtest keeps its name from
	// when a hedged variant ran beside it.
	t.Run("hedge=false", func(t *testing.T) {
		baseline := testutil.GoroutineBaseline()
		rec := registryResolver(4096)
		misses := testutil.CounterValue(t, "resolver_cache_misses_total")
		srv := &dns53.Server{Handler: rec}
		var wrong atomic.Int64
		check := func(p udpbatch.Packet) {
			id := int(p.Buf[0])<<8 | int(p.Buf[1])
			want := byte(dnswire.RCodeSuccess)
			if id%2 == 1 {
				want = byte(dnswire.RCodeNXDomain)
			}
			if p.Buf[3]&0x0f != want {
				wrong.Add(1)
			}
		}
		conns := []*memConn{newMemConn(check), newMemConn(check)}
		var loops sync.WaitGroup
		for _, c := range conns {
			loops.Add(1)
			go func() { defer loops.Done(); _ = srv.ServeUDP(c) }()
		}
		const n, rounds = 16, 50
		for round := 0; round < rounds; round++ {
			batch := mixedRegistryBatch(t, round, n)
			for _, c := range conns {
				c.feed <- batch
			}
			for _, c := range conns {
				waitWrites(t, c, n)
			}
		}
		srv.Shutdown()
		loops.Wait()
		if w := wrong.Load(); w != 0 {
			t.Errorf("%d answers carried the wrong RCODE", w)
		}
		// Every never-seen name is a miss in at least one loop: fewer
		// means the loops did not walk, and nothing was tested.
		if got := testutil.CounterValue(t, "resolver_cache_misses_total") - misses; got < rounds*n/2 {
			t.Errorf("resolver_cache_misses_total moved by %d, want at least %d walks", got, rounds*n/2)
		}
		testutil.WaitNoLeaks(t, baseline)
	})
}
