// Tests for handlers that answer from memory (dns53.InMemory): their
// misses are run to completion in the receive loop like hits, and only a
// handler that may block gets the worker pool — which, when full, drops
// instead of stopping the loop. External package for the same
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
// and leaves in the batch's one WriteBatch — no worker pool is started,
// nothing is handed off — and costs only the misses' own allocations.
func TestInMemoryMissesShareTheBatchWrite(t *testing.T) {
	workers := obs.Default().Gauge("dns53_udp_workers", "")
	w0 := workers.Value()
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
	if w := workers.Value(); w != w0 {
		t.Errorf("dns53_udp_workers moved by %d, want no pool for an in-memory handler", w-w0)
	}
	// The measured bound: 9 allocations a miss, what one costs through
	// dns53.Answer on its own (BenchmarkResolveMiss), and one a batch. Hits
	// allocate nothing, and neither does answering a miss in the loop.
	if want := float64(9*n/2 + 1); allocs > want && !raceEnabled {
		t.Errorf("a batch of %d hits and %d misses allocated %v times, want at most %v", n/2, n/2, allocs, want)
	}
}

// TestPoolOnlyForHandlersThatMayBlock: a hit and a miss in one batch leave
// together only behind a handler that promises to answer from memory;
// every other handler starts the pool and its miss is written by a worker.
func TestPoolOnlyForHandlersThatMayBlock(t *testing.T) {
	workers := obs.Default().Gauge("dns53_udp_workers", "")
	local := registryResolver(64)
	node := &cluster.Node{
		Members: cluster.NewMembership("udp://127.0.0.1:1", nil, monitor.Config{}),
		Local:   local,
		Cache:   local.Cache,
	}
	blocking := registryResolver(64)
	blocking.Exchange = hiddenExchanger{blocking.Exchange}
	for _, tc := range []struct {
		name string
		h    dns53.Handler
		pool bool
	}{
		{"Forwarder", fixedClockForwarder(), true},
		{"cluster.Node over an in-memory resolver", node, true},
		{"HandlerFunc", dns53.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			return q.Reply(), nil
		}), true},
		{"Recursive over an exchanger that may block", blocking, true},
		{"Recursive over the registry", registryResolver(64), false},
		{"authdns.Zone", exampleZone(), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w0 := workers.Value()
			conn := newMemConn(nil)
			srv := &dns53.Server{Handler: tc.h, UDPWorkers: 2}
			go srv.ServeUDP(conn)
			defer srv.Shutdown()
			conn.feed <- []memPkt{
				{packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0), peerAt(1)},
				{packQuery(t, 2, "nx.google.com.", dnswire.TypeA, 0), peerAt(2)},
			}
			sizes := waitWrites(t, conn, 2)
			if grew := workers.Value() - w0; (grew == 2) != tc.pool || grew != 0 && grew != 2 {
				t.Errorf("dns53_udp_workers grew by %d; pool wanted: %v", grew, tc.pool)
			}
			if together := len(sizes) == 1; together == tc.pool {
				t.Errorf("WriteBatch sizes %v; pool wanted: %v", sizes, tc.pool)
			}
		})
	}
}

// TestFullQueueDropsNotBlocks: when slow misses have filled the worker
// queue, the receive loop drops the next one, counts it, and goes on
// answering hits; everything queued is still answered once the workers
// get to it.
func TestFullQueueDropsNotBlocks(t *testing.T) {
	dropped := obs.Default().Counter("dns53_udp_dropped_total", "")
	var mu sync.Mutex
	got := answers{m: map[string][]byte{}}
	conn := newMemConn(func(p udpbatch.Packet) { mu.Lock(); got.add(p); mu.Unlock() })
	const workers, slots = 1, 4 // the queue holds 4 × UDPWorkers
	h := &gatedHandler{Forwarder: fixedClockForwarder(),
		entered: make(chan struct{}, 1+slots), release: make(chan struct{})}
	srv := &dns53.Server{Handler: h, UDPWorkers: workers}
	go srv.ServeUDP(conn)
	t.Cleanup(srv.Shutdown)
	release := sync.OnceFunc(func() { close(h.release) })
	t.Cleanup(release) // runs first: a loop stuck on the queue must not hang Shutdown

	miss := func(id int) memPkt {
		return memPkt{packQuery(t, uint16(id), "slow.example.com.", dnswire.TypeA, 0), peerAt(1)}
	}
	conn.feed <- []memPkt{miss(1)}
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("miss never reached ServeDNS")
	}
	d0 := dropped.Value()
	var flood []memPkt
	for id := 2; id <= 2+slots; id++ { // slots fill the queue, the last is dropped
		flood = append(flood, miss(id))
	}
	conn.feed <- flood
	conn.feed <- []memPkt{{packQuery(t, 100, "www.example.com.", dnswire.TypeA, 0), peerAt(2)}}
	waitWrites(t, conn, 1)
	if d := dropped.Value() - d0; d != 1 {
		t.Errorf("dns53_udp_dropped_total moved by %d, want 1", d)
	}
	mu.Lock()
	_, hit := got.m[fmt.Sprintf("%s/%d", peerAt(2), 100)]
	mu.Unlock()
	if !hit {
		t.Fatal("the hit behind a full queue was not answered")
	}

	release()
	waitWrites(t, conn, 1+slots)
	mu.Lock()
	defer mu.Unlock()
	for id := 1; id <= 2+slots; id++ {
		if _, ok := got.m[fmt.Sprintf("%s/%d", peerAt(1), id)]; ok != (id <= 1+slots) {
			t.Errorf("miss %d answered: %v", id, ok)
		}
	}
}

// TestInMemoryLoopsShareOneResolver runs two receive loops over one
// in-memory resolver with refresh-ahead on every hit, both fed the same
// never-seen names at once, so one loop's miss waits on the other's walk
// (singleflight) while refreshes run beside them. It runs twice: once
// plain, once with SRTT selection and hedged walks, whose raced attempts
// run on goroutines of their own. Meant for -race; every answer must
// carry the right RCODE, and Shutdown — no pool to drain — must leave no
// goroutine behind.
func TestInMemoryLoopsShareOneResolver(t *testing.T) {
	for _, hedge := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedge=%v", hedge), func(t *testing.T) {
			baseline := testutil.GoroutineBaseline()
			rec := registryResolver(4096)
			if hedge {
				rec.Infra = resolver.NewInfra(nil)
				rec.Hedge = true
			}
			rec.PrefetchFraction = 1
			var refreshed atomic.Int64
			rec.OnPrefetch = func(string, dnswire.Type) { refreshed.Add(1) }
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
			const n = 16
			for round := 0; round < 50; round++ {
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
			rec.Close()
			if w := wrong.Load(); w != 0 {
				t.Errorf("%d answers carried the wrong RCODE", w)
			}
			if refreshed.Load() == 0 {
				t.Error("no refresh-ahead ran beside the loops: nothing was tested")
			}
			testutil.WaitNoLeaks(t, baseline)
		})
	}
}
