// Tests for the seam the run-to-completion UDP path adds: hits answered
// in the receive loop, one WriteBatch per ReadBatch, declined queries
// handed to goroutines of their own already parsed. External package for the same
// import-cycle reason as template_test.go.
package dns53_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/resolver"
	"encdns/internal/testutil"
	"encdns/internal/udpbatch"
)

// memPkt is one datagram a memConn delivers.
type memPkt struct {
	wire []byte
	from *net.UDPAddr
}

// memConn is an in-memory udpbatch.Conn (ServeUDP takes it as is, see
// udpbatch.NewConn): each slice sent on feed comes back from one
// ReadBatch, and every WriteBatch reports its size on wrote after handing
// each packet to sink. Like the recvmmsg path it reuses one peer address
// per slot, so a consumer that keeps an Addr past the next ReadBatch
// without cloning it answers the wrong peer. Nothing here allocates.
type memConn struct {
	net.PacketConn // never called: ServeUDP only reaches the methods below
	feed           chan []memPkt
	wrote          chan int
	sink           func(udpbatch.Packet) // may be nil; called under mu
	mu             sync.Mutex
	addrs          [udpbatch.MaxBatch]net.UDPAddr
	closed         chan struct{}
	once           sync.Once
}

func newMemConn(sink func(udpbatch.Packet)) *memConn {
	return &memConn{
		feed:   make(chan []memPkt, 16), // lets a benchmark queue ahead of the server
		wrote:  make(chan int, 256),     // tests wait on it; never lets a writer block
		sink:   sink,
		closed: make(chan struct{}),
	}
}

func (c *memConn) ReadBatch(pkts []udpbatch.Packet) (int, error) {
	select {
	case batch := <-c.feed:
		n := min(len(batch), len(pkts))
		for i := 0; i < n; i++ {
			pkts[i].Buf = pkts[i].Buf[:copy(pkts[i].Buf, batch[i].wire)]
			c.addrs[i] = *batch[i].from
			pkts[i].Addr = &c.addrs[i]
		}
		return n, nil
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

func (c *memConn) WriteBatch(pkts []udpbatch.Packet) (int, error) {
	c.mu.Lock()
	if c.sink != nil {
		for _, p := range pkts {
			c.sink(p)
		}
	}
	c.mu.Unlock()
	c.wrote <- len(pkts)
	return len(pkts), nil
}

func (c *memConn) LocalAddr() net.Addr { return &net.UDPAddr{} }
func (c *memConn) Close() error        { c.once.Do(func() { close(c.closed) }); return nil }

// answers collects responses keyed by (peer, ID).
type answers struct{ m map[string][]byte }

func (a *answers) add(p udpbatch.Packet) {
	key := fmt.Sprintf("%s/%d", p.Addr, binary.BigEndian.Uint16(p.Buf))
	a.m[key] = bytes.Clone(p.Buf)
}

// fixedClockForwarder is warmForwarder on a frozen clock (so two runs age
// TTLs identically) plus a TXT RRset far over 512 bytes.
func fixedClockForwarder() *resolver.Forwarder {
	t0 := time.Unix(1700000000, 0)
	c := resolver.NewCache(256, func() time.Time { return t0 })
	c.PutRRset("www.example.com.", dnswire.TypeA, []dnswire.Record{{
		Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 300, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}})
	c.PutRRset("big.example.com.", dnswire.TypeTXT, bigTXT("big.example.com."))
	return &resolver.Forwarder{Cache: c}
}

// bigTXT is a 40-record TXT RRset for name, far over 512 bytes packed.
func bigTXT(name string) (rrs []dnswire.Record) {
	for i := 0; i < 40; i++ {
		rrs = append(rrs, dnswire.Record{
			Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
			TTL: 300, Data: &dnswire.TXT{Strings: []string{string(make([]byte, 40))}}})
	}
	return rrs
}

func packQuery(t testing.TB, id uint16, name string, typ dnswire.Type, edns uint16) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, name, typ)
	if edns > 0 {
		q.SetEDNS(edns, false)
	}
	wire, err := q.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// waitWrites drains c.wrote until total packets have been written.
func waitWrites(t *testing.T, c *memConn, total int) (sizes []int) {
	t.Helper()
	for got := 0; got < total; {
		select {
		case n := <-c.wrote:
			got += n
			sizes = append(sizes, n)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d responses written", got, total)
		}
	}
	return sizes
}

// TestInlineMatchesPacketAtATime serves one mixed batch twice — through
// ServeUDP (hits inline and batched, the rest on goroutines) and through
// the packet-at-a-time reference — and wants byte-identical answers per
// (peer, ID), with every inline hit in the single WriteBatch of its batch.
func TestInlineMatchesPacketAtATime(t *testing.T) {
	peerA := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 10), Port: 1111}
	peerB := &net.UDPAddr{IP: net.ParseIP("2001:db8::b"), Port: 2222}
	mixed, _ := mixedCaseQuery(t, 2)
	batch := []memPkt{
		{packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0), peerA}, // hit
		{mixed, peerB}, // hit, 0x20 spelling echoed
		{packQuery(t, 3, "nope.example.com.", dnswire.TypeA, 0), peerA},     // miss: SERVFAIL, no upstream
		{[]byte{0, 4, 1, 0, 0}, peerB},                                      // malformed: dropped
		{packQuery(t, 5, "big.example.com.", dnswire.TypeTXT, 0), peerA},    // hit over 512: TC
		{packQuery(t, 6, "big.example.com.", dnswire.TypeTXT, 4096), peerB}, // hit under its EDNS limit
		{packQuery(t, 7, "www.example.com.", dnswire.TypeA, 1232), peerA},   // hit with OPT
		{packQuery(t, 1, "www.example.com.", dnswire.TypeAAAA, 0), peerB},   // miss, ID shared with peer A
	}
	const wantAnswers, wantHits = 7, 5

	inline := answers{m: map[string][]byte{}}
	conn := newMemConn(inline.add)
	srv := &dns53.Server{Handler: fixedClockForwarder()}
	go srv.ServeUDP(conn)
	conn.feed <- batch
	sizes := waitWrites(t, conn, wantAnswers)
	srv.Shutdown()
	if !slices.Contains(sizes, wantHits) {
		t.Errorf("WriteBatch sizes %v: want the %d hits in one write", sizes, wantHits)
	}

	ref := answers{m: map[string][]byte{}}
	refConn := newMemConn(ref.add)
	refSrv := &dns53.Server{Handler: fixedClockForwarder()}
	for _, p := range batch {
		refSrv.ServeUDPPacket(refConn, p.wire, p.from)
	}

	if len(ref.m) != wantAnswers || len(inline.m) != wantAnswers {
		t.Fatalf("answers: inline %d, reference %d, want %d", len(inline.m), len(ref.m), wantAnswers)
	}
	for key, want := range ref.m {
		if got := inline.m[key]; !bytes.Equal(got, want) {
			t.Errorf("%s:\n inline %x\n  reference %x", key, got, want)
		}
	}
	tc := inline.m[fmt.Sprintf("%s/%d", peerA, 5)]
	if m, err := dnswire.Unpack(tc); err != nil || !m.Header.TC || len(m.Answers) != 0 || len(tc) > dnswire.MaxUDPSize {
		t.Errorf("over-limit hit not truncated: %d bytes, err %v", len(tc), err)
	}
	if full := inline.m[fmt.Sprintf("%s/%d", peerB, 6)]; len(full) <= dnswire.MaxUDPSize {
		t.Errorf("EDNS 4096 hit was truncated to %d bytes", len(full))
	}
}

// gatedHandler serves hits like its Forwarder and blocks every ServeDNS
// until release is closed.
type gatedHandler struct {
	*resolver.Forwarder
	entered chan struct{}
	release chan struct{}
}

func (h *gatedHandler) ServeDNS(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	h.entered <- struct{}{}
	<-h.release
	return q.Reply(), nil
}

// TestHitsNotBlockedBehindMiss: a miss whose ServeDNS blocks must not hold
// up hits on the same socket, and its answer must still reach its own
// peer after later batches have reused the address slot it arrived in.
func TestHitsNotBlockedBehindMiss(t *testing.T) {
	peerA := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 10), Port: 1111}
	peerB := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 20), Port: 2222}
	var mu sync.Mutex
	got := answers{m: map[string][]byte{}}
	conn := newMemConn(func(p udpbatch.Packet) { mu.Lock(); got.add(p); mu.Unlock() })
	h := &gatedHandler{Forwarder: fixedClockForwarder(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := &dns53.Server{Handler: h}
	go srv.ServeUDP(conn)
	t.Cleanup(srv.Shutdown)
	release := sync.OnceFunc(func() { close(h.release) })
	t.Cleanup(release) // runs first: a blocked miss must not hang Shutdown

	conn.feed <- []memPkt{
		{packQuery(t, 1, "slow.example.com.", dnswire.TypeA, 0), peerA},
		{packQuery(t, 2, "www.example.com.", dnswire.TypeA, 0), peerB},
	}
	waitWrites(t, conn, 1)
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("miss never reached ServeDNS")
	}
	for id := uint16(3); id < 6; id++ {
		conn.feed <- []memPkt{{packQuery(t, id, "www.example.com.", dnswire.TypeA, 0), peerB}}
		waitWrites(t, conn, 1)
	}
	mu.Lock()
	if _, early := got.m[fmt.Sprintf("%s/%d", peerA, 1)]; early || len(got.m) != 4 {
		t.Errorf("while the miss is blocked: %d answers (want the 4 hits), miss answered %v", len(got.m), early)
	}
	mu.Unlock()

	release()
	waitWrites(t, conn, 1)
	mu.Lock()
	defer mu.Unlock()
	if _, ok := got.m[fmt.Sprintf("%s/%d", peerA, 1)]; !ok {
		t.Errorf("released miss not answered to its own peer; %d answers", len(got.m))
	}
}

// TestCountersOncePerQuery: dns53_server_requests_total and
// dns53_server_seconds advance exactly once per answered query whichever
// way it was served.
func TestCountersOncePerQuery(t *testing.T) {
	requests := obs.Default().Counter("dns53_server_requests_total", "")
	peer := &net.UDPAddr{IP: net.IPv4(192, 0, 2, 10), Port: 1111}
	conn := newMemConn(nil)
	srv := &dns53.Server{Handler: fixedClockForwarder()}
	go srv.ServeUDP(conn)
	t.Cleanup(srv.Shutdown)

	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"hit", packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0)},
		{"declined then served", packQuery(t, 2, "nope.example.com.", dnswire.TypeA, 0)},
		{"truncated hit", packQuery(t, 3, "big.example.com.", dnswire.TypeTXT, 0)},
	} {
		r0, l0 := requests.Value(), testutil.HistogramCount(t, "dns53_server_seconds")
		conn.feed <- []memPkt{{tc.wire, peer}}
		waitWrites(t, conn, 1)
		if dr, dl := requests.Value()-r0, testutil.HistogramCount(t, "dns53_server_seconds")-l0; dr != 1 || dl != 1 {
			t.Errorf("%s: requests +%d, latency observations +%d, want +1 and +1", tc.name, dr, dl)
		}
	}
}

// panickingInMemory answers hits from its Forwarder's templates and
// promises to answer misses from memory, which it does by panicking: every
// loop runs such a miss in line, where it becomes a SERVFAIL and one
// counted failure.
type panickingInMemory struct{ *resolver.Forwarder }

func (panickingInMemory) InMemory() bool { return true }

func (panickingInMemory) ServeDNS(context.Context, *dnswire.Message) (*dnswire.Message, error) {
	panic("in-line miss")
}

// serverSeries reads dns53_server_requests_total, dns53_server_failures_total
// and the count and sum of dns53_server_seconds.
func serverSeries(t *testing.T) (requests, failures, count uint64, sum float64) {
	t.Helper()
	snap := obs.Default().Snapshot()
	h, ok := snap["dns53_server_seconds"].(obs.HistogramSnapshot)
	if !ok {
		t.Fatal("no dns53_server_seconds in the default registry")
	}
	return snap["dns53_server_requests_total"].(uint64), snap["dns53_server_failures_total"].(uint64), h.Count, h.Sum
}

// TestLoopsCountPerBatch: a batch the UDP loop, or a burst the stream loop,
// answers in line — 31 hits and a miss whose handler panics — moves the
// request counter and the latency count by 32 and the failure counter by
// one, all before the write the client sees; the latency it adds up to is
// more than nothing and no more than the batch took.
func TestLoopsCountPerBatch(t *testing.T) {
	srv := &dns53.Server{Handler: panickingInMemory{fixedClockForwarder()}}
	t.Cleanup(srv.Shutdown)
	var batch []memPkt
	var stream []byte
	for i := 0; i < 32; i++ {
		name := "www.example.com."
		if i == 20 {
			name = "nope.example.com."
		}
		q := packQuery(t, uint16(i), name, dnswire.TypeA, 0)
		batch = append(batch, memPkt{q, &net.UDPAddr{IP: net.IPv4(192, 0, 2, byte(i)), Port: 4000 + i}})
		stream = append(stream, framed(q)...)
	}
	check := func(name string, serve func() (writes int)) {
		r0, f0, c0, s0 := serverSeries(t)
		start := time.Now()
		writes := serve()
		wall := time.Since(start).Seconds()
		r1, f1, c1, s1 := serverSeries(t)
		if writes != 1 || r1-r0 != 32 || c1-c0 != 32 || f1-f0 != 1 {
			t.Errorf("%s: %d writes; requests +%d, latency observations +%d, failures +%d; want 1 write, +32 +32 +1",
				name, writes, r1-r0, c1-c0, f1-f0)
		}
		if d := s1 - s0; d <= 0 || d > wall {
			t.Errorf("%s: latency sum moved by %v s, want more than 0 and at most the batch's %v s", name, d, wall)
		}
	}

	conn := newMemConn(nil)
	go srv.ServeUDP(conn)
	check("udp", func() int {
		conn.feed <- batch
		return len(waitWrites(t, conn, len(batch)))
	})
	sc := interactive(true)
	go srv.ServeStream(sc)
	check("stream", func() int {
		sc.feed <- stream
		sc.waitWrite(t)
		writes := sc.recorded()
		if n := len(unframe(t, writes[0])); n != 32 {
			t.Errorf("stream: the first write holds %d answers, want 32", n)
		}
		return len(writes)
	})
}

// hitBatch is n hits on www.example.com from n peers.
func hitBatch(t testing.TB, n int) []memPkt {
	batch := make([]memPkt, n)
	for i := range batch {
		batch[i] = memPkt{
			wire: packQuery(t, uint16(i), "www.example.com.", dnswire.TypeA, 1232),
			from: &net.UDPAddr{IP: net.IPv4(192, 0, 2, byte(i)), Port: 4000 + i},
		}
	}
	return batch
}

// TestInlineHitsZeroAlloc pins the inline path's steady state: a full
// batch of hits, received, parsed, answered from the real cache and
// written back, allocates nothing anywhere in the process.
func TestInlineHitsZeroAlloc(t *testing.T) {
	conn := newMemConn(nil)
	srv := &dns53.Server{Handler: warmForwarder()}
	go srv.ServeUDP(conn)
	t.Cleanup(srv.Shutdown)
	batch := hitBatch(t, udpbatch.DefaultBatch)
	if allocs := testing.AllocsPerRun(100, func() {
		conn.feed <- batch
		if n := <-conn.wrote; n != len(batch) {
			t.Fatalf("WriteBatch of %d, want the whole batch of %d", n, len(batch))
		}
	}); allocs != 0 {
		t.Errorf("a batch of %d inline hits allocated %v times, want 0", len(batch), allocs)
	}
}

// BenchmarkServeUDPBatch times the path that serves cache hits: 32-packet
// batches through ServeUDP over an in-memory udpbatch.Conn, answered from
// the real cache's templates. Batches are queued ahead of the server so
// the figure holds the server's work and not the wake-up of one goroutine
// by the other. One op is one packet, so the figure compares with
// BenchmarkServeUDP's (scripts/benchgate.sh does).
func BenchmarkServeUDPBatch(b *testing.B) {
	conn := newMemConn(nil)
	srv := &dns53.Server{Handler: warmForwarder()}
	go srv.ServeUDP(conn)
	defer srv.Shutdown()
	batch := hitBatch(b, udpbatch.DefaultBatch)
	conn.feed <- batch // the loop's start-up and the send buffers' first use
	<-conn.wrote
	b.ReportAllocs()
	b.ResetTimer()
	for sent, done := 0, 0; done < b.N; {
		feed, next := conn.feed, batch[:min(len(batch), b.N-sent)]
		if len(next) == 0 {
			feed = nil // everything is queued; only wait for the writes
		}
		select {
		case feed <- next:
			sent += len(next)
		case n := <-conn.wrote:
			done += n
		}
	}
}
