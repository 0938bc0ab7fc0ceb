// Tests for the run-to-completion stream loop (TCP and, through
// internal/dot, TLS): every complete frame of a read answered into one
// write, and the three occasions on which pending output leaves. External
// package for the same import-cycle reason as template_test.go.
package dns53_test

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/testutil"
)

// streamConn is an in-memory net.Conn that decides what each Read of the
// server end returns and records every Write. Each slice sent on feed is
// returned by one Read (by several when it outgrows the caller's buffer);
// closing feed is the peer's EOF. With record unset nothing here
// allocates.
type streamConn struct {
	feed   chan []byte
	rest   []byte
	wrote  chan int // size of every Write; nil when nobody waits on writes
	record bool     // keep sizes and bytes of what is written
	mu     sync.Mutex
	writes []int
	out    []byte
	closed chan struct{}
	once   sync.Once
}

// scripted returns a conn whose peer has already sent chunks and hung
// up, so a serve loop can be run on it synchronously.
func scripted(chunks ...[]byte) *streamConn {
	c := &streamConn{feed: make(chan []byte, len(chunks)), record: true, closed: make(chan struct{})}
	for _, chunk := range chunks {
		if len(chunk) > 0 {
			c.feed <- chunk
		}
	}
	close(c.feed)
	return c
}

// interactive returns a conn whose peer is the test: it sends on feed and
// waits for each Write on wrote.
func interactive(record bool) *streamConn {
	return &streamConn{
		feed:   make(chan []byte, 16), // lets a benchmark queue ahead of the server
		wrote:  make(chan int, 256),   // tests wait on it; never lets a writer block
		record: record,
		closed: make(chan struct{}),
	}
}

func (c *streamConn) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		select {
		case chunk, ok := <-c.feed:
			if !ok {
				return 0, io.EOF
			}
			c.rest = chunk
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

func (c *streamConn) Write(p []byte) (int, error) {
	if c.record {
		c.mu.Lock()
		c.writes = append(c.writes, len(p))
		c.out = append(c.out, p...)
		c.mu.Unlock()
	}
	if c.wrote != nil {
		c.wrote <- len(p)
	}
	return len(p), nil
}

func (c *streamConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *streamConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *streamConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *streamConn) SetDeadline(time.Time) error      { return nil }
func (c *streamConn) SetReadDeadline(time.Time) error  { return nil }
func (c *streamConn) SetWriteDeadline(time.Time) error { return nil }

// waitWrite returns the size of the server's next Write.
func (c *streamConn) waitWrite(t testing.TB) int {
	t.Helper()
	select {
	case n := <-c.wrote:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no write from the stream loop")
		return 0
	}
}

// recorded returns the writes so far, one slice of the output each.
func (c *streamConn) recorded() (writes [][]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	at := 0
	for _, n := range c.writes {
		writes = append(writes, c.out[at:at+n])
		at += n
	}
	return writes
}

// framed puts the RFC 1035 §4.2.2 length prefix before msg.
func framed(msg []byte) []byte {
	return append([]byte{byte(len(msg) >> 8), byte(len(msg))}, msg...)
}

// unframe cuts b, which must hold whole frames only, into its messages.
func unframe(t testing.TB, b []byte) (msgs [][]byte) {
	t.Helper()
	for len(b) > 0 {
		if len(b) < 2 || len(b) < 2+int(binary.BigEndian.Uint16(b)) {
			t.Fatalf("%d trailing bytes are not a whole frame", len(b))
		}
		n := 2 + int(binary.BigEndian.Uint16(b))
		msgs = append(msgs, b[2:n])
		b = b[n:]
	}
	return msgs
}

// chop cuts stream into consecutive chunks of the sizes next returns.
func chop(stream []byte, next func() int) (chunks [][]byte) {
	for len(stream) > 0 {
		n := min(next(), len(stream))
		chunks = append(chunks, stream[:n])
		stream = stream[n:]
	}
	return chunks
}

// hitStream is n pipelined hits on www.example.com, IDs 0..n-1.
func hitStream(t testing.TB, n int) (stream []byte) {
	for i := 0; i < n; i++ {
		stream = append(stream, framed(packQuery(t, uint16(i), "www.example.com.", dnswire.TypeA, 1232))...)
	}
	return stream
}

// mixedStream is a seeded pipeline of everything the loop tells apart —
// hits, hits in 0x20 spelling, hits with OPT, a hit far over 512 bytes
// (streams do not truncate), misses the appender declines — on a handful
// of shared IDs, with a malformed frame last. answers is how many of its
// frames get one.
func mixedStream(t testing.TB, seed int64) (stream []byte, answers int) {
	rng := rand.New(rand.NewSource(seed))
	answers = 48
	for i := 0; i < answers; i++ {
		id := uint16(rng.Intn(4))
		var q []byte
		switch rng.Intn(6) {
		case 0:
			q = packQuery(t, id, "www.example.com.", dnswire.TypeA, 0)
		case 1:
			q, _ = mixedCaseQuery(t, id)
		case 2:
			q = packQuery(t, id, "www.example.com.", dnswire.TypeA, 1232)
		case 3:
			q = packQuery(t, id, "big.example.com.", dnswire.TypeTXT, 0)
		case 4:
			q = packQuery(t, id, "nope.example.com.", dnswire.TypeA, 0)
		case 5:
			q = packQuery(t, id, "www.example.com.", dnswire.TypeAAAA, 4096)
		}
		stream = append(stream, framed(q)...)
	}
	return append(stream, framed([]byte{0, 4, 1, 0, 0})...), answers
}

// serveReference runs the frame-at-a-time reference over stream.
func serveReference(stream []byte) []byte {
	ref := scripted(stream)
	(&dns53.Server{Handler: fixedClockForwarder()}).ServeStreamReference(ref)
	return ref.out
}

// TestStreamMatchesFrameAtATime: however the bytes of a pipeline arrive —
// in one read, a byte at a time, cut at random points — the burst loop
// writes exactly the bytes the frame-at-a-time reference writes.
func TestStreamMatchesFrameAtATime(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		stream, answers := mixedStream(t, seed)
		want := serveReference(stream)
		if got := len(unframe(t, want)); got != answers {
			t.Fatalf("seed %d: reference wrote %d answers, want %d", seed, got, answers)
		}
		rng := rand.New(rand.NewSource(seed))
		deliveries := map[string][][]byte{
			"one read":       {stream},
			"byte at a time": chop(stream, func() int { return 1 }),
		}
		for i := 0; i < 20; i++ {
			deliveries[fmt.Sprintf("random cuts %d", i)] = chop(stream, func() int { return 1 + rng.Intn(1<<rng.Intn(12)) })
		}
		for name, chunks := range deliveries {
			conn := scripted(chunks...)
			(&dns53.Server{Handler: fixedClockForwarder()}).ServeStream(conn)
			if !bytes.Equal(conn.out, want) {
				t.Errorf("seed %d, %s: %d bytes in %d writes differ from the reference's %d bytes",
					seed, name, len(conn.out), len(conn.writes), len(want))
			}
		}
	}
}

// streamCounters reads the loop's own instruments.
func streamCounters() (reads, writes, queries uint64) {
	r := obs.Default()
	return r.Counter("dns53_stream_reads_total", "").Value(),
		r.Counter("dns53_stream_writes_total", "").Value(),
		r.Counter("dns53_stream_queries_total", "").Value()
}

// TestStreamOneWritePerBurst: 32 hits that arrive together leave in
// exactly one Write; a client with one query in flight gets one Write per
// query; the stream counters say the same.
func TestStreamOneWritePerBurst(t *testing.T) {
	r0, w0, q0 := streamCounters()
	conn := scripted(hitStream(t, 32))
	(&dns53.Server{Handler: warmForwarder()}).ServeStream(conn)
	if len(conn.writes) != 1 || len(unframe(t, conn.out)) != 32 {
		t.Errorf("32 pipelined hits: writes %v holding %d answers, want one write of 32", conn.writes, len(unframe(t, conn.out)))
	}
	for i, msg := range unframe(t, conn.out) {
		if id := binary.BigEndian.Uint16(msg); id != uint16(i) {
			t.Fatalf("answer %d carries ID %d: out of order", i, id)
		}
	}
	r1, w1, q1 := streamCounters()
	if r1-r0 != 2 || w1-w0 != 1 || q1-q0 != 32 { // the second read is the EOF
		t.Errorf("counters after the burst: reads +%d writes +%d queries +%d, want +2 +1 +32", r1-r0, w1-w0, q1-q0)
	}

	live := interactive(true)
	srv := &dns53.Server{Handler: warmForwarder()}
	go srv.ServeStream(live)
	defer srv.Shutdown()
	for i := 0; i < 5; i++ {
		live.feed <- framed(packQuery(t, uint16(i), "www.example.com.", dnswire.TypeA, 0))
		live.waitWrite(t)
	}
	if got := live.recorded(); len(got) != 5 {
		t.Errorf("window 1: %d writes for 5 queries", len(got))
	}
	_, w2, q2 := streamCounters()
	if w2-w1 != 5 || q2-q1 != 5 {
		t.Errorf("counters at window 1: writes +%d queries +%d, want +5 +5", w2-w1, q2-q1)
	}
}

// TestStreamFlushesBeforeBlocking: a client that has sent one and a half
// frames gets the first answer before it sends the rest.
func TestStreamFlushesBeforeBlocking(t *testing.T) {
	conn := interactive(true)
	srv := &dns53.Server{Handler: warmForwarder()}
	go srv.ServeStream(conn)
	defer srv.Shutdown()
	first := framed(packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0))
	second := framed(packQuery(t, 2, "www.example.com.", dnswire.TypeA, 0))
	half := len(second) / 2
	conn.feed <- append(bytes.Clone(first), second[:half]...)
	conn.waitWrite(t)
	conn.feed <- second[half:]
	conn.waitWrite(t)
	for i, w := range conn.recorded() {
		if msgs := unframe(t, w); len(msgs) != 1 || binary.BigEndian.Uint16(msgs[0]) != uint16(i+1) {
			t.Errorf("write %d holds %d answers", i, len(msgs))
		}
	}
}

// TestStreamHitsNotHeldByBlockedMiss: while ServeDNS blocks on query k,
// answers 1..k-1 have already been written; k and what follows it leave,
// in order, once it returns.
func TestStreamHitsNotHeldByBlockedMiss(t *testing.T) {
	conn := interactive(true)
	h := &gatedHandler{Forwarder: fixedClockForwarder(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := &dns53.Server{Handler: h}
	go srv.ServeStream(conn)
	defer srv.Shutdown()
	var burst []byte
	for id, name := range []string{"www.example.com.", "www.example.com.", "slow.example.com.", "www.example.com."} {
		burst = append(burst, framed(packQuery(t, uint16(id), name, dnswire.TypeA, 0))...)
	}
	conn.feed <- burst
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("miss never reached ServeDNS")
	}
	if got := conn.recorded(); len(got) != 1 || len(unframe(t, got[0])) != 2 {
		t.Fatalf("while the miss is blocked: %d writes, want one holding the two hits ahead of it", len(got))
	}
	close(h.release)
	conn.waitWrite(t) // the two hits
	conn.waitWrite(t) // the miss and the hit behind it
	var ids []uint16
	for _, msg := range unframe(t, conn.recorded()[1]) {
		ids = append(ids, binary.BigEndian.Uint16(msg))
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Errorf("after release the second write answers IDs %v, want [2 3]", ids)
	}
}

// TestStreamSplitsAtOneRecord: more pending output than one TLS record is
// written in several writes, each made of whole frames.
func TestStreamSplitsAtOneRecord(t *testing.T) {
	var burst []byte
	for i := 0; i < 20; i++ {
		burst = append(burst, framed(packQuery(t, uint16(i), "big.example.com.", dnswire.TypeTXT, 0))...)
	}
	conn := scripted(burst)
	(&dns53.Server{Handler: fixedClockForwarder()}).ServeStream(conn)
	writes, answers := conn.recorded(), 0
	for i, w := range writes {
		msgs := unframe(t, w)
		answers += len(msgs)
		if over := len(w) - 16<<10; over >= 2+len(msgs[len(msgs)-1]) {
			t.Errorf("write %d is %d bytes: more than the answer that crossed 16 KiB", i, len(w))
		}
	}
	if len(writes) < 2 || answers != 20 || len(conn.out) <= 16<<10 {
		t.Errorf("%d answers (%d bytes) in %d writes, want 20 answers over 16 KiB in at least 2", answers, len(conn.out), len(writes))
	}
}

// maxFrame is a hit whose query is padded with additional records to the
// largest frame the length prefix can announce.
func maxFrame(t testing.TB, id uint16) []byte {
	q := dnswire.NewQuery(id, "www.example.com.", dnswire.TypeA)
	pad := func(n int) {
		q.Additional = append(q.Additional, dnswire.Record{Name: ".", Type: dnswire.TypeTXT,
			Class: dnswire.ClassIN, Data: &dnswire.TXT{Strings: []string{string(make([]byte, n))}}})
	}
	size := func() int {
		wire, err := q.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(wire)
	}
	const rr = 1 + 10 + 1 // root name, fixed fields, string length
	for dnswire.MaxMessageSize-size() >= 2*(rr+255) {
		pad(255)
	}
	left := dnswire.MaxMessageSize - size() - 2*rr
	pad(left / 2)
	pad(left - left/2)
	if size() != dnswire.MaxMessageSize {
		t.Fatalf("padded query is %d bytes, want %d", size(), dnswire.MaxMessageSize)
	}
	wire, _ := q.AppendPack(nil)
	return framed(wire)
}

// TestStreamFrameSizeEdges: a frame far larger than the read buffer is
// assembled and answered between its neighbours; a zero-length frame ends
// the connection after the answers ahead of it.
func TestStreamFrameSizeEdges(t *testing.T) {
	hit := framed(packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0))
	huge := bytes.Join([][]byte{hit, maxFrame(t, 2), hit}, nil)
	want := serveReference(huge)
	if len(unframe(t, want)) != 3 {
		t.Fatalf("reference answered %d of 3 frames around the 65535-byte one", len(unframe(t, want)))
	}
	for _, size := range []int{1000, 4096, len(huge)} {
		conn := scripted(chop(huge, func() int { return size })...)
		(&dns53.Server{Handler: fixedClockForwarder()}).ServeStream(conn)
		if !bytes.Equal(conn.out, want) {
			t.Errorf("65535-byte frame in %d-byte reads: %d bytes out, reference %d", size, len(conn.out), len(want))
		}
	}

	empty := bytes.Join([][]byte{hit, {0, 0}, hit}, nil)
	conn := scripted(empty)
	(&dns53.Server{Handler: fixedClockForwarder()}).ServeStream(conn)
	if want := serveReference(empty); !bytes.Equal(conn.out, want) || len(unframe(t, want)) != 1 {
		t.Errorf("zero-length frame: %d bytes out, reference %d bytes, want the one answer ahead of it", len(conn.out), len(want))
	}
}

// TestStreamHitsZeroAlloc pins the loop's steady state: a burst of 32
// hits read, parsed, answered from the real cache, counted and written
// allocates nothing anywhere in the process.
func TestStreamHitsZeroAlloc(t *testing.T) {
	conn := interactive(false)
	srv := &dns53.Server{Handler: warmForwarder()}
	go srv.ServeStream(conn)
	t.Cleanup(srv.Shutdown)
	burst := hitStream(t, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		conn.feed <- burst
		<-conn.wrote
	}); allocs != 0 {
		t.Errorf("a burst of 32 stream hits allocated %v times, want 0", allocs)
	}
}

// TestStreamCountersOncePerQuery: the request counter, the latency
// histogram and the stream query counter advance once per answered query
// whichever way the stream loop served it.
func TestStreamCountersOncePerQuery(t *testing.T) {
	requests := obs.Default().Counter("dns53_server_requests_total", "")
	conn := interactive(false)
	srv := &dns53.Server{Handler: fixedClockForwarder()}
	go srv.ServeStream(conn)
	t.Cleanup(srv.Shutdown)
	for _, tc := range []struct {
		name string
		wire []byte
	}{
		{"hit", packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0)},
		{"declined then served", packQuery(t, 2, "nope.example.com.", dnswire.TypeA, 0)},
		{"hit over 512 bytes", packQuery(t, 3, "big.example.com.", dnswire.TypeTXT, 0)},
	} {
		r0, l0 := requests.Value(), testutil.HistogramCount(t, "dns53_server_seconds")
		_, _, q0 := streamCounters()
		conn.feed <- framed(tc.wire)
		conn.waitWrite(t)
		_, _, q1 := streamCounters()
		if dr, dl, dq := requests.Value()-r0, testutil.HistogramCount(t, "dns53_server_seconds")-l0, q1-q0; dr != 1 || dl != 1 || dq != 1 {
			t.Errorf("%s: requests +%d, latency observations +%d, stream queries +%d, want +1 each", tc.name, dr, dl, dq)
		}
	}
}

// TestStreamSlowReaderDropped: a peer that pipelines queries and never
// reads the answers costs its connection after the write deadline, not a
// goroutine for ever, and does not hang Shutdown.
func TestStreamSlowReaderDropped(t *testing.T) {
	client, server := net.Pipe() // unbuffered: the server's Write blocks at once
	defer client.Close()
	srv := &dns53.Server{Handler: warmForwarder(), ReadTimeout: 100 * time.Millisecond}
	served, shut := make(chan struct{}), make(chan struct{})
	go func() { srv.ServeStream(server); close(served) }()
	burst := hitStream(t, 32)
	go func() { _, _ = client.Write(burst) }()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Error("a peer that never reads still pins the serving goroutine long after the write deadline")
	}
	go func() { srv.Shutdown(); close(shut) }()
	select {
	case <-shut:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hangs behind the blocked write")
	}
}

// TestServeUDPShutdownRace starts a receive loop and Shutdown at the same
// moment: whichever wins, Shutdown must wait for the loop and both must
// return (run under -race: the loop's WaitGroup registration used to be
// able to follow Shutdown's Wait).
func TestServeUDPShutdownRace(t *testing.T) {
	h := warmForwarder()
	for i := 0; i < 1000; i++ {
		srv := &dns53.Server{Handler: h}
		var both sync.WaitGroup
		both.Add(2)
		go func() { defer both.Done(); _ = srv.ServeUDP(newMemConn(nil)) }()
		go func() { defer both.Done(); srv.Shutdown() }()
		both.Wait()
		srv.Shutdown() // stops the loop when it registered after the first one
	}
}

// FuzzServeStream feeds arbitrary bytes at arbitrary read boundaries
// through the burst loop and through the frame-at-a-time reference: no
// panic, and the same bytes out.
func FuzzServeStream(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		stream, _ := mixedStream(f, seed)
		f.Add(stream, seed)
	}
	hit := framed(packQuery(f, 1, "www.example.com.", dnswire.TypeA, 0))
	f.Add(bytes.Join([][]byte{hit, {0, 0}, hit}, nil), int64(4))
	f.Add(bytes.Join([][]byte{hit, {0xff, 0xff}, hit, hit[:5]}, nil), int64(5))
	h := fixedClockForwarder()
	f.Fuzz(func(t *testing.T, data []byte, splitSeed int64) {
		ref := scripted(data)
		(&dns53.Server{Handler: h}).ServeStreamReference(ref)
		rng := rand.New(rand.NewSource(splitSeed))
		conn := scripted(chop(data, func() int { return 1 + rng.Intn(1<<rng.Intn(12)) })...)
		(&dns53.Server{Handler: h}).ServeStream(conn)
		if !bytes.Equal(conn.out, ref.out) {
			t.Errorf("burst loop wrote %d bytes in %d writes, reference %d bytes", len(conn.out), len(conn.writes), len(ref.out))
		}
	})
}

// benchStreamTLS times hits over one loopback TCP+TLS connection served
// the way dot.Server serves it, window queries written at once and their
// answers read back before the next round. One op is one query, client
// work included, so the two windows compare (scripts/benchgate.sh does).
func benchStreamTLS(b *testing.B, window int) {
	ca, err := certs.NewCA(0)
	if err != nil {
		b.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig([]string{"dot.test"}, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &dns53.Server{Handler: warmForwarder()}
	go srv.ServeTCP(tls.NewListener(ln, srvTLS))
	defer srv.Shutdown()
	conn, err := tls.Dial("tcp", ln.Addr().String(), ca.ClientConfig("dot.test"))
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	burst := hitStream(b, window)
	query := len(burst) / window
	// Every answer has the size of the first.
	answers := make([]byte, 64<<10)
	if _, err := conn.Write(burst[:query]); err != nil {
		b.Fatal(err)
	}
	if _, err := io.ReadFull(conn, answers[:2]); err != nil {
		b.Fatal(err)
	}
	answer := 2 + int(binary.BigEndian.Uint16(answers))
	if _, err := io.ReadFull(conn, answers[2:answer]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += window {
		n := min(window, b.N-done)
		if _, err := conn.Write(burst[:n*query]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, answers[:n*answer]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeStream is DoT with one query in flight: one read, one
// write and one TLS record each way per query.
func BenchmarkServeStream(b *testing.B) { benchStreamTLS(b, 1) }

// BenchmarkServeStreamPipelined is DoT with 32 queries a round: the burst
// loop answers them in one write and one TLS record.
func BenchmarkServeStreamPipelined(b *testing.B) { benchStreamTLS(b, 32) }
