package dns53

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/udpbatch"
)

// Server-side instruments of the frontends this package runs (Do53 UDP and
// TCP, DoT through ServeTCP/ServeStream). The loops record what they
// answer in line once per batch (see countServed), the blocking miss half
// once per query (see miss). DoH counts its own requests in doh_server_*.
var (
	serverRequests = obs.Default().Counter("dns53_server_requests_total",
		"Queries dispatched to the server's handler.")
	serverFailures = obs.Default().Counter("dns53_server_failures_total",
		"Handler errors, panics, and nil responses (answered SERVFAIL).")
	serverLatency = obs.Default().Histogram("dns53_server_seconds",
		"Time per answered query: a blocking miss's own, or the mean of the batch an in-line answer left in, read to write.", obs.ServerBounds)
	serverMalformed = obs.Default().Counter("dns53_server_malformed_total",
		"Dropped queries that failed wire parsing or were responses (QR set).")
	// The misses a receive loop declined and handed to goroutines of their
	// own, across servers, and the ones it dropped at maxUDPMisses.
	missesInFlight = obs.Default().Gauge("dns53_udp_misses_in_flight",
		"Declined UDP queries whose miss half is running on a goroutine of its own.")
	udpDropped = obs.Default().Counter("dns53_udp_dropped_total",
		"UDP queries dropped because the server already ran maxUDPMisses misses.")
	// Stream-loop instruments (TCP and DoT): queries per write is the
	// stream twin of udpbatch's packets per syscall.
	streamReads = obs.Default().Counter("dns53_stream_reads_total",
		"Read calls issued by stream serve loops.")
	streamWrites = obs.Default().Counter("dns53_stream_writes_total",
		"Write calls issued by stream serve loops, one per burst of answers.")
	streamQueries = obs.Default().Counter("dns53_stream_queries_total",
		"Well-formed queries received on stream connections.")
)

// maxUDPDatagram sizes receive buffers: a UDP DNS message cannot exceed
// the 64 KiB UDP payload limit.
const maxUDPDatagram = 64 * 1024

// maxUDPMisses bounds the declined UDP queries one server answers at once,
// each on a goroutine of its own; the receive loop drops what comes past
// it rather than wait. Each in-flight forwarder miss holds an upstream
// socket, so the bound stays under the common 1024 open-file soft limit.
const maxUDPMisses = 512

// Server serves DNS over UDP and TCP. Configure Handler, then pass
// listeners to ServeUDP/ServeTCP (each blocks; run them in goroutines) and
// call Shutdown to stop. The zero value is not usable; populate Handler.
//
// The UDP frontend runs everything that cannot block to completion in the
// receive loop and starts a goroutine for the rest. Each listener socket
// gets one loop that pulls up to udpbatch.DefaultBatch datagrams per
// syscall (recvmmsg on Linux via internal/udpbatch) into buffers it owns,
// parses each into a message it owns, and answers it through AppendInline
// straight into a send buffer it owns; every answer of the batch then
// leaves in one WriteBatch (sendmmsg). That covers cache hits (the handler's
// ResponseAppender) and, for a handler that answers from memory
// (InMemory), misses too, so such a query costs no goroutine hop and no
// write of its own. What is declined — a miss behind a handler that may
// block on upstream I/O (forwarders, cluster nodes), a hop-marked cluster
// query — is handed, already parsed, to a goroutine of its own that runs
// ServeDNS and writes its one response itself; at most maxUDPMisses run
// at once per server. In-memory misses, like hits, share the receive
// loop's CPU; a caller that wants more cores serves more sockets, one
// ServeUDP call each.
//
// The stream frontend (ServeTCP, ServeStream, and DoT through them) has
// the same shape per connection: every query that arrived in one read is
// answered, in order, into one write; see serveConn for when that write
// happens.
type Server struct {
	Handler Handler
	// Logger receives malformed-packet and handler-failure notices; nil
	// discards them (quiet by default).
	Logger *slog.Logger
	// ReadTimeout bounds each blocking stream read, which makes it the
	// idle timeout of TCP and DoT connections, and each stream write, so a
	// peer that stops reading is dropped; zero means 10 seconds.
	ReadTimeout time.Duration

	mu       sync.Mutex
	closed   bool
	udpConns []net.PacketConn
	tcpLns   []net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	udpLoops  sync.WaitGroup
	udpMisses atomic.Int32 // misses in flight, at most maxUDPMisses
}

var discard = slog.New(slog.DiscardHandler)

// logger returns the configured logger, or one that discards.
func (s *Server) logger() *slog.Logger { return cmp.Or(s.Logger, discard) }

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout > 0 {
		return s.ReadTimeout
	}
	return 10 * time.Second
}

// track registers a listener or conn for Shutdown. It reports false when
// the server is already closed.
func (s *Server) track(pc net.PacketConn, ln net.Listener, c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	switch {
	case pc != nil:
		s.udpConns = append(s.udpConns, pc)
		// The receive loop is counted under the lock that Shutdown takes
		// to set closed, so its udpLoops.Wait cannot run ahead of this Add.
		s.udpLoops.Add(1)
	case ln != nil:
		s.tcpLns = append(s.tcpLns, ln)
	case c != nil:
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[c] = struct{}{}
	}
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown closes all listeners and connections, waits for the receive
// loops to exit (new packets are refused because the sockets are closed)
// and then for everything in flight, UDP misses included, to finish. It
// is idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, pc := range s.udpConns {
			pc.Close()
		}
		for _, ln := range s.tcpLns {
			ln.Close()
		}
		for c := range s.conns {
			c.Close()
		}
	}
	s.mu.Unlock()
	// Only a receive loop starts a miss, so once the loops are gone no
	// wg.Add can race the Wait.
	s.udpLoops.Wait()
	s.wg.Wait()
}

// ServeUDP answers queries arriving on pc until the connection is
// closed. It blocks; call it once per listener socket (the calls share
// one maxUDPMisses bound). Any net.PacketConn works — kernel UDP sockets
// take the batched fast path, everything else (tests, netsim virtual
// conns) the portable one-datagram adapter.
func (s *Server) ServeUDP(pc net.PacketConn) error {
	if !s.track(pc, nil, nil) {
		pc.Close()
		return errors.New("dns53: server closed")
	}
	defer s.udpLoops.Done()
	bc := udpbatch.NewConn(pc)
	const batch = udpbatch.DefaultBatch
	// Loop-owned state: receive buffers, one send buffer per slot (kept
	// across batches with whatever growth a large answer caused), the
	// packet vectors, and the message every datagram is parsed into.
	in := make([]udpbatch.Packet, batch)
	out := make([]udpbatch.Packet, 0, batch)
	recv := make([]byte, batch*maxUDPDatagram)
	send := make([][]byte, batch)
	for i := range send {
		send[i] = make([]byte, 0, dnswire.MaxUDPSize)
	}
	query := dnswire.AcquireMessage()
	defer func() { dnswire.ReleaseMessage(query) }()
	for {
		for i := range in {
			in[i].Buf = recv[i*maxUDPDatagram : (i+1)*maxUDPDatagram]
		}
		n, err := bc.ReadBatch(in)
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		start := time.Now()
		out = out[:0]
		for _, p := range in[:n] {
			limit, ok := s.parseUDP(query, p.Buf, p.Addr)
			if !ok {
				continue
			}
			k := len(out)
			if wire, ok := s.inline(send[k][:0], query, p.Buf, limit); ok {
				send[k] = wire
				out = append(out, udpbatch.Packet{Buf: wire, Addr: p.Addr})
				continue
			}
			if s.udpMisses.Add(1) > maxUDPMisses {
				s.udpMisses.Add(-1)
				udpDropped.Inc()
				continue
			}
			// The miss outlives this batch: it gets the parsed message
			// (the loop takes a fresh one) and its own copy of the peer.
			missesInFlight.Inc()
			s.wg.Add(1)
			go s.udpMiss(bc, query, udpbatch.CloneAddr(p.Addr), limit)
			query = dnswire.AcquireMessage()
		}
		if len(out) > 0 {
			countServed(len(out), start, time.Now())
			if _, err := bc.WriteBatch(out); err != nil {
				s.logger().Debug("writing UDP responses", "err", err)
			}
		}
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// udpMiss answers one query a receive loop declined: a ServeDNS that may
// block, then a one-packet write of its own.
func (s *Server) udpMiss(conn udpbatch.Conn, query *dnswire.Message, addr net.Addr, limit int) {
	defer s.wg.Done()
	out := bufpool.Get()
	*out = s.miss((*out)[:0], query, limit)
	if _, err := conn.WriteBatch([]udpbatch.Packet{{Buf: *out, Addr: addr}}); err != nil {
		s.logger().Debug("writing UDP response", "err", err)
	}
	bufpool.Put(out)
	dnswire.ReleaseMessage(query)
	missesInFlight.Dec()
	s.udpMisses.Add(-1)
}

// parseUDP unpacks one datagram into query and derives the largest
// response its sender accepts: the client's advertised EDNS buffer,
// defaulting to 512. ok=false means the datagram was malformed or a
// response and has been counted and dropped.
func (s *Server) parseUDP(query *dnswire.Message, raw []byte, from net.Addr) (limit int, ok bool) {
	if err := UnpackQuery(query, raw); err != nil {
		serverMalformed.Inc()
		s.logger().Debug("dropping malformed UDP query", "from", from, "err", err)
		return 0, false
	}
	limit = dnswire.MaxUDPSize
	if opt, ok := query.EDNS(); ok && int(opt.UDPSize) > limit {
		limit = int(opt.UDPSize)
	}
	return limit, true
}

// inline is AppendInline for this server's handler, with no clock read:
// its caller counts its answers per batch (countServed), the miss that
// follows a declined query counts that one. A failure is counted here.
func (s *Server) inline(dst []byte, query *dnswire.Message, raw []byte, limit int) ([]byte, bool) {
	out, _, ok, err := AppendInline(context.Background(), s.Handler, dst, query, raw, limit)
	s.failed(query, err)
	return out, ok
}

// miss is appendMiss for this server's handler, timed and counted per
// query: next to an upstream's RTT its clock reads are noise. It always
// appends a response.
func (s *Server) miss(dst []byte, query *dnswire.Message, limit int) []byte {
	start := time.Now()
	out, _, err := appendMiss(context.Background(), s.Handler, dst, query, limit)
	countServed(1, start, time.Now())
	s.failed(query, err)
	return out
}

// failed logs and counts a handler failure (err != nil), which reached the
// client as SERVFAIL.
func (s *Server) failed(query *dnswire.Message, err error) {
	if err != nil {
		serverFailures.Inc()
		s.logger().Warn("handler failed", "q", query.Question0().Name, "err", err)
	}
}

// countServed counts k queries answered between start and now, each at
// their mean. The loops call it per batch, with the clock read after the
// read and before the write, so a client finds its answer counted.
func countServed(k int, start, now time.Time) {
	if k > 0 {
		serverRequests.Add(uint64(k))
		serverLatency.ObserveN(now.Sub(start).Seconds()/float64(k), uint64(k))
	}
}

// ServeTCP answers queries on connections accepted from ln until it is
// closed. Each connection may carry multiple length-prefixed queries. A
// temporary Accept error (EMFILE: the process is out of descriptors until
// some connection closes) is retried with a backoff capped at one second,
// as net/http.Server.Serve does, so the listener outlives it.
func (s *Server) ServeTCP(ln net.Listener) error {
	if !s.track(nil, ln, nil) {
		ln.Close()
		return errors.New("dns53: server closed")
	}
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			var temp interface{ Temporary() bool }
			if !errors.As(err, &temp) || !temp.Temporary() {
				return err
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			s.logger().Warn("accept failed; retrying", "err", err, "in", backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !s.track(nil, nil, conn) {
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrackConn(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// streamFlushAt is the pending output that forces a write: the plaintext
// of one full TLS record. It also bounds what a connection buffers.
const streamFlushAt = 16 << 10

// serveConn handles one stream connection (TCP or, via internal/dot, TLS)
// run-to-completion, the same shape as the UDP loop: one Read fills the
// connection's read buffer, every complete RFC 1035 §4.2.2 frame in it is
// answered into the connection's output buffer (each answer behind its
// own length prefix, in arrival order), and the burst leaves in one Write
// — one syscall and, on DoT, one TLS record for up to 16 KiB of answers.
// Pending output is written on exactly three occasions: (a) before the
// loop blocks in Read, so a client that sent one query, or half of one,
// never waits on a buffered answer; (b) before a miss that AppendInline
// declined runs ServeDNS, which may block, so it does not hold the hits
// ahead of it (an InMemory handler's misses are answered in line and
// flush nothing); (c) when it reaches streamFlushAt. Both buffers and the
// parsed query belong to the connection and are reused, so a busy stream
// allocates nothing. The clock is read once after each Read and once per
// write (see flushStream), never per answer.
func (s *Server) serveConn(conn net.Conn) {
	inp, outp := bufpool.Get(), bufpool.Get()
	defer bufpool.Put(inp)
	defer bufpool.Put(outp)
	query := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(query)
	in, b := (*inp)[:cap(*inp)], burst{out: (*outp)[:0]}
	r, w := 0, 0 // in[r:w] is read and not yet answered
	for {
		for w-r >= 2 {
			end := r + 2 + int(binary.BigEndian.Uint16(in[r:]))
			if end > w {
				break
			}
			if !s.serveFrame(conn, &b, query, in[r+2:end]) {
				s.flushStream(conn, &b) // the answers ahead of the bad frame
				return
			}
			r = end
		}
		// What is left is at most one partial frame: move it to the front
		// and grow the buffer when its prefix says it cannot fit.
		w, r = copy(in, in[r:w]), 0
		if w >= 2 {
			if need := 2 + int(binary.BigEndian.Uint16(in)); need > len(in) {
				in = append(in[:w], make([]byte, need-w)...)
			}
		}
		now, ok := s.flushStream(conn, &b)
		if !ok {
			return
		}
		_ = conn.SetReadDeadline(now.Add(s.readTimeout()))
		streamReads.Inc()
		n, err := conn.Read(in[w:])
		if n == 0 && err != nil {
			return // EOF, timeout, or peer reset: stream is done either way
		}
		b.start = time.Now()
		w += n
	}
}

// burst is a stream loop's pending output, the k answers in it served in
// line, and the clock when the interval they are counted over began.
type burst struct {
	out   []byte
	k     int
	start time.Time
}

// serveFrame answers one query frame into b.out behind its own two-octet
// length prefix (compression offsets are message-start-relative, so what
// precedes the message does not disturb them). false ends the connection:
// a malformed query, a response, or a failed write.
func (s *Server) serveFrame(conn net.Conn, b *burst, query *dnswire.Message, pkt []byte) bool {
	if err := UnpackQuery(query, pkt); err != nil {
		serverMalformed.Inc()
		s.logger().Debug("dropping malformed TCP query", "err", err)
		return false
	}
	streamQueries.Inc()
	at := len(b.out)
	frame, ok := s.inline(append(b.out, 0, 0), query, pkt, dnswire.MaxMessageSize)
	if ok {
		b.k++
	} else {
		// The answers ahead leave, and are counted, before the miss runs;
		// the miss times itself, and the next interval starts after it.
		if _, ok = s.flushStream(conn, b); !ok {
			return false
		}
		at = 0
		frame = s.miss(append(b.out, 0, 0), query, dnswire.MaxMessageSize)
		b.start = time.Now()
	}
	binary.BigEndian.PutUint16(frame[at:], uint16(len(frame)-at-2))
	b.out = frame
	if len(frame) >= streamFlushAt {
		_, ok = s.flushStream(conn, b)
	}
	return ok
}

// flushStream reads the clock once to count the burst's in-line answers,
// start the next interval and date the write deadline under which pending
// output, if any, leaves in one Write (a peer that stops reading costs the
// connection, not a goroutine). It returns that reading and the outcome.
func (s *Server) flushStream(conn net.Conn, b *burst) (time.Time, bool) {
	now := time.Now()
	countServed(b.k, b.start, now)
	b.k, b.start = 0, now
	if len(b.out) == 0 {
		return now, true
	}
	_ = conn.SetWriteDeadline(now.Add(s.readTimeout()))
	streamWrites.Inc()
	_, err := conn.Write(b.out)
	b.out = b.out[:0]
	return now, err == nil
}

// ServeStream exposes serveConn for transports (DoT) that bring their own
// connection establishment but reuse the RFC 1035 framing and dispatch.
func (s *Server) ServeStream(conn net.Conn) {
	if !s.track(nil, nil, conn) {
		conn.Close()
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	defer s.untrackConn(conn)
	defer conn.Close()
	s.serveConn(conn)
}
