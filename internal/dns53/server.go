package dns53

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/udpbatch"
)

// Server-side instruments of the frontends this package runs (Do53 UDP and
// TCP, DoT through ServeTCP/ServeStream); hit and miss record them. DoH
// counts its own requests in doh_server_*.
var (
	serverRequests = obs.Default().Counter("dns53_server_requests_total",
		"Queries dispatched to the server's handler.")
	serverFailures = obs.Default().Counter("dns53_server_failures_total",
		"Handler errors, panics, and nil responses (answered SERVFAIL).")
	serverLatency = obs.Default().Histogram("dns53_server_seconds",
		"Handler latency per dispatched query.", nil)
	serverMalformed = obs.Default().Counter("dns53_server_malformed_total",
		"Dropped queries that failed wire parsing.")
	// Worker-pool instruments: queue depth counts jobs handed off but not
	// yet picked up, the worker gauge counts live pool goroutines across
	// servers, and the drop counter the queries a receive loop found the
	// queue full for.
	workerQueueDepth = obs.Default().Gauge("dns53_udp_worker_queue_depth",
		"UDP queries queued for the worker pool, not yet being handled.")
	workerCount = obs.Default().Gauge("dns53_udp_workers",
		"Live UDP worker-pool goroutines across servers.")
	udpDropped = obs.Default().Counter("dns53_udp_dropped_total",
		"UDP queries dropped because the worker-pool queue was full.")
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

// Server serves DNS over UDP and TCP. Configure Handler, then pass
// listeners to ServeUDP/ServeTCP (each blocks; run them in goroutines) and
// call Shutdown to stop. The zero value is not usable; populate Handler.
//
// The UDP frontend runs everything that cannot block to completion in the
// receive loop and keeps a worker pool for the rest. Each listener socket
// gets one loop that pulls up to UDPBatch datagrams per syscall (recvmmsg
// on Linux via internal/udpbatch) into buffers it owns, parses each into a
// message it owns, and answers it through AppendInline straight into a
// send buffer it owns; every answer of the batch then leaves in one
// WriteBatch (sendmmsg). That covers cache hits (the handler's
// ResponseAppender) and, for a handler that answers from memory
// (InMemory), misses too, so such a query costs no goroutine hop and no
// write of its own. What is declined — a miss behind a handler that may
// block on upstream I/O (forwarders, cluster nodes), a hop-marked cluster
// query — is handed, already parsed, to a bounded pool of workers that
// run ServeDNS and write their one response themselves; the pool starts
// only for such a handler. In-memory misses, like hits, share the
// receive loop's CPU; a caller that wants more cores serves more sockets,
// one ServeUDP call each.
//
// The stream frontend (ServeTCP, ServeStream, and DoT through them) has
// the same shape per connection: every query that arrived in one read is
// answered, in order, into one write; see serveConn for when that write
// happens.
type Server struct {
	Handler Handler
	// Logger receives malformed-packet and handler-failure notices; nil
	// discards them (the obs.Logger convention: quiet by default).
	Logger *obs.Logger
	// ReadTimeout bounds each blocking stream read, which makes it the
	// idle timeout of TCP and DoT connections, and each stream write, so a
	// peer that stops reading is dropped; zero means 10 seconds.
	ReadTimeout time.Duration
	// UDPWorkers bounds the worker pool shared by every UDP listener on
	// this server, and with it ServeDNS concurrency: handlers that block
	// on upstream I/O (forwarders, recursion) need enough workers to
	// cover rate × handler latency. Zero means 32×GOMAXPROCS with a
	// floor of 64 — generous for blocking handlers, still a hard bound.
	// The pool starts with the first ServeUDP call, and only for a handler
	// that is not InMemory.
	UDPWorkers int
	// UDPBatch caps datagrams moved per batched read or write; zero means
	// udpbatch.DefaultBatch. One means strict packet-at-a-time behaviour.
	UDPBatch int

	mu       sync.Mutex
	closed   bool
	udpConns []net.PacketConn
	tcpLns   []net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	jobs     chan udpJob
	udpLoops sync.WaitGroup
	workerWG sync.WaitGroup
}

// logger returns the configured logger; a nil *obs.Logger discards, so
// no fallback construction is needed.
func (s *Server) logger() *obs.Logger { return s.Logger }

func (s *Server) readTimeout() time.Duration {
	if s.ReadTimeout > 0 {
		return s.ReadTimeout
	}
	return 10 * time.Second
}

func (s *Server) udpWorkers() int {
	if s.UDPWorkers > 0 {
		return s.UDPWorkers
	}
	n := 32 * runtime.GOMAXPROCS(0)
	if n < 64 {
		n = 64
	}
	return n
}

func (s *Server) udpBatch() int {
	switch {
	case s.UDPBatch > udpbatch.MaxBatch:
		return udpbatch.MaxBatch
	case s.UDPBatch > 0:
		return s.UDPBatch
	}
	return udpbatch.DefaultBatch
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

// Shutdown closes all listeners and connections, drains in-flight
// queries (queued UDP jobs are still answered; new packets are refused
// because the sockets are closed), stops the worker pool, and waits for
// everything to finish. It is idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
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
	jobs := s.jobs
	s.mu.Unlock()
	// Receive loops exit once their sockets close; only then is it safe
	// to close the job channel the workers drain.
	s.udpLoops.Wait()
	if jobs != nil {
		close(jobs)
	}
	s.workerWG.Wait()
	s.wg.Wait()
}

// startUDPWorkers launches the bounded worker pool once, sized by
// UDPWorkers. The job channel is buffered so a receive loop can hand off
// a full batch of misses without a context switch per packet; beyond
// that the loop drops the query and counts it in dns53_udp_dropped_total
// rather than wait, so a flood of slow misses never stops it answering
// hits.
func (s *Server) startUDPWorkers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs != nil || s.closed {
		return
	}
	n := s.udpWorkers()
	s.jobs = make(chan udpJob, 4*n)
	s.workerWG.Add(n)
	workerCount.Add(int64(n))
	for i := 0; i < n; i++ {
		go s.udpWorker()
	}
}

// udpJob is one query the receive loop could not answer itself: parsed,
// already declined by the fast path, with everything the worker needs to
// answer it after the loop has moved on to the next batch.
type udpJob struct {
	conn  udpbatch.Conn
	query *dnswire.Message // pooled; the worker releases it
	addr  net.Addr         // cloned, see udpbatch.Packet
	limit int
}

// ServeUDP answers queries arriving on pc until the connection is
// closed. It blocks; call it once per listener socket (multiple calls
// share one worker pool). Any net.PacketConn works — kernel UDP sockets
// take the batched fast path, everything else (tests, netsim virtual
// conns) the portable one-datagram adapter.
func (s *Server) ServeUDP(pc net.PacketConn) error {
	if !s.track(pc, nil, nil) {
		pc.Close()
		return errors.New("dns53: server closed")
	}
	defer s.udpLoops.Done()
	if !inMemory(s.Handler) {
		s.startUDPWorkers()
	}
	bc := udpbatch.NewConn(pc)
	batch := s.udpBatch()
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
			// The worker outlives this batch: it gets the parsed message
			// (the loop takes a fresh one) and its own copy of the peer.
			workerQueueDepth.Inc()
			select {
			case s.jobs <- udpJob{conn: bc, query: query, addr: udpbatch.CloneAddr(p.Addr), limit: limit}:
				query = dnswire.AcquireMessage()
			default:
				workerQueueDepth.Dec()
				udpDropped.Inc()
			}
		}
		if len(out) > 0 {
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

// udpWorker answers the queries the receive loops declined, one blocking
// ServeDNS at a time, each in its own one-packet write.
func (s *Server) udpWorker() {
	defer s.workerWG.Done()
	defer workerCount.Dec()
	one := make([]udpbatch.Packet, 1) // WriteBatch argument, reused
	for job := range s.jobs {
		workerQueueDepth.Dec()
		out := bufpool.Get()
		*out = s.miss((*out)[:0], job.query, job.limit)
		one[0] = udpbatch.Packet{Buf: *out, Addr: job.addr}
		if _, err := job.conn.WriteBatch(one); err != nil {
			s.logger().Debug("writing UDP response", "err", err)
		}
		bufpool.Put(out)
		dnswire.ReleaseMessage(job.query)
	}
}

// parseUDP unpacks one datagram into query and derives the largest
// response its sender accepts: the client's advertised EDNS buffer,
// defaulting to 512. ok=false means the datagram was malformed and has
// been counted and dropped.
func (s *Server) parseUDP(query *dnswire.Message, raw []byte, from net.Addr) (limit int, ok bool) {
	if err := query.Unpack(raw); err != nil {
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

// inline is AppendInline for this server's handler, counted in
// dns53_server_* when it answers; a declined query is counted by the miss
// that follows.
func (s *Server) inline(dst []byte, query *dnswire.Message, raw []byte, limit int) ([]byte, bool) {
	start := time.Now()
	out, _, ok, err := AppendInline(context.Background(), s.Handler, dst, query, raw, limit)
	if ok {
		s.served(query, start, err)
	}
	return out, ok
}

// miss is appendMiss for this server's handler, counted in dns53_server_*.
// It always appends a response.
func (s *Server) miss(dst []byte, query *dnswire.Message, limit int) []byte {
	start := time.Now()
	out, _, err := appendMiss(context.Background(), s.Handler, dst, query, limit)
	s.served(query, start, err)
	return out
}

// served counts one answered query; a handler failure, which reached the
// client as SERVFAIL, is logged and counted here, once.
func (s *Server) served(query *dnswire.Message, start time.Time, err error) {
	serverRequests.Inc()
	serverLatency.ObserveDuration(time.Since(start))
	if err != nil {
		serverFailures.Inc()
		s.logger().Warn("handler failed", "q", query.Question0().Name, "err", err)
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
// allocates nothing.
func (s *Server) serveConn(conn net.Conn) {
	inp, outp := bufpool.Get(), bufpool.Get()
	defer bufpool.Put(inp)
	defer bufpool.Put(outp)
	query := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(query)
	in, out := (*inp)[:cap(*inp)], (*outp)[:0]
	r, w, ok := 0, 0, true // in[r:w] is read and not yet answered
	for {
		for w-r >= 2 {
			end := r + 2 + int(binary.BigEndian.Uint16(in[r:]))
			if end > w {
				break
			}
			if out, ok = s.serveFrame(conn, out, query, in[r+2:end]); !ok {
				s.flushStream(conn, out) // the answers ahead of the bad frame
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
		if out, ok = s.flushStream(conn, out); !ok {
			return
		}
		_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout()))
		streamReads.Inc()
		n, err := conn.Read(in[w:])
		if n == 0 && err != nil {
			return // EOF, timeout, or peer reset: stream is done either way
		}
		w += n
	}
}

// serveFrame answers one query frame into out behind its own two-octet
// length prefix (compression offsets are message-start-relative, so what
// precedes the message does not disturb them) and returns the grown
// buffer. ok=false ends the connection: a malformed query or a failed
// write.
func (s *Server) serveFrame(conn net.Conn, out []byte, query *dnswire.Message, pkt []byte) ([]byte, bool) {
	if err := query.Unpack(pkt); err != nil {
		serverMalformed.Inc()
		s.logger().Debug("dropping malformed TCP query", "err", err)
		return out, false
	}
	streamQueries.Inc()
	at := len(out)
	frame, ok := s.inline(append(out, 0, 0), query, pkt, dnswire.MaxMessageSize)
	if !ok {
		if out, ok = s.flushStream(conn, out); !ok {
			return out, false
		}
		at = 0
		frame = s.miss(append(out, 0, 0), query, dnswire.MaxMessageSize)
	}
	binary.BigEndian.PutUint16(frame[at:], uint16(len(frame)-at-2))
	if len(frame) >= streamFlushAt {
		return s.flushStream(conn, frame)
	}
	return frame, true
}

// flushStream writes pending output, if any, in one Write under a write
// deadline (a peer that stops reading costs the connection, not a
// goroutine) and returns the emptied buffer.
func (s *Server) flushStream(conn net.Conn, out []byte) ([]byte, bool) {
	if len(out) == 0 {
		return out, true
	}
	_ = conn.SetWriteDeadline(time.Now().Add(s.readTimeout()))
	streamWrites.Inc()
	_, err := conn.Write(out)
	return out[:0], err == nil
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
