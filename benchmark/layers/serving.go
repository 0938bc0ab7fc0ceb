package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"encdns/benchmark/wire"
	"encdns/internal/authdns"
	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/dot"
	"encdns/internal/resolver"
	"encdns/internal/transport"
)

// handlerShim records a span around every call through the dns53.Handler
// seam, the boundary between a frontend and the resolver.
type handlerShim struct {
	inner dns53.Handler
	rec   *recorder
}

func (h *handlerShim) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	id := h.rec.begin("handler")
	resp, err := h.inner.ServeDNS(ctx, q)
	h.rec.end(id)
	return resp, err
}

// appender is the optional append-into-buffer method the frontends look
// for on their handler. It is declared here by shape, so the shim keeps
// compiling (and simply stops being asked) if the frontends drop it.
type appender interface {
	AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, int64, bool)
}

// appendShim is a handlerShim over a handler that also has the fast
// path; hiding it would trace a path the server never takes.
type appendShim struct {
	handlerShim
	fast appender
}

func (h *appendShim) AppendResponse(dst []byte, q *dnswire.Message, rawQ []byte) ([]byte, int64, bool) {
	id := h.rec.begin("handler")
	out, ttl, ok := h.fast.AppendResponse(dst, q, rawQ)
	h.rec.end(id)
	return out, ttl, ok
}

func shimHandler(inner dns53.Handler, rec *recorder) dns53.Handler {
	base := handlerShim{inner: inner, rec: rec}
	if fast, ok := inner.(appender); ok {
		return &appendShim{handlerShim: base, fast: fast}
	}
	return &base
}

// upstreamShim records a span around every exchange the resolver makes
// with an authoritative server, and can count what those calls allocate.
type upstreamShim struct {
	inner       transport.Multi
	rec         *recorder
	countAllocs bool
	allocs      uint64
}

func (u *upstreamShim) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	var before uint64
	if u.countAllocs {
		before = mallocs()
	}
	id := u.rec.begin("upstream")
	resp, err := u.inner.Exchange(ctx, q, server)
	u.rec.end(id)
	if u.countAllocs {
		u.allocs += mallocs() - before
	}
	return resp, err
}

var memStats runtime.MemStats

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	runtime.ReadMemStats(&memStats)
	return memStats.Mallocs
}

// stack is the resolver every serving chain answers from, built the way
// cmd/dohserver builds it, with the two shims on its seams.
type stack struct {
	rec      *recorder
	upstream *upstreamShim
	resolver *resolver.Recursive
	cache    *resolver.Cache
	handler  dns53.Handler // the shimmed resolver
}

func newStack(rec *recorder, miss bool) *stack {
	h := authdns.BuildHierarchy(authdns.MeasurementLeaves())
	size := 65536
	if miss {
		size = 4096 // as the udp-miss server runs: -cache 4096 -prefetch 0
	}
	s := &stack{rec: rec, cache: resolver.NewCache(size, nil)}
	s.upstream = &upstreamShim{inner: h.Registry, rec: rec}
	s.resolver = &resolver.Recursive{Exchange: s.upstream, Roots: h.RootServers, Cache: s.cache}
	s.handler = shimHandler(s.resolver, rec)
	return s
}

func (s *stack) close() {
	s.resolver.Close()
	s.cache.Close()
}

// chainResult is one chain's traced and untraced pass.
type chainResult struct {
	ops         int
	tracedNS    float64 // wall ns per op, spans recorded
	untracedNS  float64 // wall ns per op, no-op shims
	allocsPerOp float64 // untraced pass
	spans       map[string]spanStat
}

// selfNS is a span name's self time per request; perReq its count.
func (c chainResult) selfNS(name string) float64 {
	return float64(c.spans[name].self) / float64(max(c.ops, 1))
}

func (c chainResult) perReq(name string) float64 {
	return float64(c.spans[name].count) / float64(max(c.ops, 1))
}

// exchangeFunc performs one request and returns the answer for checking.
type exchangeFunc func(query []byte) ([]byte, error)

// runChain drives exchange closed-loop, one request in flight, for d:
// first traced, then with no-op shims. Answers are validated outside the
// frontend span.
func (b *bench) runChain(chain string, miss bool, d time.Duration, exchange exchangeFunc) (chainResult, error) {
	var res chainResult
	src := wire.NewQuerySource(b.seed, miss)
	var exp wire.Expectation
	var qbuf []byte
	var id uint16
	pass := func(traced bool) (ops int, ns float64, allocs float64, err error) {
		b.rec.reset(traced)
		for i := 0; i < 200; i++ { // connection set-up, lazy init and the three hot names
			id++
			qbuf = src.Next(qbuf[:0], id, &exp)
			if _, err := exchange(qbuf); err != nil {
				return 0, 0, 0, err
			}
		}
		b.rec.reset(traced)
		m0 := mallocs()
		start := time.Now()
		for deadline := start.Add(d / 2); time.Now().Before(deadline) && b.rec.newReq(); ops++ {
			id++
			qbuf = src.Next(qbuf[:0], id, &exp)
			span := b.rec.begin("frontend")
			resp, err := exchange(qbuf)
			b.rec.end(span)
			if err == nil {
				err = wire.Validate(resp, &exp)
			}
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s: %w", chain, err)
			}
		}
		elapsed := time.Since(start)
		return ops, float64(elapsed) / float64(max(ops, 1)), float64(mallocs()-m0) / float64(max(ops, 1)), nil
	}
	var err error
	if res.ops, res.tracedNS, _, err = pass(true); err != nil {
		return res, err
	}
	res.spans = b.rec.aggregate()
	b.trace.keep(b.workload, chain, b.rec)
	if _, res.untracedNS, res.allocsPerOp, err = pass(false); err != nil {
		return res, err
	}
	return res, nil
}

// udpChain serves Do53/UDP from dns53.Server.ServeUDP over pc.
func (b *bench) udpChain(chain string, s *stack, miss bool, d time.Duration, pc net.PacketConn, exchange exchangeFunc) (chainResult, error) {
	srv := &dns53.Server{Handler: s.handler}
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(pc) }()
	res, err := b.runChain(chain, miss, d, exchange)
	srv.Shutdown()
	<-done
	return res, err
}

func (b *bench) udpInMemory(s *stack, miss bool, d time.Duration) (chainResult, error) {
	pc := newMemPacketConn()
	return b.udpChain("udp-inmem", s, miss, d, pc, func(q []byte) ([]byte, error) { return pc.exchange(q), nil })
}

func (b *bench) udpLoopback(s *stack, miss bool, d time.Duration) (chainResult, error) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return chainResult{}, err
	}
	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		pc.Close()
		return chainResult{}, err
	}
	defer conn.Close()
	rbuf := make([]byte, 4096)
	return b.udpChain("udp-loopback", s, miss, d, pc, func(q []byte) ([]byte, error) {
		if _, err := conn.Write(q); err != nil {
			return nil, err
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		n, err := conn.Read(rbuf)
		return rbuf[:n], err
	})
}

// framed exchanges length-prefixed messages over a stream.
func framed(conn net.Conn) exchangeFunc {
	wbuf, rbuf := make([]byte, 0, 512), make([]byte, 4096)
	return func(q []byte) ([]byte, error) {
		wbuf = append(append(wbuf[:0], byte(len(q)>>8), byte(len(q))), q...)
		if _, err := conn.Write(wbuf); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(conn, rbuf[:2]); err != nil {
			return nil, err
		}
		n := int(rbuf[0])<<8 | int(rbuf[1])
		if n > len(rbuf) {
			return nil, errors.New("oversized frame")
		}
		_, err := io.ReadFull(conn, rbuf[:n])
		return rbuf[:n], err
	}
}

// streamChain serves RFC 1035 framing from ServeStream over an in-memory
// stream: the dns53 stream loop and nothing under it.
func (b *bench) streamChain(s *stack, d time.Duration) (chainResult, error) {
	srv := &dns53.Server{Handler: s.handler}
	client, server := newBufPair()
	done := make(chan struct{})
	go func() { srv.ServeStream(server); close(done) }()
	res, err := b.runChain("stream-pipe", false, d, framed(client))
	client.Close()
	srv.Shutdown()
	<-done
	return res, err
}

// dotChain puts dot.Server's TLS termination on top of the same stream.
func (b *bench) dotChain(s *stack, d time.Duration) (chainResult, error) {
	ca, err := certs.NewCA(0)
	if err != nil {
		return chainResult{}, err
	}
	serverTLS, err := ca.ServerConfig([]string{"localhost"}, nil)
	if err != nil {
		return chainResult{}, err
	}
	srv := &dns53.Server{Handler: s.handler}
	ln := newPipeListener()
	done := make(chan struct{})
	go func() { _ = (&dot.Server{DNS: srv, TLS: serverTLS}).Serve(ln); close(done) }()
	conn := tls.Client(ln.dial(), ca.ClientConfig("localhost"))
	if err := conn.Handshake(); err != nil {
		return chainResult{}, err
	}
	res, err := b.runChain("dot-pipe", false, d, framed(conn))
	conn.Close()
	ln.Close()
	srv.Shutdown()
	<-done
	return res, err
}

// httpShim records a span around doh.Handler's ServeHTTP.
type httpShim struct {
	inner http.Handler
	rec   *recorder
}

func (h *httpShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.rec.begin("doh.ServeHTTP")
	h.inner.ServeHTTP(w, r)
	h.rec.end(id)
}

// dohChain serves RFC 8484 POSTs from doh.Handler behind net/http's
// HTTP/2 server on a loopback TLS listener.
func (b *bench) dohChain(s *stack, d time.Duration) (chainResult, error) {
	ts := httptest.NewUnstartedServer(&httpShim{inner: &doh.Handler{DNS: s.handler}, rec: b.rec})
	ts.EnableHTTP2 = true
	ts.StartTLS()
	defer ts.Close()
	client := ts.Client()
	var scratch []byte
	return b.runChain("doh-httptest", false, d, func(q []byte) (resp []byte, err error) {
		resp, err = wire.PostDoH(client.Transport, ts.URL+doh.DefaultPath, q, scratch)
		scratch = resp
		return resp, err
	})
}

// timeLeaf times fn called n times and returns ns and allocations per
// call.
func timeLeaf(n int, fn func(i int)) (ns, allocs float64) {
	for i := 0; i < n/10+1; i++ {
		fn(i)
	}
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	return float64(elapsed) / float64(n), float64(mallocs()-m0) / float64(n)
}

// leafN is the call count of a leaf timing: enough for a microsecond
// call to take some milliseconds.
const leafN = 20000

// codecLeaves times the wire codec on the workload's own messages:
// parsing a query into a reused message as the frontends do, and packing
// the response ServeDNS materialises for it.
func codecLeaves(s *stack, miss bool, seed uint64, rungs map[string]float64) error {
	src := wire.NewQuerySource(seed, miss)
	var exp wire.Expectation
	query := src.Next(nil, 1, &exp)
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	var parseErr error
	rungs["dnswire.parse_ns"], rungs["dnswire.parse_allocs"] = timeLeaf(leafN, func(int) {
		if err := msg.Unpack(query); err != nil {
			parseErr = err
		}
	})
	if parseErr != nil {
		return parseErr
	}
	resp, err := s.resolver.ServeDNS(context.Background(), msg)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 512)
	var packErr error
	rungs["dnswire.pack_ns"], rungs["dnswire.pack_allocs"] = timeLeaf(leafN, func(int) {
		if _, err := resp.AppendPack(buf[:0]); err != nil {
			packErr = err
		}
	})
	return packErr
}

// handlerAllocs counts what one request allocates inside the handler,
// calling it the way the frontends do (fast path first, ServeDNS when it
// declines), and how much of that the upstream exchanges account for.
func handlerAllocs(s *stack, miss bool, seed uint64) (handler, upstream float64, err error) {
	const n = 500
	src := wire.NewQuerySource(seed^0xa110c, miss)
	var exp wire.Expectation
	msg := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(msg)
	out := make([]byte, 0, 512)
	var qbuf []byte
	fast, _ := s.handler.(appender)
	serve := func(i int) error {
		qbuf = src.Next(qbuf[:0], uint16(i), &exp)
		if err := msg.Unpack(qbuf); err != nil {
			return err
		}
		if rawQ, ok := dnswire.QuestionBytes(qbuf); ok && fast != nil {
			if _, _, ok := fast.AppendResponse(out[:0], msg, rawQ); ok {
				return nil
			}
		}
		_, err := s.handler.ServeDNS(context.Background(), msg)
		return err
	}
	for i := 0; i < 50; i++ {
		if err := serve(i); err != nil {
			return 0, 0, err
		}
	}
	s.upstream.countAllocs, s.upstream.allocs = true, 0
	defer func() { s.upstream.countAllocs = false }()
	m0 := mallocs()
	for i := 0; i < n; i++ {
		if err := serve(i); err != nil {
			return 0, 0, err
		}
	}
	total := float64(mallocs() - m0)
	up := float64(s.upstream.allocs)
	return (total - up) / n, up / n, nil
}

// servingRungs measures the rungs on a serving workload's path.
func (b *bench) servingRungs(kind string, miss bool, d time.Duration) (map[string]float64, error) {
	rungs := make(map[string]float64)
	s := newStack(b.rec, miss)
	defer s.close()
	b.rec.reset(false)
	if err := codecLeaves(s, miss, b.seed, rungs); err != nil {
		return nil, err
	}
	handlerA, upstreamA, err := handlerAllocs(s, miss, b.seed)
	if err != nil {
		return nil, err
	}
	var chains []chainResult
	// resolverRungs reads the resolver's rungs off any chain: its spans
	// are the same whichever frontend called it.
	resolverRungs := func(c chainResult) {
		if !miss {
			rungs["resolver.hit_self_ns"] = c.selfNS("handler")
			rungs["resolver.hit_allocs"] = handlerA
			return
		}
		rungs["resolver.miss_self_ns"] = c.selfNS("handler")
		rungs["resolver.miss_allocs"] = handlerA
		rungs["resolver.upstream_per_miss"] = c.perReq("upstream")
		rungs["authdns.exchange_ns"] = float64(c.spans["upstream"].total) / float64(max(c.spans["upstream"].count, 1))
		// Distinct names into a full cache: every put also evicts.
		names := make([]string, leafN+leafN/10+1)
		for i := range names {
			names[i] = fmt.Sprintf("put-%d.google.com.", i)
		}
		next := 0
		rungs["resolver.cache_put_ns"], _ = timeLeaf(leafN, func(int) {
			s.cache.PutNegative(names[next], dnswire.TypeA, true, 60)
			next++
		})
	}
	switch kind {
	case "udp":
		mem, err := b.udpInMemory(s, miss, d/2)
		if err != nil {
			return nil, err
		}
		loop, err := b.udpLoopback(s, miss, d/2)
		if err != nil {
			return nil, err
		}
		chains = []chainResult{mem, loop}
		resolverRungs(mem)
		rungs["dns53.udp_self_ns"] = mem.selfNS("frontend")
		rungs["dns53.udp_allocs"] = mem.allocsPerOp - handlerA - upstreamA
		rungs["udpbatch.socket_ns"] = loop.selfNS("frontend") - mem.selfNS("frontend")
	case "dot":
		stream, err := b.streamChain(s, d/2)
		if err != nil {
			return nil, err
		}
		tlsChain, err := b.dotChain(s, d/2)
		if err != nil {
			return nil, err
		}
		chains = []chainResult{stream, tlsChain}
		resolverRungs(stream)
		rungs["dns53.stream_self_ns"] = stream.selfNS("frontend")
		rungs["dot.tls_self_ns"] = tlsChain.selfNS("frontend") - stream.selfNS("frontend")
	case "doh":
		c, err := b.dohChain(s, d)
		if err != nil {
			return nil, err
		}
		chains = []chainResult{c}
		resolverRungs(c)
		rungs["doh.handler_self_ns"] = c.selfNS("doh.ServeHTTP")
		rungs["doh.http_tls_ns"] = c.selfNS("frontend")
		total, err := dohHandlerAllocs(s, b.seed)
		if err != nil {
			return nil, err
		}
		rungs["doh.handler_allocs"] = total - handlerA
	}
	var traced, untraced float64
	for _, c := range chains {
		traced += c.tracedNS
		untraced += c.untracedNS
	}
	rungs["trace.overhead_ratio"] = traced / untraced
	return rungs, nil
}

// nullWriter is the least http.ResponseWriter there is, so that what a
// direct ServeHTTP call allocates is the handler's.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// dohHandlerAllocs counts what one POST allocates in doh.Handler and the
// DNS handler under it, by calling ServeHTTP directly.
func dohHandlerAllocs(s *stack, seed uint64) (float64, error) {
	src := wire.NewQuerySource(seed, false)
	var exp wire.Expectation
	query := src.Next(nil, 1, &exp)
	h := &doh.Handler{DNS: s.handler}
	body := bytes.NewReader(query)
	req, err := http.NewRequest(http.MethodPost, doh.DefaultPath, io.NopCloser(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.DoHContentType)
	w := &nullWriter{h: make(http.Header)}
	_, allocs := timeLeaf(2000, func(int) {
		body.Reset(query)
		clear(w.h)
		h.ServeHTTP(w, req)
	})
	return allocs, nil
}
