package dialer

import (
	"context"
	"fmt"
	"net"
	"sync"
	"syscall"
)

// This file is the byte-level companion to netsim's transaction-level
// model: a VirtualNet of in-process pipe connections with middlebox
// models on the path. The transaction model answers "how long does a
// query take from this vantage"; the VirtualNet answers "do the actual
// bytes of a real TLS handshake survive this vantage's middleboxes" —
// which is the reachability axis the chains above exist to measure.
// Real protocol code (crypto/tls, internal/dot, internal/doh) runs
// unmodified over VirtualNet paths, so evasion results are proofs about
// the real client stack, in deterministic in-process time. It lives
// here, at the seam it attacks, so netsim stays free of sockets.

// Verdict is a middlebox's decision about one client→server segment.
type Verdict int

// Middlebox verdicts. Pass forwards the segment, Drop silently discards
// it (the classic stateless-firewall failure mode: the connection
// strands until the client gives up), Reset tears the connection down
// with ECONNRESET in both directions (the classic injected-RST censor).
const (
	VerdictPass Verdict = iota
	VerdictDrop
	VerdictReset
)

// Middlebox is a named on-path interference model.
type Middlebox interface {
	// Name labels the middlebox in vantage definitions and reports.
	Name() string
}

// SegmentInspector is a middlebox that inspects client→server segments.
// index counts segments from 0; each Write through the path is one
// segment, mirroring fast-path DPI that classifies per-packet without
// stream reassembly.
type SegmentInspector interface {
	Middlebox
	Inspect(index int, segment []byte) Verdict
}

// DialFilter is a middlebox that acts at connection establishment, before
// any bytes flow. Implementations may block until ctx is done to model
// silent blackholing.
type DialFilter interface {
	Middlebox
	FilterDial(ctx context.Context, network, address string) error
}

// RSTOnSNI injects a connection reset when any single segment carries a
// complete TLS ClientHello whose SNI matches a blocked name. This is the
// single-segment SNI filter deployed at national scale: it never
// reassembles records, so record fragmentation (tlsfrag) and stream
// splitting (split) walk straight past it.
type RSTOnSNI struct {
	// Blocked lists the exact SNI values that trigger the reset.
	Blocked []string
}

// Name implements Middlebox.
func (m *RSTOnSNI) Name() string { return "rst-on-sni" }

// Inspect implements SegmentInspector.
func (m *RSTOnSNI) Inspect(_ int, segment []byte) Verdict {
	sni, ok := parseSNI(segment)
	if !ok {
		return VerdictPass
	}
	for _, b := range m.Blocked {
		if sni == b {
			return VerdictReset
		}
	}
	return VerdictPass
}

// DropLargeRecord silently drops the connection's first segment when it
// opens a TLS record longer than MaxBytes — a model of middleboxes that
// choke on large ClientHellos (post-quantum keyshares made this failure
// real). Only the first segment is inspected; that shortcut is exactly
// why a fragmented ClientHello (small first record) slips through.
type DropLargeRecord struct {
	// MaxBytes is the largest first-record size (header included) that
	// passes.
	MaxBytes int
}

// Name implements Middlebox.
func (m *DropLargeRecord) Name() string { return "drop-large-record" }

// Inspect implements SegmentInspector.
func (m *DropLargeRecord) Inspect(index int, segment []byte) Verdict {
	if index != 0 {
		return VerdictPass
	}
	if n, ok := firstRecordLen(segment); ok && n > m.MaxBytes {
		return VerdictDrop
	}
	return VerdictPass
}

// Blackhole strands every dial until the caller's context expires —
// the fully unreachable vantage/endpoint pair.
type Blackhole struct{}

// Name implements Middlebox.
func (m *Blackhole) Name() string { return "blackhole" }

// FilterDial implements DialFilter.
func (m *Blackhole) FilterDial(ctx context.Context, _, _ string) error {
	<-ctx.Done()
	return &net.OpError{Op: "dial", Net: "tcp", Err: ctx.Err()}
}

// VirtualNet is an in-process network: servers Listen on virtual
// addresses, clients reach them through Path dialers that run the bytes
// past middlebox models. No sockets, no timers beyond the caller's
// context — outcomes depend only on the bytes written, so evasion tests
// are deterministic.
type VirtualNet struct {
	mu        sync.Mutex
	listeners map[string]*pipeListener
}

// NewVirtualNet creates an empty virtual network.
func NewVirtualNet() *VirtualNet {
	return &VirtualNet{listeners: make(map[string]*pipeListener)}
}

// Listen registers a server at the given "host:port" address and returns
// its listener. The address is matched exactly against dial targets.
func (vn *VirtualNet) Listen(addr string) (net.Listener, error) {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	if _, dup := vn.listeners[addr]; dup {
		return nil, fmt.Errorf("dialer: address %s already in use", addr)
	}
	l := &pipeListener{vn: vn, addr: addr, conns: make(chan net.Conn), done: make(chan struct{})}
	vn.listeners[addr] = l
	return l, nil
}

// Path returns a dialer (the net.Dialer shape transport.Options accepts)
// that reaches this VirtualNet's listeners
// through the given middleboxes. DialFilters run at establishment;
// SegmentInspectors see every client→server write.
func (vn *VirtualNet) Path(mbs ...Middlebox) *PathDialer {
	return &PathDialer{vn: vn, mbs: mbs}
}

// PathDialer dials VirtualNet listeners through a middlebox pipeline.
// It implements transport.ContextDialer.
type PathDialer struct {
	vn  *VirtualNet
	mbs []Middlebox
}

// DialContext implements the net.Dialer-shaped dial used across the repo.
func (p *PathDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	for _, mb := range p.mbs {
		if f, ok := mb.(DialFilter); ok {
			if err := f.FilterDial(ctx, network, address); err != nil {
				return nil, err
			}
		}
	}
	p.vn.mu.Lock()
	l := p.vn.listeners[address]
	p.vn.mu.Unlock()
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: network,
			Err: fmt.Errorf("dialer: no listener at %s", address)}
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
	case <-l.done:
		client.Close()
		server.Close()
		return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
	var inspectors []SegmentInspector
	for _, mb := range p.mbs {
		if si, ok := mb.(SegmentInspector); ok {
			inspectors = append(inspectors, si)
		}
	}
	if len(inspectors) == 0 {
		return client, nil
	}
	return &dpiConn{Conn: client, server: server, mbs: inspectors}, nil
}

// pipeListener hands dialed pipe ends to Accept.
type pipeListener struct {
	vn    *VirtualNet
	addr  string
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

// Accept implements net.Listener.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "virtual", Err: net.ErrClosed}
	}
}

// Close implements net.Listener.
func (l *pipeListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.vn.mu.Lock()
		delete(l.vn.listeners, l.addr)
		l.vn.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *pipeListener) Addr() net.Addr { return virtAddr(l.addr) }

type virtAddr string

func (a virtAddr) Network() string { return "virtual" }
func (a virtAddr) String() string  { return string(a) }

// dpiConn is the client end of a middleboxed path: every Write is one
// inspected segment.
type dpiConn struct {
	net.Conn
	server net.Conn
	mbs    []SegmentInspector

	mu    sync.Mutex
	index int
	reset bool
}

// errReset is what an injected RST looks like to the client stack.
func errReset(op string) error {
	return &net.OpError{Op: op, Net: "tcp", Err: syscall.ECONNRESET}
}

func (c *dpiConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, errReset("write")
	}
	idx := c.index
	c.index++
	verdict := VerdictPass
	for _, mb := range c.mbs {
		if v := mb.Inspect(idx, b); v > verdict {
			verdict = v
		}
	}
	switch verdict {
	case VerdictDrop:
		c.mu.Unlock()
		// Swallowed on the wire: the sender believes it went out.
		return len(b), nil
	case VerdictReset:
		c.reset = true
		c.mu.Unlock()
		// Tear down both directions, like an injected RST pair.
		c.server.Close()
		c.Conn.Close()
		return 0, errReset("write")
	}
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *dpiConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, errReset("read")
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(b)
	if err != nil {
		c.mu.Lock()
		wasReset := c.reset
		c.mu.Unlock()
		if wasReset {
			return n, errReset("read")
		}
	}
	return n, err
}
