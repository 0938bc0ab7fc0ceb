package main

import (
	"io"
	"net"
	"sync"
	"time"
)

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memPacketConn is an in-memory net.PacketConn carrying one datagram at
// a time each way, which is all a closed loop with one request in
// flight needs. Nothing is allocated per packet, so what the chain
// allocates is the server's.
type memPacketConn struct {
	in, out       chan int // datagram lengths; the bytes are in inBuf/outBuf
	inBuf, outBuf [4096]byte
	closed        chan struct{}
	once          sync.Once
}

func newMemPacketConn() *memPacketConn {
	return &memPacketConn{in: make(chan int), out: make(chan int), closed: make(chan struct{})}
}

func (c *memPacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	select {
	case n := <-c.in:
		return copy(p, c.inBuf[:n]), memAddr{}, nil
	case <-c.closed:
		return 0, nil, net.ErrClosed
	}
}

func (c *memPacketConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	n := copy(c.outBuf[:], p)
	select {
	case c.out <- n:
		return n, nil
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

// exchange is the client side: hand the server one datagram, wait for
// its answer. The returned slice is valid until the next exchange.
func (c *memPacketConn) exchange(query []byte) []byte {
	c.in <- copy(c.inBuf[:], query)
	return c.outBuf[:<-c.out]
}

func (c *memPacketConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *memPacketConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memPacketConn) SetDeadline(time.Time) error      { return nil }
func (c *memPacketConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memPacketConn) SetWriteDeadline(time.Time) error { return nil }

// byteQueue is one direction of a bufConn.
type byteQueue struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    []byte
	off    int
	closed bool
}

func newByteQueue() *byteQueue {
	q := &byteQueue{}
	q.ready.L = &q.mu
	return q
}

func (q *byteQueue) write(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, io.ErrClosedPipe
	}
	if q.off == len(q.buf) {
		q.buf, q.off = q.buf[:0], 0
	}
	q.buf = append(q.buf, p...)
	q.ready.Signal()
	return len(p), nil
}

func (q *byteQueue) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.off == len(q.buf) {
		if q.closed {
			return 0, io.EOF
		}
		q.ready.Wait()
	}
	n := copy(p, q.buf[q.off:])
	q.off += n
	return n, nil
}

func (q *byteQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.ready.Broadcast()
	q.mu.Unlock()
}

// bufConn is one end of an in-memory stream. Unlike net.Pipe it buffers
// writes: a TLS 1.3 handshake has both ends writing at once (the client's
// Finished against the server's session tickets), which deadlocks on an
// unbuffered pipe.
type bufConn struct{ r, w *byteQueue }

func newBufPair() (client, server *bufConn) {
	a, b := newByteQueue(), newByteQueue()
	return &bufConn{r: a, w: b}, &bufConn{r: b, w: a}
}

func (c *bufConn) Read(p []byte) (int, error)       { return c.r.read(p) }
func (c *bufConn) Write(p []byte) (int, error)      { return c.w.write(p) }
func (c *bufConn) Close() error                     { c.r.close(); c.w.close(); return nil }
func (c *bufConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *bufConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *bufConn) SetDeadline(time.Time) error      { return nil }
func (c *bufConn) SetReadDeadline(time.Time) error  { return nil }
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }

// pipeListener hands a server the far end of every bufConn dialled.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) dial() net.Conn {
	client, server := newBufPair()
	l.conns <- server
	return client
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return memAddr{} }
