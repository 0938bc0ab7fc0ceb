package transport

import (
	"io"
	"net"
	"testing"
	"time"
)

// acceptLoop echoes on every accepted conn until the listener closes.
func acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			buf := make([]byte, 64)
			for {
				n, err := conn.Read(buf)
				if err != nil {
					return
				}
				if _, err := conn.Write(buf[:n]); err != nil {
					return
				}
			}
		}()
	}
}

// exchange proves a conn is live end to end: the peer must echo a byte.
func exchange(c net.Conn) error {
	if err := c.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return err
	}
	if _, err := c.Write([]byte{'x'}); err != nil {
		return err
	}
	_, err := c.Read(make([]byte, 1))
	return err
}

func TestLimitListenerCapsConns(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := LimitListener(inner, 2, "test-cap")
	defer ln.Close()
	go acceptLoop(ln)

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := dial(), dial()
	defer c1.Close()
	defer c2.Close()
	if err := exchange(c1); err != nil {
		t.Fatalf("conn 1 under limit: %v", err)
	}
	if err := exchange(c2); err != nil {
		t.Fatalf("conn 2 at limit: %v", err)
	}

	// Third connection must be rejected fast: accept-then-close means the
	// dial succeeds but the first read observes the close.
	c3 := dial()
	defer c3.Close()
	_ = c3.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c3.Read(make([]byte, 1)); err == nil || err == io.ErrNoProgress {
		t.Fatal("conn over limit was not closed")
	}

	// Freeing a slot lets the next connection through.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c4 := dial()
		if err := exchange(c4); err == nil {
			c4.Close()
			break
		}
		c4.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot not released after close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLimitListenerZeroMaxUnlimited(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := LimitListener(inner, 0, "test-unlimited")
	defer ln.Close()
	go acceptLoop(ln)
	conns := make([]net.Conn, 0, 8)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if err := exchange(c); err != nil {
			t.Fatalf("conn %d with max=0: %v", i, err)
		}
	}
}

// TestLimitedConnDoubleCloseReleasesOnce guards the slot accounting: a
// handler and a shutdown path may both Close the same conn.
func TestLimitedConnDoubleCloseReleasesOnce(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lim := LimitListener(inner, 1, "test-double").(*limitListener)
	defer lim.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lim.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := net.Dial("tcp", lim.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var sc net.Conn
	select {
	case sc = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("accept did not complete")
	}
	sc.Close()
	sc.Close()
	lim.mu.Lock()
	open := lim.open
	lim.mu.Unlock()
	if open != 0 {
		t.Fatalf("open = %d after double close, want 0", open)
	}
}
