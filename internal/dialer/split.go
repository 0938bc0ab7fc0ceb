package dialer

import (
	"context"
	"net"
	"time"
)

// SplitDialer splits the connection's first write into two separate
// writes at byte Prefix — two TCP segments on a real network. A
// middlebox that inspects segments without reassembling the stream (the
// common fast-path DPI design) never sees a parseable TLS record header,
// let alone the SNI behind it.
type SplitDialer struct {
	// Inner provides the underlying connection.
	Inner StreamDialer
	// Prefix is where the first write is split; values < 1 normalize
	// to 1 (split after the first byte).
	Prefix int
}

// DialStream implements StreamDialer.
func (d *SplitDialer) DialStream(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := d.Inner.DialStream(ctx, addr)
	if err != nil {
		return nil, err
	}
	n := d.Prefix
	if n < 1 {
		n = 1
	}
	return &splitConn{Conn: conn, prefix: n}, nil
}

// splitConn performs the first-write split; later writes pass through.
type splitConn struct {
	net.Conn
	prefix int
	done   bool
}

func (c *splitConn) Write(b []byte) (int, error) {
	if c.done || len(b) <= c.prefix {
		c.done = true
		return c.Conn.Write(b)
	}
	c.done = true
	n, err := c.Conn.Write(b[:c.prefix])
	if err != nil {
		return n, layerErr("split", err)
	}
	m, err := c.Conn.Write(b[c.prefix:])
	if err != nil {
		return n + m, layerErr("split", err)
	}
	return n + m, nil
}

// DelayDialer paces writes: it sleeps Delay before the connection's
// first write, or before every write when Every is set. Timing-sensitive
// middleboxes (and rate-based classifiers) key on inter-segment gaps;
// delays also model the jittered clients the paper's home vantages are.
type DelayDialer struct {
	// Inner provides the underlying connection.
	Inner StreamDialer
	// Delay is slept before the first write (or all writes with Every).
	Delay time.Duration
	// Every applies the delay before every write, not just the first
	// ("looped" mode).
	Every bool
	// Sleep is the clock hook; nil sleeps on the real clock. Tests and
	// virtual-time harnesses inject their own.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DialStream implements StreamDialer.
func (d *DelayDialer) DialStream(ctx context.Context, addr string) (net.Conn, error) {
	conn, err := d.Inner.DialStream(ctx, addr)
	if err != nil {
		return nil, err
	}
	sleep := d.Sleep
	if sleep == nil {
		sleep = realSleep
	}
	return &delayConn{Conn: conn, ctx: ctx, delay: d.Delay, every: d.Every, sleep: sleep}, nil
}

func realSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

type delayConn struct {
	net.Conn
	ctx   context.Context
	delay time.Duration
	every bool
	slept bool
	sleep func(ctx context.Context, d time.Duration) error
}

func (c *delayConn) Write(b []byte) (int, error) {
	if c.every || !c.slept {
		c.slept = true
		if err := c.sleep(c.ctx, c.delay); err != nil {
			return 0, layerErr("delay", err)
		}
	}
	return c.Conn.Write(b)
}
