package dialer

import (
	"context"
	"net"
	"time"
)

// splitConn splits the connection's first write into two separate
// writes at byte prefix — two TCP segments on a real network. A
// middlebox that inspects segments without reassembling the stream (the
// common fast-path DPI design) never sees a parseable TLS record header,
// let alone the SNI behind it. Later writes pass through.
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

// sleep is the delay layer's clock; tests swap it to count the sleeps
// instead of taking them.
var sleep = realSleep

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

// delayConn paces writes: it sleeps delay before the connection's first
// write, or before every write when every is set ("looped" mode), under
// the dial's context. Timing-sensitive middleboxes (and rate-based
// classifiers) key on inter-segment gaps; delays also model the jittered
// clients the paper's home vantages are.
type delayConn struct {
	net.Conn
	ctx   context.Context
	delay time.Duration
	every bool
	slept bool
}

func (c *delayConn) Write(b []byte) (int, error) {
	if c.every || !c.slept {
		c.slept = true
		if err := sleep(c.ctx, c.delay); err != nil {
			return 0, layerErr("delay", err)
		}
	}
	return c.Conn.Write(b)
}
