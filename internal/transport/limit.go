package transport

import (
	"net"
	"sync"

	"encdns/internal/obs"
)

// Listener-guard instruments, labelled by listener name (dot, doh) so one
// overloaded frontend is distinguishable from another at /metrics.
var (
	limitActiveConns = func(name string) *obs.Gauge {
		return obs.Default().Gauge("transport_listener_active_conns",
			"Connections currently accepted and not yet closed, per listener.",
			"listener", name)
	}
	limitRejects = func(name string) *obs.Counter {
		return obs.Default().Counter("transport_listener_rejected_total",
			"Connections closed immediately because the listener was at its limit.",
			"listener", name)
	}
)

// LimitListener wraps ln so at most max connections are open at once.
// Unlike the blocking accept-gate approach (x/net netutil), connections
// over the limit are accepted and closed immediately: a stalled accept
// queue under overload turns every waiting client into a slow timeout,
// whereas fail-fast lets well-behaved clients retry another resolver —
// exactly the failure mode the PR4 DoH bench exposed at saturation. Idle
// connections are the wrapped server's to drop (http.Server.IdleTimeout,
// dns53.Server.ReadTimeout).
//
// The name labels the active-connection gauge and rejection counter.
func LimitListener(ln net.Listener, max int, name string) net.Listener {
	return &limitListener{
		Listener: ln,
		max:      max,
		active:   limitActiveConns(name),
		rejects:  limitRejects(name),
	}
}

type limitListener struct {
	net.Listener
	max     int
	active  *obs.Gauge
	rejects *obs.Counter

	mu   sync.Mutex
	open int
}

func (l *limitListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if l.max > 0 && l.open >= l.max {
			l.mu.Unlock()
			l.rejects.Inc()
			conn.Close()
			continue
		}
		l.open++
		l.mu.Unlock()
		l.active.Inc()
		return &limitedConn{Conn: conn, ln: l}, nil
	}
}

func (l *limitListener) release() {
	l.mu.Lock()
	l.open--
	l.mu.Unlock()
	l.active.Dec()
}

// limitedConn returns its slot exactly once on first Close.
type limitedConn struct {
	net.Conn
	ln        *limitListener
	closeOnce sync.Once
}

func (c *limitedConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(c.ln.release)
	return err
}
