package dialer

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"

	"encdns/internal/obs"
)

// ResolveFunc resolves a hostname to its A/AAAA addresses. Live chains
// use a stub over net.Resolver; tests and netsim vantages inject static
// maps. The measurement tool resolves endpoint hostnames out of band so
// the timed exchange never includes bootstrap resolution.
type ResolveFunc func(ctx context.Context, host string) ([]netip.Addr, error)

// DefaultStagger is the happy-eyeballs connection-attempt delay, RFC
// 8305 §5's recommended 250 ms.
const DefaultStagger = 250 * time.Millisecond

// HappyEyeballs is the multi-endpoint connector: it resolves the
// address's hostname, interleaves address families (IPv6 first, RFC 8305
// §4), and races staggered connection attempts through Inner — attempt
// i+1 starts one Stagger after attempt i, or immediately when an earlier
// attempt fails. The first established connection wins; losers are
// cancelled and closed. The paper's many-address mainstream resolvers
// (dns.google, one.one.one.one, …) are exactly the endpoints where a
// broken or throttled family would otherwise serialise a full timeout
// before the healthy family is tried.
//
// IP-literal addresses and a nil Resolve bypass the race entirely, so
// wrapping is always safe.
type HappyEyeballs struct {
	// Inner dials each individual address.
	Inner StreamDialer
	// Resolve provides the candidate addresses; nil disables racing.
	Resolve ResolveFunc
	// Stagger is the delay between successive connection attempts; zero
	// means DefaultStagger.
	Stagger time.Duration
}

func (h *HappyEyeballs) stagger() time.Duration {
	if h.Stagger > 0 {
		return h.Stagger
	}
	return DefaultStagger
}

// DialStream implements StreamDialer.
func (h *HappyEyeballs) DialStream(ctx context.Context, addr string) (net.Conn, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, layerErr("eyeballs", err)
	}
	if h.Resolve == nil {
		return h.Inner.DialStream(ctx, addr)
	}
	if _, err := netip.ParseAddr(host); err == nil {
		return h.Inner.DialStream(ctx, addr) // already a literal
	}
	addrs, err := h.Resolve(ctx, host)
	if err != nil {
		return nil, layerErr("eyeballs", fmt.Errorf("resolving %s: %w", host, err))
	}
	ordered := interleaveFamilies(addrs)
	if len(ordered) == 0 {
		return nil, layerErr("eyeballs", fmt.Errorf("no addresses for %s", host))
	}
	if len(ordered) == 1 {
		return h.Inner.DialStream(ctx, net.JoinHostPort(ordered[0].String(), port))
	}
	return h.race(ctx, ordered, port)
}

// race runs the staggered connection race. It mirrors transport.Race's
// semantics but additionally owns the loser connections: any connection
// that loses (or lands after the winner) is closed.
func (h *HappyEyeballs) race(ctx context.Context, addrs []netip.Addr, port string) (net.Conn, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	resC := make(chan raceResult, len(addrs))
	start := time.Now()
	launch := func(i int) {
		a := net.JoinHostPort(addrs[i].String(), port)
		obs.Annotate(ctx, "eyeballs: attempt %d dial %s (%s)", i, a, Family(addrs[i]))
		go func() {
			conn, err := h.Inner.DialStream(raceCtx, a)
			resC <- raceResult{idx: i, conn: conn, err: err}
		}()
	}

	launch(0)
	launched, settled := 1, 0
	timer := time.NewTimer(h.stagger())
	defer timer.Stop()

	errs := make([]error, 0, len(addrs))
	for {
		select {
		case r := <-resC:
			settled++
			if r.err == nil {
				obs.Annotate(ctx, "eyeballs: attempt %d (%s) won in %s",
					r.idx, Family(addrs[r.idx]), time.Since(start).Round(time.Microsecond))
				cancel()
				// Reap stragglers in the background; their context is
				// cancelled, so each settles promptly.
				go closeLosers(resC, launched-settled)
				return r.conn, nil
			}
			errs = append(errs, fmt.Errorf("%s: %w", addrs[r.idx], r.err))
			if settled == launched && launched == len(addrs) {
				return nil, layerErr("eyeballs", errors.Join(errs...))
			}
			// A failure releases the next attempt immediately.
			if launched < len(addrs) {
				launch(launched)
				launched++
			}
		case <-timer.C:
			if launched < len(addrs) {
				launch(launched)
				launched++
			}
			if launched < len(addrs) {
				timer.Reset(h.stagger())
			}
		case <-ctx.Done():
			go closeLosers(resC, launched-settled)
			return nil, layerErr("eyeballs", ctx.Err())
		}
	}
}

// raceResult is one settled connection attempt in the eyeballs race.
type raceResult struct {
	idx  int
	conn net.Conn
	err  error
}

// closeLosers drains n late results, closing any connections they carry.
func closeLosers(resC <-chan raceResult, n int) {
	for i := 0; i < n; i++ {
		if r := <-resC; r.conn != nil {
			r.conn.Close()
		}
	}
}

// Family names an address's family the way the trace output and the
// per-family metrics label it.
func Family(a netip.Addr) string {
	if a.Is4() || a.Is4In6() {
		return "ipv4"
	}
	return "ipv6"
}

// interleaveFamilies orders candidate addresses per RFC 8305 §4:
// alternate address families, IPv6 first, preserving each family's
// given order.
func interleaveFamilies(addrs []netip.Addr) []netip.Addr {
	var v6, v4 []netip.Addr
	for _, a := range addrs {
		if !a.IsValid() {
			continue
		}
		if Family(a) == "ipv4" {
			v4 = append(v4, a)
		} else {
			v6 = append(v6, a)
		}
	}
	out := make([]netip.Addr, 0, len(v6)+len(v4))
	for i := 0; i < len(v6) || i < len(v4); i++ {
		if i < len(v6) {
			out = append(out, v6[i])
		}
		if i < len(v4) {
			out = append(out, v4[i])
		}
	}
	return out
}

// NetResolve adapts the system resolver to ResolveFunc for live chains.
func NetResolve(r *net.Resolver) ResolveFunc {
	if r == nil {
		r = net.DefaultResolver
	}
	return func(ctx context.Context, host string) ([]netip.Addr, error) {
		ips, err := r.LookupNetIP(ctx, "ip", host)
		if err != nil {
			return nil, err
		}
		return ips, nil
	}
}
