// Package dialer is the composable connection-establishment layer under
// internal/transport: small dialers that wrap each other the way the
// Outline SDK composes stream transports. A dialer chain decides *how*
// bytes reach a resolver endpoint — split first segments, fragment the
// TLS ClientHello, pace writes — independently of *which protocol*
// (Do53/DoT/DoH) is spoken over the resulting connection.
//
// The paper's availability question ("does this encrypted resolver
// answer from here?") depends on exactly this seam on hostile or
// degraded networks: a DoT endpoint that is unreachable with a plain
// dial may answer perfectly well once the ClientHello no longer matches
// a middlebox's single-segment SNI filter. Chains make that a measurable
// axis instead of an accident of the local stack.
//
// Two interfaces mirror the stream/datagram split:
//
//	StreamDialer  — connection-oriented transports (tcp, tls, https)
//	PacketDialer  — datagram transports (udp)
//
// Wrappers implement StreamDialer over an inner StreamDialer; the chain
// grammar ("split:3|tlsfrag:sni|…", see ParseSpecs) builds them from
// endpoint strings. A layer acts on the connection's writes, never on
// the dial itself: a failed dial is the inner dial's error as it is, and
// a failed write carries the layer name via LayerError.
package dialer

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// StreamDialer establishes connection-oriented (TCP-like) transports to
// an address ("host:port"). Implementations must honour ctx
// cancellation while dialing.
type StreamDialer interface {
	DialStream(ctx context.Context, addr string) (net.Conn, error)
}

// PacketDialer establishes datagram (UDP-like) transports to an address.
type PacketDialer interface {
	DialPacket(ctx context.Context, addr string) (net.Conn, error)
}

// ContextDialer matches net.Dialer's DialContext — the shape the
// protocol clients (dns53, dot, doh) inject. It is the boundary between
// the network-oriented chain world and the protocol clients above.
type ContextDialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// FuncStreamDialer adapts a function to StreamDialer.
type FuncStreamDialer func(ctx context.Context, addr string) (net.Conn, error)

// DialStream implements StreamDialer.
func (f FuncStreamDialer) DialStream(ctx context.Context, addr string) (net.Conn, error) {
	return f(ctx, addr)
}

// kernel dials for the base dialers, with net.Dialer's defaults.
var kernel net.Dialer

// TCPDialer is the base StreamDialer over the kernel's TCP stack.
type TCPDialer struct{}

// DialStream implements StreamDialer.
func (*TCPDialer) DialStream(ctx context.Context, addr string) (net.Conn, error) {
	return kernel.DialContext(ctx, "tcp", addr)
}

// UDPDialer is the base PacketDialer over the kernel's UDP stack.
type UDPDialer struct{}

// DialPacket implements PacketDialer.
func (*UDPDialer) DialPacket(ctx context.Context, addr string) (net.Conn, error) {
	return kernel.DialContext(ctx, "udp", addr)
}

// StreamOf adapts a ContextDialer (an injected test transport, a netsim
// path, a SOCKS proxy) to the StreamDialer side of the chain. A nil cd
// yields the kernel TCPDialer.
func StreamOf(cd ContextDialer) StreamDialer {
	if cd == nil {
		return &TCPDialer{}
	}
	return FuncStreamDialer(func(ctx context.Context, addr string) (net.Conn, error) {
		return cd.DialContext(ctx, "tcp", addr)
	})
}

// PacketOf adapts a ContextDialer to the PacketDialer side of the chain.
// A nil cd yields the kernel UDPDialer.
func PacketOf(cd ContextDialer) PacketDialer {
	if cd == nil {
		return &UDPDialer{}
	}
	return packetFunc(func(ctx context.Context, addr string) (net.Conn, error) {
		return cd.DialContext(ctx, "udp", addr)
	})
}

type packetFunc func(ctx context.Context, addr string) (net.Conn, error)

func (f packetFunc) DialPacket(ctx context.Context, addr string) (net.Conn, error) {
	return f(ctx, addr)
}

// NetDialer recombines a StreamDialer and a PacketDialer into the
// ContextDialer the protocol clients take, dispatching on the network
// argument. This closes the loop: transport.Dial builds a chain, wraps
// it back into a ContextDialer, and hands it to the dns53/dot/doh
// clients unchanged.
type NetDialer struct {
	Stream StreamDialer
	Packet PacketDialer
}

// DialContext implements ContextDialer.
func (d *NetDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	switch network {
	case "tcp", "tcp4", "tcp6":
		if d.Stream == nil {
			return nil, fmt.Errorf("dialer: no stream dialer for network %q", network)
		}
		return d.Stream.DialStream(ctx, address)
	case "udp", "udp4", "udp6":
		if d.Packet == nil {
			return nil, fmt.Errorf("dialer: no packet dialer for network %q", network)
		}
		return d.Packet.DialPacket(ctx, address)
	}
	return nil, fmt.Errorf("dialer: unsupported network %q", network)
}

// LayerError marks a write failure with the chain layer that produced it
// ("split", "tlsfrag" or "delay"). transport.Classify unwraps it for the
// error taxonomy.
type LayerError struct {
	// Layer names the chain layer that failed.
	Layer string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *LayerError) Error() string {
	return fmt.Sprintf("dialer: layer %s: %v", e.Layer, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *LayerError) Unwrap() error { return e.Err }

// layerErr wraps err with a layer label unless it is nil or already
// labelled (the innermost layer wins: it is the one that actually broke).
func layerErr(layer string, err error) error {
	if err == nil {
		return nil
	}
	var le *LayerError
	if errors.As(err, &le) {
		return err
	}
	return &LayerError{Layer: layer, Err: err}
}
