package dns53

import (
	"context"
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/testutil"
	"encdns/internal/udpbatch"
)

// discardPacketConn satisfies net.PacketConn for benchmarking the UDP
// dispatch path without a kernel socket.
type discardPacketConn struct{}

func (discardPacketConn) ReadFrom(p []byte) (int, net.Addr, error)  { return 0, nil, io.EOF }
func (discardPacketConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }
func (discardPacketConn) Close() error                              { return nil }
func (discardPacketConn) LocalAddr() net.Addr                       { return &net.UDPAddr{} }
func (discardPacketConn) SetDeadline(time.Time) error               { return nil }
func (discardPacketConn) SetReadDeadline(time.Time) error           { return nil }
func (discardPacketConn) SetWriteDeadline(time.Time) error          { return nil }

// BenchmarkServeUDP measures the miss/fallback path one packet at a time —
// unpack with reused decode state, a handler without the fast path
// dispatched through ServeDNS, response pack into a pooled buffer, a
// one-packet write — with the socket and the goroutine start of a miss
// factored out. Cache hits do not take this path; BenchmarkServeUDPBatch
// times the one they take.
func BenchmarkServeUDP(b *testing.B) {
	answer := testutil.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp := q.Reply()
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q.Question0().Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 300, Data: &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, 1})},
		})
		return resp, nil
	})
	s := &Server{Handler: answer}
	q := dnswire.NewQuery(0x1234, "www.example.com.", dnswire.TypeA)
	q.SetEDNS(1232, false)
	wire, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 53535}
	conn := udpbatch.NewConn(discardPacketConn{})
	one := make([]udpbatch.Packet, 1)
	query := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(query)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.serveUDPPacket(conn, wire, from, query, one)
	}
}
