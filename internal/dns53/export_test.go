package dns53

import (
	"encoding/binary"
	"net"

	"encdns/internal/bufpool"
	"encdns/internal/dnswire"
	"encdns/internal/udpbatch"
)

// MaxUDPMisses exposes the per-server bound on UDP misses in flight.
const MaxUDPMisses = maxUDPMisses

// serveUDPPacket answers one datagram with the steps the receive loop and
// its misses share — parse and limit, in line, miss — composed the plain
// way: one packet in, one write out, nothing batched, swapped or cloned,
// and only the miss half counted: ServeUDP counts its in-line answers per
// batch, and this reference has no batch. It is the reference the differential test holds ServeUDP against, and
// what BenchmarkServeUDP times. one is the reusable single-packet
// WriteBatch argument.
func (s *Server) serveUDPPacket(conn udpbatch.Conn, raw []byte, from net.Addr, query *dnswire.Message, one []udpbatch.Packet) {
	limit, ok := s.parseUDP(query, raw, from)
	if !ok {
		return
	}
	out := bufpool.Get()
	defer bufpool.Put(out)
	wire, ok := s.inline((*out)[:0], query, raw, limit)
	if !ok {
		wire = s.miss((*out)[:0], query, limit)
	}
	*out = wire
	one[0] = udpbatch.Packet{Buf: wire, Addr: from}
	_, _ = conn.WriteBatch(one) // the reference conns cannot fail
}

// ServeUDPPacket exposes serveUDPPacket to the external test package,
// which can import the cache-backed handlers this package cannot.
func (s *Server) ServeUDPPacket(conn udpbatch.Conn, raw []byte, from net.Addr) {
	query := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(query)
	s.serveUDPPacket(conn, raw, from, query, make([]udpbatch.Packet, 1))
}

// ServeStreamReference is the stream loop composed the plain way from the
// steps serveConn shares with it: read exactly one frame, answer it (hit,
// else miss), write it, nothing kept between frames. It is the reference
// the differential test and FuzzServeStream hold ServeStream against.
func (s *Server) ServeStreamReference(conn net.Conn) {
	query := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(query)
	for {
		pkt, err := ReadTCPMsg(conn)
		if err != nil || query.Unpack(pkt) != nil {
			return
		}
		frame, ok := s.inline([]byte{0, 0}, query, pkt, dnswire.MaxMessageSize)
		if !ok {
			frame = s.miss([]byte{0, 0}, query, dnswire.MaxMessageSize)
		}
		binary.BigEndian.PutUint16(frame, uint16(len(frame)-2))
		if _, err := conn.Write(frame); err != nil {
			return
		}
	}
}
