// Package udpbatch amortises UDP syscall cost for the Do53 frontend: a
// batched packet connection that moves up to dozens of datagrams per
// syscall through recvmmsg/sendmmsg on Linux.
//
// The motivation is per-query transport overhead: Böttger et al. and
// Hounsel et al. show that amortising it is what makes encrypted DNS
// competitive, and the same holds one layer down at the syscall
// boundary. The benchmark's udp-hit row is where batching earns its
// place: the dns53 receive loop answers every cache hit of a recvmmsg
// batch with one sendmmsg (EXPERIMENTS.md, "Run-to-completion cache
// hits").
//
// Two implementations sit behind the Conn interface:
//
//   - a Linux fast path (batch_linux.go, build tag `linux && !nobatch`)
//     that reaches recvmmsg/sendmmsg through syscall.RawConn, so the
//     netpoller integration (and the module's zero-dependency rule) is
//     preserved. Its writes go out as GSO trains: the packets of a batch
//     that share a peer and a length (up to 1232 octets) leave as one
//     sendmmsg message with a UDP_SEGMENT control message, which the
//     kernel cuts back into the same datagrams, so it builds and routes
//     one buffer instead of one per datagram. A socket whose kernel
//     refuses a train sends that train's datagrams one at a time and,
//     when those leave, sends one datagram per message from then on;
//   - a portable fallback that adapts any net.PacketConn one datagram at
//     a time with identical semantics.
//
// Build with `-tags nobatch` to force the fallback on Linux (CI compiles
// and tests both variants).
package udpbatch

import (
	"net"

	"encdns/internal/obs"
)

// DefaultBatch is the per-syscall packet budget of the dns53 UDP loop. 32 matches the sweet spot measured in the batch-size sweep
// (EXPERIMENTS.md): large enough to amortise the syscall, small enough
// not to add queueing latency at low load. Batch size has no measurable
// effect on median latency: recvmmsg is non-blocking, so a smaller
// budget only caps the per-syscall vector — it never waits to fill.
const DefaultBatch = 32

// MaxBatch caps a single recvmmsg/sendmmsg vector; larger WriteBatch
// calls are looped internally. Linux's UIO_MAXIOV is far higher, but
// beyond this the amortisation gain is already <2%.
const MaxBatch = 64

// Packet is one datagram and its peer address. ReadBatch fills Buf
// (which the caller pre-sizes to the receive capacity) and Addr;
// WriteBatch sends Buf to Addr. An Addr filled by ReadBatch is valid only
// until the next ReadBatch on the same Conn (the fast path reuses one
// address per vector slot); CloneAddr copies one to keep.
type Packet struct {
	Buf  []byte
	Addr net.Addr
}

// Conn is a batched packet connection. One goroutine reads; any number
// may write concurrently with it and with each other (the dns53
// frontend's shape: the receive loop answers what cannot block itself
// while each declined query's goroutine writes its own on the same socket).
type Conn interface {
	// ReadBatch blocks until at least one datagram arrives, then fills up
	// to len(pkts) without blocking again, returning how many were read.
	// Each pkts[i].Buf must be pre-sized to its capacity; on return it is
	// re-sliced to the datagram length. The addresses it fills may be
	// reused by the next call, but only if they are *net.UDPAddr: that is
	// what CloneAddr copies.
	ReadBatch(pkts []Packet) (int, error)
	// WriteBatch sends every packet, looping over partial progress, and
	// returns how many were sent. A packet the socket rejects (a peer
	// address the kernel refuses or that is no *net.UDPAddr, say) costs
	// only itself: the rest are still sent and the first such error is
	// returned. An empty Buf is an empty datagram. Packets to one peer
	// of one length arrive in batch order; across peers or lengths the
	// fast path may reorder them, since each such group leaves as one
	// GSO train, in the order of its first packet. A train the kernel
	// refuses is resent one datagram at a time. It may be called with
	// addresses the latest ReadBatch returned.
	WriteBatch(pkts []Packet) (int, error)
	LocalAddr() net.Addr
	Close() error
}

// udpAddr is a UDPAddr carrying its own IP storage, so filling or
// cloning one costs at most one allocation.
type udpAddr struct {
	net.UDPAddr
	ip [16]byte
}

func (a *udpAddr) set(ip []byte, port int, zone string) {
	a.IP, a.Port, a.Zone = append(a.ip[:0], ip...), port, zone
}

// CloneAddr returns an address that stays valid after the next ReadBatch.
// Only *net.UDPAddr is ever reused by a Conn; any other address comes
// from a net.PacketConn's ReadFrom, which hands out fresh ones.
func CloneAddr(addr net.Addr) net.Addr {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return addr
	}
	c := new(udpAddr)
	c.set(ua.IP, ua.Port, ua.Zone)
	return &c.UDPAddr
}

// Per-socket batch-size histograms plus process-wide syscall/packet
// counters: syscalls-per-packet (reads/packets, writes/packets) is the
// headline efficiency ratio the batch sweep optimises.
var (
	batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64}

	readSyscalls = obs.Default().Counter("udpbatch_read_syscalls_total",
		"Batched-read syscalls (or fallback ReadFrom calls) across sockets.")
	readPackets = obs.Default().Counter("udpbatch_read_packets_total",
		"Datagrams received across sockets; divide syscalls by this for syscalls-per-packet.")
	writeSyscalls = obs.Default().Counter("udpbatch_write_syscalls_total",
		"Batched-write syscalls (or fallback WriteTo calls) across sockets.")
	writePackets = obs.Default().Counter("udpbatch_write_packets_total",
		"Datagrams sent across sockets.")
	writeGSOSegments = obs.Default().Counter("udpbatch_write_gso_segments_total",
		"Datagrams of udpbatch_write_packets_total sent as segments of a GSO train (one message, one peer, one length).")
)

// instruments carries the per-socket histograms shared by both Conn
// implementations.
type instruments struct {
	readBatch  *obs.Histogram
	writeBatch *obs.Histogram
}

func newInstruments(local net.Addr) *instruments {
	sock := "unknown"
	if local != nil {
		sock = local.String()
	}
	return &instruments{
		readBatch: obs.Default().Histogram("udpbatch_read_batch_size",
			"Datagrams returned per batched read.", batchSizeBounds, "socket", sock),
		writeBatch: obs.Default().Histogram("udpbatch_write_batch_size",
			"Datagrams submitted per batched write.", batchSizeBounds, "socket", sock),
	}
}

func (in *instruments) observeRead(n int) {
	readSyscalls.Inc()
	if n > 0 {
		readPackets.Add(uint64(n))
		in.readBatch.Observe(float64(n))
	}
}

func (in *instruments) observeWrite(calls, n int) {
	writeSyscalls.Add(uint64(calls))
	if n > 0 {
		writePackets.Add(uint64(n))
		in.writeBatch.Observe(float64(n))
	}
}

// NewConn wraps pc for batched I/O: pc itself when it already is a Conn
// (in-memory batch sources in tests and benchmarks), the mmsg fast path
// when pc is a *net.UDPConn on a fast-path build, the portable
// one-datagram adapter otherwise (virtual conns, other platforms,
// `nobatch` builds).
func NewConn(pc net.PacketConn) Conn {
	if c, ok := pc.(Conn); ok {
		return c
	}
	if c := newMmsgConn(pc); c != nil {
		return c
	}
	return &fallbackConn{pc: pc, inst: newInstruments(pc.LocalAddr())}
}

// fallbackConn adapts a plain net.PacketConn to the Conn interface, one
// datagram per syscall. It exists so every consumer (tests, netsim
// virtual networks, non-Linux builds) runs the same frontend code as the
// fast path. Concurrent writers rely on pc.WriteTo being safe for
// concurrent use, as net.PacketConn requires.
type fallbackConn struct {
	pc   net.PacketConn
	inst *instruments
}

func (c *fallbackConn) ReadBatch(pkts []Packet) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	n, addr, err := c.pc.ReadFrom(pkts[0].Buf)
	if err != nil {
		return 0, err
	}
	pkts[0].Buf = pkts[0].Buf[:n]
	pkts[0].Addr = addr
	c.inst.observeRead(1)
	return 1, nil
}

func (c *fallbackConn) WriteBatch(pkts []Packet) (int, error) {
	sent := 0
	var rejected error
	for i := range pkts {
		if _, err := c.pc.WriteTo(pkts[i].Buf, pkts[i].Addr); err == nil {
			sent++
		} else if rejected == nil {
			rejected = err
		}
	}
	c.inst.observeWrite(len(pkts), sent)
	return sent, rejected
}

func (c *fallbackConn) LocalAddr() net.Addr { return c.pc.LocalAddr() }
func (c *fallbackConn) Close() error        { return c.pc.Close() }
