//go:build linux && !nobatch && (amd64 || arm64)

package udpbatch

import (
	"net"
	"sync"
	"syscall"
	"unsafe"

	"encdns/internal/obs"
)

// mmsghdr mirrors the kernel's struct mmsghdr: one msghdr plus the
// per-message byte count recvmmsg/sendmmsg fill in. The trailing pad
// matches the C layout (the struct is 8-byte aligned).
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// mmsgConn is the Linux fast path: recvmmsg/sendmmsg through the
// netpoller via syscall.RawConn, so a blocked read still parks on the
// poller instead of burning a thread, and Close still unblocks it.
// All vector state is preallocated, peer addresses included: steady-state
// batches allocate nothing.
type mmsgConn struct {
	uc   *net.UDPConn
	rc   syscall.RawConn
	inst *instruments

	rmu   sync.Mutex // one reader at a time over the shared read vectors
	rv    vectors
	raddr [MaxBatch]udpAddr // decoded peers, one per slot, refilled by every ReadBatch

	wmu sync.Mutex // one writer at a time over the shared write vectors
	wv  vectors
}

// vectors is the preallocated per-direction syscall plumbing, the
// RawConn callback included: a closure built per batch would be a heap
// allocation per batch, since it escapes through the RawConn interface.
type vectors struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny

	call func(fd uintptr) bool // submits hdrs[:n]; fills got and err
	n    int
	got  int
	err  error
}

// bind builds call around the given recvmmsg/sendmmsg syscall number. A
// socket that is not ready parks on the netpoller (call returns false).
func (v *vectors) bind(sysno uintptr) {
	v.call = func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysno, fd,
			uintptr(unsafe.Pointer(&v.hdrs[0])), uintptr(v.n), 0, 0, 0)
		switch errno {
		case 0:
			v.got, v.err = int(r), nil
		case syscall.EAGAIN, syscall.EINTR:
			return false
		default:
			v.got, v.err = 0, errno
		}
		return true
	}
}

func (v *vectors) grow(n int) {
	if n > MaxBatch {
		n = MaxBatch
	}
	if len(v.hdrs) >= n {
		return
	}
	v.hdrs = make([]mmsghdr, n)
	v.iovs = make([]syscall.Iovec, n)
	v.names = make([]syscall.RawSockaddrAny, n)
}

var mmsgConns = obs.Default().Counter("udpbatch_mmsg_conns_total",
	"Sockets served by the recvmmsg/sendmmsg fast path.")

// newMmsgConn returns the fast-path conn, or nil when pc cannot take it
// (not a kernel UDP socket) so NewConn falls back.
func newMmsgConn(pc net.PacketConn) Conn {
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		return nil
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	mmsgConns.Inc()
	c := &mmsgConn{uc: uc, rc: rc, inst: newInstruments(uc.LocalAddr())}
	c.rv.bind(sysRecvmmsg)
	c.wv.bind(sysSendmmsg)
	return c
}

func (c *mmsgConn) LocalAddr() net.Addr { return c.uc.LocalAddr() }
func (c *mmsgConn) Close() error        { return c.uc.Close() }

// ReadBatch performs one recvmmsg, parking on the netpoller until at
// least one datagram is ready (the socket is non-blocking, so a single
// syscall drains whatever is queued without waiting for a full batch).
func (c *mmsgConn) ReadBatch(pkts []Packet) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.rv.grow(len(pkts))
	n := len(pkts)
	if n > len(c.rv.hdrs) {
		n = len(c.rv.hdrs)
	}
	for i := 0; i < n; i++ {
		buf := pkts[i].Buf
		c.rv.iovs[i].Base = &buf[0]
		c.rv.iovs[i].SetLen(len(buf))
		c.rv.hdrs[i].Hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&c.rv.names[i])),
			Namelen: uint32(unsafe.Sizeof(c.rv.names[i])),
			Iov:     &c.rv.iovs[i],
		}
		c.rv.hdrs[i].Hdr.Iovlen = 1
		c.rv.hdrs[i].Len = 0
	}
	c.rv.n = n
	if err := c.rc.Read(c.rv.call); err != nil {
		return 0, err // closed socket or poller error
	}
	if c.rv.err != nil {
		return 0, c.rv.err
	}
	got := c.rv.got
	for i := 0; i < got; i++ {
		pkts[i].Buf = pkts[i].Buf[:c.rv.hdrs[i].Len]
		pkts[i].Addr = decodeSockaddr(&c.rv.names[i], &c.raddr[i])
	}
	c.inst.observeRead(got)
	return got, nil
}

// WriteBatch submits every packet through sendmmsg, looping over partial
// progress (the kernel may accept fewer than requested under socket-
// buffer pressure) and past any packet the kernel rejects or whose address
// cannot be encoded (not a *net.UDPAddr), as the portable path does.
func (c *mmsgConn) WriteBatch(pkts []Packet) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wv.grow(len(pkts))
	sent, calls := 0, 0
	var rejected error
	for done := 0; done < len(pkts); {
		n := len(pkts) - done
		if n > len(c.wv.hdrs) {
			n = len(c.wv.hdrs)
		}
		for i := 0; i < n; i++ {
			p := &pkts[done+i]
			nameLen, ok := encodeSockaddr(&c.wv.names[i], p.Addr)
			if !ok {
				n = i // send the packets ahead of it; the next round skips it
				break
			}
			c.wv.iovs[i].Base = &p.Buf[0]
			c.wv.iovs[i].SetLen(len(p.Buf))
			c.wv.hdrs[i].Hdr = syscall.Msghdr{
				Name:    (*byte)(unsafe.Pointer(&c.wv.names[i])),
				Namelen: nameLen,
				Iov:     &c.wv.iovs[i],
			}
			c.wv.hdrs[i].Hdr.Iovlen = 1
		}
		if n == 0 {
			if rejected == nil {
				rejected = &net.OpError{Op: "write", Net: "udp", Addr: pkts[done].Addr, Err: syscall.EAFNOSUPPORT}
			}
			done++
			continue
		}
		c.wv.n = n
		err := c.rc.Write(c.wv.call)
		calls++
		if err != nil { // closed socket or poller error
			c.inst.observeWrite(calls, sent)
			return sent, err
		}
		if c.wv.err != nil {
			// sendmmsg reports an error only when its first message fails
			// (after a success it returns the count and drops the error),
			// so the culprit is pkts[done]: skip it alone.
			if rejected == nil {
				rejected = c.wv.err
			}
			done++
			continue
		}
		sent += c.wv.got
		done += c.wv.got
	}
	c.inst.observeWrite(calls, sent)
	return sent, rejected
}

// decodeSockaddr decodes a kernel-filled sockaddr into the slot's reusable
// address, so the read path allocates nothing (a scoped IPv6 peer's zone
// name aside). An unknown family yields a nil Addr.
func decodeSockaddr(sa *syscall.RawSockaddrAny, a *udpAddr) net.Addr {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		s4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&s4.Port))
		a.set(s4.Addr[:], int(p[0])<<8|int(p[1]), "")
	case syscall.AF_INET6:
		s6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&s6.Port))
		zone := ""
		if s6.Scope_id != 0 {
			zone = zoneName(s6.Scope_id)
		}
		a.set(s6.Addr[:], int(p[0])<<8|int(p[1]), zone)
	default:
		return nil
	}
	return &a.UDPAddr
}

// encodeSockaddr fills sa from addr, returning the sockaddr length.
func encodeSockaddr(sa *syscall.RawSockaddrAny, addr net.Addr) (uint32, bool) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok || ua == nil {
		return 0, false
	}
	if ip4 := ua.IP.To4(); ip4 != nil {
		s4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		*s4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		p := (*[2]byte)(unsafe.Pointer(&s4.Port))
		p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
		copy(s4.Addr[:], ip4)
		return uint32(unsafe.Sizeof(*s4)), true
	}
	ip16 := ua.IP.To16()
	if ip16 == nil {
		return 0, false
	}
	s6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
	*s6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	p := (*[2]byte)(unsafe.Pointer(&s6.Port))
	p[0], p[1] = byte(ua.Port>>8), byte(ua.Port)
	copy(s6.Addr[:], ip16)
	if ua.Zone != "" {
		s6.Scope_id = zoneID(ua.Zone)
	}
	return uint32(unsafe.Sizeof(*s6)), true
}

// zoneName resolves a scope id to an interface name, falling back to the
// numeric form (net's own convention for unknown interfaces).
func zoneName(id uint32) string {
	if ifi, err := net.InterfaceByIndex(int(id)); err == nil {
		return ifi.Name
	}
	return uitoa(id)
}

// zoneID resolves an interface name (or decimal string) to a scope id.
func zoneID(zone string) uint32 {
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	var n uint32
	for i := 0; i < len(zone); i++ {
		c := zone[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + uint32(c-'0')
	}
	return n
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
