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

// A GSO train is one message carrying equal-sized datagrams to one peer:
// a SOL_UDP/UDP_SEGMENT control message tells the kernel to cut its
// iovecs back into datagrams of that size.
const (
	solUDP     = syscall.IPPROTO_UDP // SOL_UDP, which package syscall lacks
	udpSegment = 103                 // UDP_SEGMENT, linux/udp.h
	// maxSegment is the largest datagram that joins a train: the IPv6
	// minimum MTU (1280) less the IPv6 and UDP headers, so a segment fits
	// any path. Larger and empty datagrams leave one per message.
	maxSegment = 1232
	// maxTrainBytes is the largest UDP payload of one IPv4 send (65535
	// less 28 header octets), the most the kernel accepts in a train. A
	// chunk is at most MaxBatch (64) datagrams, the kernel's segment cap.
	maxTrainBytes = 65507
)

// gsoCmsg is one UDP_SEGMENT control message, CMSG_SPACE(2) long.
type gsoCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// train is the packets of one chunk that share a peer and a length, sent
// as one message: its iovecs are iovs[off:off+n], its peer names[first].
type train struct {
	first, n, off, size int
	nameLen             uint32
}

// mmsgConn is the Linux fast path: recvmmsg/sendmmsg through the
// netpoller via syscall.RawConn, so a blocked read still parks on the
// poller instead of burning a thread, and Close still unblocks it.
// All vector state is preallocated, peer addresses and trains included:
// steady-state batches allocate nothing.
type mmsgConn struct {
	uc   *net.UDPConn
	rc   syscall.RawConn
	inst *instruments

	rmu   sync.Mutex // one reader at a time over the shared read vectors
	rv    vectors
	raddr [MaxBatch]udpAddr // decoded peers, one per slot, refilled by every ReadBatch

	wmu    sync.Mutex // one writer at a time over the shared write vectors and trains
	wv     vectors
	trains bool                // build GSO trains; cleared once the kernel refuses one
	tr     [MaxBatch]train     // the chunk's trains, in order of their first packet
	of     [MaxBatch]int       // each chunk slot's train
	index  [2 * MaxBatch]uint8 // (peer, length) hash → train+1; 0 is empty
	ctl    [MaxBatch]gsoCmsg   // each train's UDP_SEGMENT message
}

// vectors is the preallocated per-direction syscall plumbing, the
// RawConn callback included: a closure built per batch would be a heap
// allocation per batch, since it escapes through the RawConn interface.
type vectors struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny

	call func(fd uintptr) bool // submits msgs; fills got and err
	msgs []mmsghdr             // a window of hdrs
	got  int
	err  error
}

// bind builds call around the given recvmmsg/sendmmsg syscall number. A
// socket that is not ready parks on the netpoller (call returns false).
func (v *vectors) bind(sysno uintptr) {
	v.call = func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysno, fd,
			uintptr(unsafe.Pointer(&v.msgs[0])), uintptr(len(v.msgs)), 0, 0, 0)
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

// setIov points iov at buf; an empty buf gets a nil base.
func setIov(iov *syscall.Iovec, buf []byte) {
	iov.Base = nil
	if len(buf) > 0 {
		iov.Base = &buf[0]
	}
	iov.SetLen(len(buf))
}

var mmsgConns = obs.Default().Counter("udpbatch_mmsg_conns_total",
	"Sockets served by the recvmmsg/sendmmsg fast path.")

// newMmsgConn returns the fast-path conn, or nil when pc cannot take it
// (not a kernel UDP socket) so NewConn falls back. A socket whose kernel
// does not know UDP_SEGMENT never builds trains.
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
	c.trains = rc.Control(func(fd uintptr) {
		_, err = syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
	}) == nil && err == nil
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
	c.rv.msgs = c.rv.hdrs[:n]
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

// WriteBatch submits every packet through sendmmsg, one message per GSO
// train (see pack), looping over partial progress (the kernel may accept
// fewer messages than requested under socket-buffer pressure) and past
// any packet the kernel rejects or whose address cannot be encoded (not a
// *net.UDPAddr), as the portable path does. A train the kernel refuses is
// resent one datagram at a time; if those all leave, the refusal was the
// kernel's, not the peer's, and the socket builds no more trains.
func (c *mmsgConn) WriteBatch(pkts []Packet) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wv.grow(len(pkts))
	sent, segs, calls := 0, 0, 0
	defer func() {
		c.inst.observeWrite(calls, sent)
		writeGSOSegments.Add(uint64(segs))
	}()
	var rejected error
	reject := func(err error) {
		if rejected == nil {
			rejected = err
		}
	}
	// send submits hdrs[k:to] once; a non-nil error is the socket's own.
	send := func(k, to int) error {
		c.wv.msgs = c.wv.hdrs[k:to]
		calls++
		return c.rc.Write(c.wv.call)
	}
	for done := 0; done < len(pkts); {
		n, msgs := c.pack(pkts[done:min(len(pkts), done+len(c.wv.hdrs))])
		if n == 0 {
			reject(&net.OpError{Op: "write", Net: "udp", Addr: pkts[done].Addr, Err: syscall.EAFNOSUPPORT})
			done++
			continue
		}
		for k := 0; k < msgs; {
			if err := send(k, msgs); err != nil { // closed socket or poller error
				return sent, err
			}
			if c.wv.err == nil {
				for _, t := range c.tr[k : k+c.wv.got] {
					sent += t.n
					if t.n > 1 {
						segs += t.n
					}
				}
				k += c.wv.got
				continue
			}
			// sendmmsg reports an error only when its first message fails
			// (after a success it returns the count and drops the error),
			// so the culprit is train k: resend its datagrams alone.
			t, h := c.tr[k], &c.wv.hdrs[k].Hdr
			if t.n == 1 {
				reject(c.wv.err)
			} else {
				h.Control, h.Controllen, h.Iovlen = nil, 0, 1
				before := sent
				for i := t.off; i < t.off+t.n; i++ {
					h.Iov = &c.wv.iovs[i]
					if err := send(k, k+1); err != nil {
						return sent, err
					}
					if c.wv.err != nil {
						reject(c.wv.err)
					} else {
						sent++
					}
				}
				c.trains = c.trains && sent-before < t.n
			}
			k++
		}
		done += n
	}
	return sent, rejected
}

// pack lays out pkts, a chunk of at most len(hdrs), in the write vectors
// as trains: the packets of one peer and one length join one message, up
// to maxTrainBytes, trains in the order of their first packet and packets
// in batch order inside each. It stops before the first address it
// cannot encode and returns how many packets it took and how many
// messages it built. Peers compare by their encoded sockaddr, through an
// open-addressing index, so a chunk packs in linear time.
func (c *mmsgConn) pack(pkts []Packet) (n, msgs int) {
	v := &c.wv
	clear(c.index[:])
	for n = 0; n < len(pkts); n++ {
		nameLen, ok := encodeSockaddr(&v.names[n], pkts[n].Addr)
		if !ok {
			break
		}
		size, t := len(pkts[n].Buf), -1
		if c.trains && size > 0 && size <= maxSegment {
			name := unsafe.Slice((*byte)(unsafe.Pointer(&v.names[n])), nameLen)
			h := uint32(size)
			for _, b := range name { // FNV-1a
				h = (h ^ uint32(b)) * 16777619
			}
			for j := h; ; j++ {
				slot := &c.index[j%uint32(len(c.index))]
				if *slot == 0 {
					*slot = uint8(msgs + 1) // the new train below
					break
				}
				if o := &c.tr[*slot-1]; o.size == size && o.nameLen == nameLen &&
					string(name) == string(unsafe.Slice((*byte)(unsafe.Pointer(&v.names[o.first])), nameLen)) {
					if (o.n+1)*size <= maxTrainBytes {
						t = int(*slot - 1)
					} else {
						*slot = uint8(msgs + 1) // full: the next train takes its place
					}
					break
				}
			}
		}
		if t < 0 {
			t, msgs = msgs, msgs+1
			c.tr[t] = train{first: n, size: size, nameLen: nameLen}
		}
		c.tr[t].n++
		c.of[n] = t
	}
	off := 0
	for k := range c.tr[:msgs] {
		c.tr[k].off, off = off, off+c.tr[k].n
		c.tr[k].n = 0 // refilled below, as the fill cursor
	}
	for i := 0; i < n; i++ {
		t := &c.tr[c.of[i]]
		setIov(&v.iovs[t.off+t.n], pkts[i].Buf)
		t.n++
	}
	for k, t := range c.tr[:msgs] {
		h := &v.hdrs[k].Hdr
		*h = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&v.names[t.first])),
			Namelen: t.nameLen,
			Iov:     &v.iovs[t.off],
		}
		h.Iovlen = uint64(t.n)
		if t.n > 1 {
			c.ctl[k] = gsoCmsg{hdr: syscall.Cmsghdr{Level: solUDP, Type: udpSegment}, size: uint16(t.size)}
			c.ctl[k].hdr.SetLen(syscall.CmsgLen(2))
			h.Control = (*byte)(unsafe.Pointer(&c.ctl[k]))
			h.SetControllen(int(unsafe.Sizeof(c.ctl[k])))
		}
	}
	return n, msgs
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
