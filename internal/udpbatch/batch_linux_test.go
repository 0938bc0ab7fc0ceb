//go:build linux && !nobatch && (amd64 || arm64)

package udpbatch

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"
)

// sameLength is n packets of one length to addr.
func sameLength(n int, addr net.Addr) []Packet {
	pkts := make([]Packet, n)
	for i := range pkts {
		pkts[i] = Packet{Buf: []byte(fmt.Sprintf("train-%02d", i)), Addr: addr}
	}
	return pkts
}

// TestWriteBatchTrainRefused: a socket with UDP checksums off (SO_NO_CHECK)
// refuses UDP_SEGMENT with EINVAL. The refused train's datagrams must still
// arrive, sent one at a time, and later batches go one message per packet.
func TestWriteBatchTrainRefused(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := pc.(*net.UDPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var optErr error
	if err := rc.Control(func(fd uintptr) {
		optErr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || optErr != nil {
		t.Fatalf("SO_NO_CHECK: %v, %v", err, optErr)
	}
	server := NewConn(pc).(*mmsgConn)
	defer server.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !server.trains {
		t.Skip("this kernel has no UDP_SEGMENT")
	}

	segs := writeGSOSegments.Value()
	for round := 0; round < 2; round++ {
		calls := writeSyscalls.Value()
		if sent, err := server.WriteBatch(sameLength(8, client.LocalAddr())); sent != 8 || err != nil {
			t.Fatalf("round %d: WriteBatch = %d, %v; want 8, nil", round, sent, err)
		}
		receive(t, client, 8)
		if server.trains {
			t.Fatalf("round %d: the socket still builds trains after the kernel refused one", round)
		}
		// The refused train, then its eight datagrams alone; after that,
		// one sendmmsg of eight messages.
		if want := []uint64{9, 1}[round]; writeSyscalls.Value()-calls != want {
			t.Errorf("round %d: %d sendmmsg calls, want %d", round, writeSyscalls.Value()-calls, want)
		}
	}
	if writeGSOSegments.Value() != segs {
		t.Error("a refused socket counted GSO segments")
	}
}

// TestWriteBatchTrainToPortZeroKeepsTrains: a train the kernel refuses for
// its peer (port 0, a spoofed source) fails one datagram at a time too,
// and so must not switch trains off for everyone else.
func TestWriteBatchTrainToPortZeroKeepsTrains(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(pc).(*mmsgConn)
	defer server.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !server.trains {
		t.Skip("this kernel has no UDP_SEGMENT")
	}

	sent, err := server.WriteBatch(sameLength(2, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}))
	if sent != 0 || !errors.Is(err, syscall.EINVAL) {
		t.Errorf("WriteBatch to port 0 = %d, %v; want 0, EINVAL", sent, err)
	}
	if !server.trains {
		t.Fatal("a train refused for its peer switched trains off")
	}
	segs := writeGSOSegments.Value()
	if sent, err := server.WriteBatch(sameLength(4, client.LocalAddr())); sent != 4 || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want 4, nil", sent, err)
	}
	receive(t, client, 4)
	if got := writeGSOSegments.Value() - segs; got != 4 {
		t.Errorf("%d GSO segments after the refused peer, want 4", got)
	}
}

// TestWriteBatchTrainLimits: 64 datagrams of 1232 octets to one peer are
// 78 848 octets, more than one send may carry, so they must leave as two
// trains the kernel accepts; datagrams over 1232 octets join none.
func TestWriteBatchTrainLimits(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(pc).(*mmsgConn)
	defer server.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_ = client.(*net.UDPConn).SetReadBuffer(1 << 20)
	if !server.trains {
		t.Skip("this kernel has no UDP_SEGMENT")
	}

	for _, tc := range []struct{ n, size, segs int }{{MaxBatch, maxSegment, MaxBatch}, {4, maxSegment + 1, 0}} {
		pkts := make([]Packet, tc.n)
		for i := range pkts {
			pkts[i] = Packet{Buf: make([]byte, tc.size), Addr: client.LocalAddr()}
		}
		segs := writeGSOSegments.Value()
		if sent, err := server.WriteBatch(pkts); sent != tc.n || err != nil {
			t.Fatalf("%d × %d octets: WriteBatch = %d, %v", tc.n, tc.size, sent, err)
		}
		receive(t, client, tc.n)
		if got := int(writeGSOSegments.Value() - segs); got != tc.segs || !server.trains {
			t.Errorf("%d × %d octets: %d GSO segments, trains %v; want %d, true", tc.n, tc.size, got, server.trains, tc.segs)
		}
	}
}
