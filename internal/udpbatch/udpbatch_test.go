package udpbatch

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// wrapPC hides the concrete *net.UDPConn so NewConn takes the portable
// fallback even on fast-path builds.
type wrapPC struct{ net.PacketConn }

func makePkts(n, size int) []Packet {
	pkts := make([]Packet, n)
	for i := range pkts {
		pkts[i].Buf = make([]byte, size)
	}
	return pkts
}

// resetPkts restores every buffer to full capacity before a ReadBatch.
func resetPkts(pkts []Packet) {
	for i := range pkts {
		pkts[i].Buf = pkts[i].Buf[:cap(pkts[i].Buf)]
		pkts[i].Addr = nil
	}
}

// echoRoundTrip drives conn as a server: nSend datagrams in from a plain
// client socket, batched reads, batched echo, client receive-and-verify.
func echoRoundTrip(t *testing.T, conn Conn, nSend int) {
	t.Helper()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for i := 0; i < nSend; i++ {
		if _, err := client.WriteTo([]byte(fmt.Sprintf("ping-%03d", i)), conn.LocalAddr()); err != nil {
			t.Fatalf("client send %d: %v", i, err)
		}
	}

	pkts := makePkts(8, 2048)
	received := 0
	deadline := time.Now().Add(5 * time.Second)
	for received < nSend {
		if time.Now().After(deadline) {
			t.Fatalf("server received %d/%d datagrams before timeout", received, nSend)
		}
		resetPkts(pkts)
		n, err := conn.ReadBatch(pkts)
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
		if n == 0 {
			t.Fatal("ReadBatch returned 0 without error")
		}
		for i := 0; i < n; i++ {
			if pkts[i].Addr == nil {
				t.Fatal("ReadBatch left Addr nil")
			}
		}
		if sent, err := conn.WriteBatch(pkts[:n]); err != nil || sent != n {
			t.Fatalf("WriteBatch = %d, %v, want %d", sent, err, n)
		}
		received += n
	}

	got := map[string]bool{}
	buf := make([]byte, 2048)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(got) < nSend {
		n, _, err := client.ReadFrom(buf)
		if err != nil {
			t.Fatalf("client echo read after %d/%d: %v", len(got), nSend, err)
		}
		got[string(buf[:n])] = true
	}
	for i := 0; i < nSend; i++ {
		if !got[fmt.Sprintf("ping-%03d", i)] {
			t.Errorf("echo missing ping-%03d", i)
		}
	}
}

func TestFastPathRoundTrip(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(pc)
	defer c.Close()
	if runtime.GOOS == "linux" {
		if _, ok := c.(*fallbackConn); ok && fastPathExpected {
			t.Error("expected mmsg fast path for *net.UDPConn on linux")
		}
	}
	echoRoundTrip(t, c, 20)
}

func TestFallbackRoundTrip(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(wrapPC{pc})
	defer c.Close()
	if _, ok := c.(*fallbackConn); !ok {
		t.Fatal("wrapped PacketConn should use the portable fallback")
	}
	echoRoundTrip(t, c, 20)
}

func TestWriteBatchLargerThanMax(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(pc)
	defer server.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const total = MaxBatch*2 + 7 // forces internal chunking
	pkts := make([]Packet, total)
	for i := range pkts {
		pkts[i].Buf = []byte(fmt.Sprintf("bulk-%03d", i))
		pkts[i].Addr = client.LocalAddr()
	}
	if sent, err := server.WriteBatch(pkts); err != nil || sent != total {
		t.Fatalf("WriteBatch = %d, %v, want %d", sent, err, total)
	}
	buf := make([]byte, 256)
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < total; i++ {
		if _, _, err := client.ReadFrom(buf); err != nil {
			t.Fatalf("client read %d/%d: %v", i, total, err)
		}
	}
}

func TestReadBatchAfterClose(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(pc)
	done := make(chan error, 1)
	go func() {
		pkts := makePkts(4, 1024)
		_, err := c.ReadBatch(pkts)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("ReadBatch returned nil error after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadBatch did not unblock on Close")
	}
}

// TestConcurrentWriteBatch is the Conn contract dns53 relies on: the
// receive loop and every worker write to one socket at once. Run with
// -race; every datagram of every writer must arrive intact.
func TestConcurrentWriteBatch(t *testing.T) {
	for name, wrap := range map[string]func(net.PacketConn) net.PacketConn{
		"default":  func(pc net.PacketConn) net.PacketConn { return pc },
		"fallback": func(pc net.PacketConn) net.PacketConn { return wrapPC{pc} },
	} {
		t.Run(name, func(t *testing.T) {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			server := NewConn(wrap(pc))
			defer server.Close()
			client, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			const writers, rounds, perBatch = 4, 8, 5
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					pkts := make([]Packet, perBatch)
					for r := 0; r < rounds; r++ {
						for i := range pkts {
							pkts[i] = Packet{Buf: []byte(fmt.Sprintf("w%d-r%d-p%d", w, r, i)), Addr: client.LocalAddr()}
						}
						if sent, err := server.WriteBatch(pkts); err != nil || sent != perBatch {
							t.Errorf("writer %d: WriteBatch = %d, %v", w, sent, err)
							return
						}
					}
				}()
			}
			got := map[string]bool{}
			buf := make([]byte, 64)
			_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
			for len(got) < writers*rounds*perBatch {
				n, _, err := client.ReadFrom(buf)
				if err != nil {
					t.Fatalf("after %d datagrams: %v", len(got), err)
				}
				got[string(buf[:n])] = true
			}
			wg.Wait()
			for w := 0; w < writers; w++ {
				for r := 0; r < rounds; r++ {
					for i := 0; i < perBatch; i++ {
						if want := fmt.Sprintf("w%d-r%d-p%d", w, r, i); !got[want] {
							t.Errorf("missing or mangled datagram %s", want)
						}
					}
				}
			}
		})
	}
}

// TestReadBatchReusesAddrs pins the Packet.Addr contract on the default
// conn: a read and a write back allocate nothing once warm, an address
// kept across the next ReadBatch may change under the caller, and
// CloneAddr's copy does not.
func TestReadBatchReusesAddrs(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(pc)
	defer server.Close()
	var clients [2]net.PacketConn
	for i := range clients {
		if clients[i], err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	pkts := makePkts(4, 512)
	readFrom := func(c net.PacketConn) net.Addr {
		if _, err := c.WriteTo([]byte("x"), server.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		resetPkts(pkts)
		if n, err := server.ReadBatch(pkts); err != nil || n != 1 {
			t.Fatalf("ReadBatch = %d, %v", n, err)
		}
		return pkts[0].Addr
	}

	first := readFrom(clients[0])
	kept := CloneAddr(first)
	if kept.String() != clients[0].LocalAddr().String() {
		t.Fatalf("clone %v, want %v", kept, clients[0].LocalAddr())
	}
	second := readFrom(clients[1])
	if second.String() != clients[1].LocalAddr().String() {
		t.Errorf("second peer %v, want %v", second, clients[1].LocalAddr())
	}
	if kept.String() != clients[0].LocalAddr().String() {
		t.Errorf("clone changed to %v after the next ReadBatch", kept)
	}
	if fastPathExpected {
		if first != second {
			t.Error("fast path did not reuse the slot's address")
		}
		const runs = 20
		for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
			if _, err := clients[0].WriteTo([]byte("x"), server.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		one := pkts[:1]
		if allocs := testing.AllocsPerRun(runs, func() {
			resetPkts(one)
			if n, err := server.ReadBatch(one); err != nil || n != 1 {
				t.Fatalf("ReadBatch = %d, %v", n, err)
			}
			if n, err := server.WriteBatch(one); err != nil || n != 1 { // echo to the reused address
				t.Fatalf("WriteBatch = %d, %v", n, err)
			}
		}); allocs != 0 {
			t.Errorf("a ReadBatch and a WriteBatch allocated %v times, want 0", allocs)
		}
		// Grouping a batch into trains allocates nothing either.
		batch := make([]Packet, 32)
		for i := range batch {
			batch[i] = Packet{Buf: make([]byte, 40+100*(i%3)), Addr: clients[1].LocalAddr()}
		}
		if allocs := testing.AllocsPerRun(runs, func() {
			if n, err := server.WriteBatch(batch); err != nil || n != len(batch) {
				t.Fatalf("WriteBatch = %d, %v", n, err)
			}
		}); allocs != 0 {
			t.Errorf("a 32-packet, three-length WriteBatch allocated %v times, want 0", allocs)
		}
	}
}

// TestWriteBatchSkipsRejectedPacket: one destination the socket refuses
// must cost only its own packet, not the answers batched behind it for
// other peers: port 0, which a spoofed query can carry as its source and
// the kernel rejects, and addresses no UDP socket can send to — none, as
// a read of an unknown address family leaves it, or another kind.
func TestWriteBatchSkipsRejectedPacket(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  net.Addr
	}{
		{"port 0", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}},
		{"nil", nil},
		{"IPAddr", &net.IPAddr{IP: net.IPv4(127, 0, 0, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			server := NewConn(pc)
			defer server.Close()
			client, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			pkts := []Packet{
				{Buf: []byte("one"), Addr: client.LocalAddr()},
				{Buf: []byte("lost"), Addr: tc.bad},
				{Buf: []byte("two"), Addr: client.LocalAddr()},
				{Buf: []byte("three"), Addr: client.LocalAddr()},
			}
			sent, err := server.WriteBatch(pkts)
			if sent != 3 || err == nil {
				t.Errorf("WriteBatch = %d, %v; want 3 sent and the rejected packet's error", sent, err)
			}
			buf := make([]byte, 16)
			_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
			for _, want := range []string{"one", "two", "three"} {
				n, _, err := client.ReadFrom(buf)
				if err != nil || string(buf[:n]) != want {
					t.Fatalf("client read %q, %v; want %q", buf[:n], err, want)
				}
			}
		})
	}
}

// TestWriteBatchEmptyDatagram: an empty packet is an empty datagram, on
// its own and between packets that share a peer and a length.
func TestWriteBatchEmptyDatagram(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewConn(pc)
	defer server.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	to := client.LocalAddr()
	pkts := []Packet{{Buf: []byte{}, Addr: to}, {Buf: []byte("a"), Addr: to}, {Buf: nil, Addr: to}, {Buf: []byte("b"), Addr: to}}
	if sent, err := server.WriteBatch(pkts); sent != len(pkts) || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, len(pkts))
	}
	got := receive(t, client, len(pkts))
	sort.Strings(got)
	if want := []string{"", "", "a", "b"}; !slices.Equal(got, want) {
		t.Errorf("received %q, want %q", got, want)
	}
}

// receive reads n datagrams from c and returns their payloads in arrival
// order.
func receive(t *testing.T, c net.PacketConn, n int) []string {
	t.Helper()
	buf := make([]byte, 2048)
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]string, 0, n)
	for len(got) < n {
		m, _, err := c.ReadFrom(buf)
		if err != nil {
			t.Fatalf("read after %d/%d datagrams: %v", len(got), n, err)
		}
		got = append(got, string(buf[:m]))
	}
	return got
}

// TestWriteBatchTrainsMatchOnePerPacket sends one batch through the default
// conn (GSO trains on the fast path) and through the portable one datagram
// per send adapter: two peers, three lengths, one packet too large for a
// train and a port-0 peer in the middle. Both must deliver the same
// datagrams to the same peers and report the same count and error, and the
// default conn must keep batch order among the packets of one peer and one
// length.
func TestWriteBatchTrainsMatchOnePerPacket(t *testing.T) {
	type result struct {
		sent int
		err  error
		got  [2][]string
	}
	run := func(onePerPacket bool) result {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		server := NewConn(pc)
		if onePerPacket {
			server = NewConn(wrapPC{pc})
		}
		defer server.Close()
		var peers [2]net.PacketConn
		for i := range peers {
			if peers[i], err = net.ListenPacket("udp", "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer peers[i].Close()
		}
		var pkts []Packet
		want := [2]int{}
		for i := 0; i < 30; i++ {
			p, size := i%2, []int{40, 300, 900}[i%3]
			if i == 13 {
				size = 1400
			}
			buf := []byte(fmt.Sprintf("%d/%d/%02d-", p, size, i))
			pkts = append(pkts, Packet{Buf: append(buf, make([]byte, size-len(buf))...), Addr: peers[p].LocalAddr()})
			want[p]++
			if i == 15 {
				pkts = append(pkts, Packet{Buf: []byte("lost"), Addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}})
			}
		}
		segs := writeGSOSegments.Value()
		var r result
		r.sent, r.err = server.WriteBatch(pkts)
		if fastPathExpected && !onePerPacket && writeGSOSegments.Value() == segs {
			t.Error("the fast path sent no GSO train")
		}
		for p := range peers {
			r.got[p] = receive(t, peers[p], want[p])
		}
		return r
	}
	trains, one := run(false), run(true)

	var errno syscall.Errno
	if !errors.As(one.err, &errno) || !errors.Is(trains.err, errno) || trains.sent != one.sent {
		t.Errorf("trains: WriteBatch = %d, %v; one per packet: %d, %v", trains.sent, trains.err, one.sent, one.err)
	}
	for p := range trains.got {
		last := map[string]string{} // peer/length prefix → last payload seen
		for _, s := range trains.got[p] {
			key := s[:strings.LastIndexByte(s[:strings.IndexByte(s, '-')], '/')]
			if prev, ok := last[key]; ok && prev > s {
				t.Errorf("peer %d: %.12q arrived after %.12q", p, s, prev)
			}
			last[key] = s
		}
		a, b := slices.Clone(trains.got[p]), slices.Clone(one.got[p])
		sort.Strings(a)
		sort.Strings(b)
		if !slices.Equal(a, b) {
			t.Errorf("peer %d: trains delivered %d datagrams, one per packet %d, or their payloads differ", p, len(a), len(b))
		}
	}
}

// BenchmarkWriteBatch sends a 32-packet batch of three answer lengths over
// loopback: to one peer (three trains on the fast path) and to 32 peers
// (every train a single packet, the traffic of many stub resolvers).
func BenchmarkWriteBatch(b *testing.B) {
	for _, peers := range []int{1, 32} {
		name := "one-peer"
		if peers > 1 {
			name = "distinct-peers"
		}
		b.Run(name, func(b *testing.B) {
			pc, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			server := NewConn(pc)
			defer server.Close()
			pkts := make([]Packet, 32)
			for i := range pkts {
				if i < peers {
					client, err := net.ListenPacket("udp", "127.0.0.1:0")
					if err != nil {
						b.Fatal(err)
					}
					defer client.Close()
					pkts[i].Addr = client.LocalAddr()
				} else {
					pkts[i].Addr = pkts[i%peers].Addr
				}
				pkts[i].Buf = make([]byte, []int{44, 60, 76}[i%3])
			}
			b.ReportAllocs()
			for b.Loop() {
				if n, err := server.WriteBatch(pkts); n != len(pkts) || err != nil {
					b.Fatalf("WriteBatch = %d, %v", n, err)
				}
			}
		})
	}
}
