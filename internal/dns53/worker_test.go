package dns53

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/testutil"
)

// hitOrMiss answers "hit." names through the fast path, with a bare
// header + question echo, and everything else through ServeDNS.
type hitOrMiss struct{}

func (hitOrMiss) ServeDNS(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return q.Reply(), nil
}

func (hitOrMiss) AppendResponse(dst []byte, q *dnswire.Message, rawQ []byte) ([]byte, int64, bool) {
	if !strings.HasPrefix(q.Question0().Name, "hit.") {
		return dst, 0, false
	}
	flags := dnswire.Header{QR: true, RD: q.Header.RD}.Flags()
	return append(dnswire.AppendRawHeader(dst, q.Header.ID, flags, 1, 0, 0, 0), rawQ...), -1, true
}

// TestWorkerPoolShutdownDrains exercises the full UDP pipeline — hits
// answered in the receive loop, misses swapped out to goroutines of their
// own — under concurrent load and then shuts down mid-stream: every
// in-flight query must either be answered or dropped cleanly, the loop and
// every miss must finish (the loop's message and every swapped-out one
// released on the way; no leaked goroutines, dns53_udp_misses_in_flight
// back where it was), and post-shutdown ServeUDP must refuse.
func TestWorkerPoolShutdownDrains(t *testing.T) {
	baseline := testutil.GoroutineBaseline()
	inFlight0 := missesInFlight.Value()

	var served sync.WaitGroup
	s := &Server{Handler: hitOrMiss{}}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served.Add(1)
	go func() {
		defer served.Done()
		if err := s.ServeUDP(pc); err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
	}()

	// Hammer the server from several client sockets while it runs, half
	// of them with hits and half with misses.
	var wires [2][]byte
	for i, name := range []string{"hit.example.", "miss.example."} {
		if wires[i], err = dnswire.NewQuery(7, name, dnswire.TypeA).Pack(); err != nil {
			t.Fatal(err)
		}
	}
	answered := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	var clients sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wire, answered := wires[i%2], answered[i%2]
		clients.Add(1)
		go func() {
			defer clients.Done()
			c, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				return
			}
			defer c.Close()
			buf := make([]byte, 512)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.WriteTo(wire, pc.LocalAddr()); err != nil {
					return
				}
				_ = c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				if _, _, err := c.ReadFrom(buf); err == nil {
					select {
					case answered <- struct{}{}:
					default:
					}
				}
			}
		}()
	}

	// Wait for proof both paths work end to end before shutting down.
	for i, path := range []string{"inline", "miss"} {
		select {
		case <-answered[i]:
		case <-time.After(5 * time.Second):
			t.Fatalf("no query answered through the %s path", path)
		}
	}
	s.Shutdown()
	close(stop)
	clients.Wait()
	served.Wait()

	// ServeUDP after shutdown must refuse and close the socket.
	pc2, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ServeUDP(pc2); err == nil {
		t.Error("ServeUDP after Shutdown returned nil error")
	}

	testutil.WaitNoLeaks(t, baseline)
	if n := missesInFlight.Value(); n != inFlight0 || s.udpMisses.Load() != 0 {
		t.Errorf("after Shutdown: %d misses in flight (%d on this server), want %d", n, s.udpMisses.Load(), inFlight0)
	}
}

// TestShutdownIdempotent verifies repeated Shutdown calls return without
// hanging or closing anything twice.
func TestShutdownIdempotent(t *testing.T) {
	s := &Server{Handler: testutil.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return q.Reply(), nil
	})}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = s.ServeUDP(pc)
	}()
	time.Sleep(20 * time.Millisecond)
	s.Shutdown()
	s.Shutdown()
	s.Shutdown()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUDP did not return after Shutdown")
	}
}
