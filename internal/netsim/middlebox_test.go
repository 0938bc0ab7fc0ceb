// The VirtualNet and its middleboxes live in internal/dialer; their
// tests run here, beside the transaction model they complement, as an
// external package that imports no netsim code.
package netsim_test

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dialer"
	"encdns/internal/testutil"
)

// startTLSEcho runs a TLS server on the VirtualNet that echoes one line
// back to each client. It returns the CA the client must trust.
func startTLSEcho(t *testing.T, vn *dialer.VirtualNet, addr, serverName string) *certs.CA {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ca.ServerConfig([]string{serverName}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := vn.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				tc := tls.Server(c, cfg)
				buf := make([]byte, 64)
				n, err := tc.Read(buf)
				if err != nil {
					return
				}
				tc.Write(buf[:n])
			}(conn)
		}
	}()
	return ca
}

// handshake dials addr through the given chain and path and attempts a
// full TLS handshake plus one echo round trip.
func handshake(ctx context.Context, chain []dialer.Spec, path *dialer.PathDialer, ca *certs.CA, serverName, addr string) error {
	raw, err := path.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	raw = dialer.Wrap(ctx, chain, raw)
	defer raw.Close()
	if deadline, ok := ctx.Deadline(); ok {
		raw.SetDeadline(deadline)
	}
	tc := tls.Client(raw, ca.ClientConfig(serverName))
	if err := tc.HandshakeContext(ctx); err != nil {
		return err
	}
	if _, err := tc.Write([]byte("ping")); err != nil {
		return err
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(tc, buf); err != nil {
		return err
	}
	if string(buf) != "ping" {
		return errors.New("echo mismatch")
	}
	return nil
}

func TestRSTOnSNIBlocksPlainAllowsFragmented(t *testing.T) {
	// Cleanups run last-in-first-out: this check runs after the TLS echo
	// server's listener (registered later) has been closed.
	baseline := testutil.GoroutineBaseline()
	t.Cleanup(func() { testutil.WaitNoLeaks(t, baseline) })
	vn := dialer.NewVirtualNet()
	const name, addr = "blocked.test", "192.0.2.53:853"
	ca := startTLSEcho(t, vn, addr, name)
	path := vn.Path(&dialer.RSTOnSNI{Blocked: []string{name}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Plain dial: the whole ClientHello is one segment, the SNI matches,
	// the middlebox resets the connection.
	err := handshake(ctx, nil, path, ca, name, addr)
	if err == nil {
		t.Fatal("plain handshake succeeded through the SNI filter")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("plain failure = %v, want ECONNRESET", err)
	}

	// Same endpoint behind tlsfrag: no single segment carries a
	// parseable ClientHello, the filter never matches, TLS completes.
	chain, err := dialer.ParseSpecs("tlsfrag:sni")
	if err != nil {
		t.Fatal(err)
	}
	if err := handshake(ctx, chain, path, ca, name, addr); err != nil {
		t.Fatalf("tlsfrag handshake failed: %v", err)
	}

	// split evades the same filter: neither half is a complete record.
	chain, _ = dialer.ParseSpecs("split:3")
	if err := handshake(ctx, chain, path, ca, name, addr); err != nil {
		t.Fatalf("split handshake failed: %v", err)
	}
}

func TestDropLargeRecordFirstSegmentOnly(t *testing.T) {
	vn := dialer.NewVirtualNet()
	const name, addr = "resolver.test", "192.0.2.54:853"
	ca := startTLSEcho(t, vn, addr, name)
	// Any realistic ClientHello is far larger than 64 bytes.
	path := vn.Path(&dialer.DropLargeRecord{MaxBytes: 64})

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := handshake(ctx, nil, path, ca, name, addr)
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("plain dial through drop filter = %v, want deadline exceeded (stranded)", err)
	}

	// tlsfrag's first record is small; the second segment is never
	// inspected (first-segment-only DPI), so the handshake completes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	chain, _ := dialer.ParseSpecs("tlsfrag:32")
	if err := handshake(ctx2, chain, path, ca, name, addr); err != nil {
		t.Fatalf("tlsfrag handshake failed: %v", err)
	}
}

func TestBlackholeAndMissingListener(t *testing.T) {
	vn := dialer.NewVirtualNet()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := vn.Path(&dialer.Blackhole{}).DialContext(ctx, "tcp", "192.0.2.1:853"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blackhole dial = %v, want deadline exceeded", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	_, err := vn.Path().DialContext(ctx2, "tcp", "192.0.2.9:853")
	if err == nil || !strings.Contains(err.Error(), "no listener") {
		t.Errorf("missing listener dial = %v", err)
	}
}

func TestMiddleboxNames(t *testing.T) {
	for mb, want := range map[dialer.Middlebox]string{
		&dialer.RSTOnSNI{}:        "rst-on-sni",
		&dialer.DropLargeRecord{}: "drop-large-record",
		&dialer.Blackhole{}:       "blackhole",
	} {
		if got := mb.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}
