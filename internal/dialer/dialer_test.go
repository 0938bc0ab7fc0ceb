package dialer

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// sinkConn is a net.Conn that records every Write as a separate segment,
// the way a per-segment middlebox would see the stream.
type sinkConn struct {
	net.Conn
	segments [][]byte
}

func (c *sinkConn) Write(b []byte) (int, error) {
	c.segments = append(c.segments, append([]byte(nil), b...))
	return len(b), nil
}

func (c *sinkConn) Close() error                       { return nil }
func (c *sinkConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *sinkConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// wrap parses chain and wraps a fresh sinkConn in its layers.
func wrap(t *testing.T, chain string) (net.Conn, *sinkConn) {
	t.Helper()
	specs, err := ParseSpecs(chain)
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkConn{}
	return Wrap(context.Background(), specs, sink), sink
}

func TestSplitDialerFirstWrite(t *testing.T) {
	conn, sink := wrap(t, "split:3")
	if n, err := conn.Write([]byte("hello world")); err != nil || n != 11 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if _, err := conn.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	got := sink.segments
	if len(got) != 3 {
		t.Fatalf("segments = %d, want 3 (%q)", len(got), got)
	}
	if string(got[0]) != "hel" || string(got[1]) != "lo world" || string(got[2]) != "after" {
		t.Errorf("segments = %q", got)
	}
}

func TestSplitDialerShortFirstWrite(t *testing.T) {
	conn, sink := wrap(t, "split:10")
	conn.Write([]byte("hi"))
	conn.Write([]byte("much longer second write"))
	if got := sink.segments; len(got) != 2 {
		t.Fatalf("short first write must not split later writes: %q", got)
	}
}

func TestDelayDialerSleepHook(t *testing.T) {
	var slept []time.Duration
	sleep = func(_ context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}
	t.Cleanup(func() { sleep = realSleep })
	conn, _ := wrap(t, "delay:40ms")
	conn.Write([]byte("a"))
	conn.Write([]byte("b"))
	if len(slept) != 1 || slept[0] != 40*time.Millisecond {
		t.Errorf("first-write delay slept %v, want one 40ms sleep", slept)
	}

	slept = nil
	conn, _ = wrap(t, "delay:1ms:every")
	conn.Write([]byte("a"))
	conn.Write([]byte("b"))
	conn.Write([]byte("c"))
	if len(slept) != 3 {
		t.Errorf("looped delay slept %d times, want 3", len(slept))
	}
}

// clientHello builds a minimal but structurally valid ClientHello record
// carrying the given SNI.
func clientHello(sni string) []byte {
	ext := make([]byte, 0, 16)
	// server_name extension: list length, type host_name, name length, name.
	name := []byte(sni)
	snList := make([]byte, 0, 5+len(name))
	snList = binary.BigEndian.AppendUint16(snList, uint16(3+len(name)))
	snList = append(snList, 0)
	snList = binary.BigEndian.AppendUint16(snList, uint16(len(name)))
	snList = append(snList, name...)
	ext = binary.BigEndian.AppendUint16(ext, extServerName)
	ext = binary.BigEndian.AppendUint16(ext, uint16(len(snList)))
	ext = append(ext, snList...)

	body := make([]byte, 0, 128)
	body = append(body, 0x03, 0x03)          // client_version
	body = append(body, make([]byte, 32)...) // random
	body = append(body, 0)                   // session id (empty)
	body = binary.BigEndian.AppendUint16(body, 2)
	body = append(body, 0x13, 0x01) // one cipher suite
	body = append(body, 1, 0)       // null compression
	body = binary.BigEndian.AppendUint16(body, uint16(len(ext)))
	body = append(body, ext...)

	hs := make([]byte, 0, 4+len(body))
	hs = append(hs, handshakeClientHello, byte(len(body)>>16), byte(len(body)>>8), byte(len(body)))
	hs = append(hs, body...)

	rec := make([]byte, 0, recordHeaderLen+len(hs))
	rec = append(rec, recordTypeHandshake, 0x03, 0x01)
	rec = binary.BigEndian.AppendUint16(rec, uint16(len(hs)))
	rec = append(rec, hs...)
	return rec
}

func TestParseSNI(t *testing.T) {
	ch := clientHello("blocked.test")
	sni, ok := parseSNI(ch)
	if !ok || sni != "blocked.test" {
		t.Fatalf("parseSNI = %q, %v", sni, ok)
	}
	if _, ok := parseSNI(ch[:len(ch)-1]); ok {
		t.Error("truncated record must not parse")
	}
	if _, ok := parseSNI([]byte("GET / HTTP/1.1\r\n")); ok {
		t.Error("non-TLS bytes must not parse")
	}
	if n, ok := firstRecordLen(ch); !ok || n != len(ch) {
		t.Errorf("firstRecordLen = %d, %v; want %d", n, ok, len(ch))
	}
}

func TestTLSFragDefeatsSegmentSNI(t *testing.T) {
	ch := clientHello("blocked.test")
	conn, sink := wrap(t, "tlsfrag:sni")
	if _, err := conn.Write(ch); err != nil {
		t.Fatal(err)
	}
	segs := sink.segments
	if len(segs) != 2 {
		t.Fatalf("fragmented ClientHello wrote %d segments, want 2", len(segs))
	}
	for i, seg := range segs {
		if sni, ok := parseSNI(seg); ok {
			t.Errorf("segment %d still leaks SNI %q", i, sni)
		}
		if strings.Contains(string(seg), "blocked.test") {
			t.Errorf("segment %d contains the full hostname bytes", i)
		}
	}
	// The two records must reassemble to the original handshake payload
	// (what a compliant TLS peer does per RFC 8446 §5.1).
	var reassembled []byte
	stream := append(append([]byte(nil), segs[0]...), segs[1]...)
	for len(stream) > 0 {
		if stream[0] != recordTypeHandshake || len(stream) < recordHeaderLen {
			t.Fatalf("invalid record framing in output")
		}
		n := int(binary.BigEndian.Uint16(stream[3:5]))
		reassembled = append(reassembled, stream[recordHeaderLen:recordHeaderLen+n]...)
		stream = stream[recordHeaderLen+n:]
	}
	if string(reassembled) != string(ch[recordHeaderLen:]) {
		t.Error("reassembled handshake differs from the original ClientHello")
	}
}

func TestTLSFragPassthroughNonTLS(t *testing.T) {
	conn, sink := wrap(t, "tlsfrag:sni")
	conn.Write([]byte("GET / HTTP/1.1\r\n"))
	if got := sink.segments; len(got) != 1 || string(got[0]) != "GET / HTTP/1.1\r\n" {
		t.Errorf("non-TLS first write must pass through unchanged: %q", got)
	}
}

func TestTLSFragBuffersPartialWrites(t *testing.T) {
	ch := clientHello("blocked.test")
	conn, sink := wrap(t, "tlsfrag:sni")
	// Feed the record in three pieces; nothing may hit the wire early.
	for _, piece := range [][]byte{ch[:2], ch[2:10], ch[10:]} {
		if _, err := conn.Write(piece); err != nil {
			t.Fatal(err)
		}
	}
	if len(sink.segments) != 2 {
		t.Fatalf("segments = %d, want 2 after full record arrives", len(sink.segments))
	}
}

func TestLayerErrorInnermostWins(t *testing.T) {
	base := errors.New("boom")
	err := layerErr("split", layerErr("tlsfrag", base))
	var le *LayerError
	if !errors.As(err, &le) || le.Layer != "tlsfrag" {
		t.Errorf("layer of %v, want innermost tlsfrag", err)
	}
	if !errors.Is(err, base) {
		t.Error("unwrap chain broken")
	}
}

func TestParseSpecs(t *testing.T) {
	cases := []struct {
		in      string
		want    string // FormatSpecs round-trip, "" means error expected
		wantErr bool
	}{
		{in: "", want: ""},
		{in: "split:3", want: "split:3"},
		{in: "tlsfrag:sni", want: "tlsfrag:sni"},
		{in: "tlsfrag:42", want: "tlsfrag:42"},
		{in: "delay:50ms", want: "delay:50ms"},
		{in: "delay:50ms:every", want: "delay:50ms:every"},
		{in: "split:3|tlsfrag:sni|delay:1s", want: "split:3|tlsfrag:sni|delay:1s"},
		{in: " split:3 | tlsfrag:sni ", want: "split:3|tlsfrag:sni"},
		{in: "split", wantErr: true},
		{in: "split:0", wantErr: true},
		{in: "split:-1", wantErr: true},
		{in: "tlsfrag", wantErr: true},
		{in: "tlsfrag:mid", wantErr: true},
		{in: "delay:fast", wantErr: true},
		{in: "delay:1s:sometimes", wantErr: true},
		{in: "teleport:9", wantErr: true},
		{in: "split:3||tlsfrag:sni", wantErr: true},
	}
	for _, tc := range cases {
		specs, err := ParseSpecs(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSpecs(%q): want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpecs(%q): %v", tc.in, err)
			continue
		}
		if got := FormatSpecs(specs); got != tc.want {
			t.Errorf("round-trip %q = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestBuildStreamLayerOrder(t *testing.T) {
	conn, sink := wrap(t, "split:2|tlsfrag:sni")
	// Leftmost layer is nearest the wire: tlsfrag must be outermost so
	// the ClientHello is fragmented first and split cuts the fragments.
	frag, ok := conn.(*fragConn)
	if !ok {
		t.Fatalf("outermost = %T, want *fragConn", conn)
	}
	if _, ok := frag.Conn.(*splitConn); !ok {
		t.Fatalf("inner = %T, want *splitConn", frag.Conn)
	}

	// End to end: one ClientHello becomes three wire segments — two
	// records, the first cut after 2 bytes.
	if _, err := conn.Write(clientHello("blocked.test")); err != nil {
		t.Fatal(err)
	}
	segs := sink.segments
	if len(segs) != 3 {
		t.Fatalf("segments = %d, want 3 (%d-byte head)", len(segs), len(segs[0]))
	}
	if len(segs[0]) != 2 {
		t.Errorf("first segment = %d bytes, want 2", len(segs[0]))
	}
}
