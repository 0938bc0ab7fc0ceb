package dns53

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/dnswire"
)

// replyConn is a server that answers with whatever it is given: reads
// return in's bytes, then io.EOF, and writes vanish. The embedded Conn is
// nil; the clients call only the methods below.
type replyConn struct {
	net.Conn
	in *bytes.Reader
}

func (c *replyConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *replyConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replyConn) Close() error                     { return nil }
func (c *replyConn) SetDeadline(time.Time) error      { return nil }
func (c *replyConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replyConn) SetWriteDeadline(time.Time) error { return nil }

// replyDialer hands the UDP client a datagram of data and, for the TCP
// fallback after a truncated answer, a stream carrying data as one frame.
type replyDialer struct{ data []byte }

func (d replyDialer) DialContext(_ context.Context, network, _ string) (net.Conn, error) {
	if network == "tcp" {
		return &replyConn{in: bytes.NewReader(append(binary.BigEndian.AppendUint16(nil, uint16(len(d.data))), d.data...))}, nil
	}
	return &replyConn{in: bytes.NewReader(d.data)}, nil
}

// FuzzClientResponse drives the Do53 and DoT clients' response parse with
// whatever a server might send: ExchangeConn reads data as a TCP or DoT
// stream (length-framed), Client.Exchange as a UDP datagram, falling back
// to TCP when it is truncated. Neither may panic or wait once the input is
// exhausted, and a response either returns must answer the query.
func FuzzClientResponse(f *testing.F) {
	query := dnswire.NewQuery(0x4242, "example.com.", dnswire.TypeA)
	reply := query.Reply()
	reply.Answers = []dnswire.Record{{Name: "example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
		Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	answer, err := reply.Pack()
	if err != nil {
		f.Fatal(err)
	}
	reply.Header.TC = true
	truncated, err := reply.Pack()
	if err != nil {
		f.Fatal(err)
	}
	frame := func(msg []byte) []byte { return append(binary.BigEndian.AppendUint16(nil, uint16(len(msg))), msg...) }
	f.Add(answer)
	f.Add(frame(answer))
	f.Add(truncated)
	f.Add(append(frame(answer), frame(truncated)...))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(path string, resp *dnswire.Message, err error) {
			if err == nil && CheckResponse(query, resp) != nil {
				t.Fatalf("%s: accepted %v", path, resp)
			}
		}
		resp, err := ExchangeConn(&replyConn{in: bytes.NewReader(data)}, query, nil)
		check("stream", resp, err)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		resp, err = (&Client{Dialer: replyDialer{data}}).Exchange(ctx, query, "192.0.2.53:53")
		check("udp", resp, err)
		if ctx.Err() != nil {
			t.Fatal("the UDP client waited for more than the input")
		}
	})
}
