package dns53_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/transport"
)

// replyConn is a server that answers with whatever it is given: reads
// return in's bytes, then io.EOF, and writes vanish. The embedded Conn is
// nil; an exchange calls only the methods below.
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

// replyDialer hands a udp dial the datagram udp and a tcp dial the stream
// tcp.
type replyDialer struct{ udp, tcp []byte }

func (d replyDialer) DialContext(_ context.Context, network, _ string) (net.Conn, error) {
	if network == "tcp" {
		return &replyConn{in: bytes.NewReader(d.tcp)}, nil
	}
	return &replyConn{in: bytes.NewReader(d.udp)}, nil
}

// FuzzClientResponse drives the Do53 and DoT response parse, through
// transport's attempt routine, with whatever a server might send: a tcp://
// exchange reads data as a TCP or DoT stream (length-framed), a udp://
// one as a UDP datagram, falling back to TCP, where data comes as one
// frame, when it is truncated. Neither may panic or wait once the input
// is exhausted, and a response either returns must answer the query.
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
	noRetry := transport.NoRetry()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tc := range []struct {
			endpoint string
			dialer   replyDialer
		}{
			{"tcp://192.0.2.53:53", replyDialer{tcp: data}},
			{"udp://192.0.2.53:53", replyDialer{udp: data, tcp: frame(data)}},
		} {
			ex, err := transport.Dial(tc.endpoint, transport.Options{Dialer: tc.dialer, Retry: &noRetry})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			resp, err := ex.Exchange(ctx, query)
			waited := ctx.Err() != nil
			cancel()
			if err == nil && dns53.CheckResponse(query, resp) != nil {
				t.Fatalf("%s: accepted %v", tc.endpoint, resp)
			}
			if waited {
				t.Fatalf("%s: waited for more than the input", tc.endpoint)
			}
		}
	})
}
