package dns53

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// Errors CheckResponse returns.
var (
	ErrIDMismatch       = errors.New("dns53: response ID does not match query")
	ErrNotReply         = errors.New("dns53: response is not a reply")
	ErrQuestionMismatch = errors.New("dns53: response question does not match query")
)

// CheckResponse is the one check every client (Do53 over UDP and TCP, DoT,
// DoH) makes of a parsed response before taking it as the answer to
// query: the query's ID, QR set, and the query's question echoed (RFC 5452
// §9.1) — the name compared regardless of case, the type and the class. A
// response without a question passes only as FORMERR, SERVFAIL, NOTIMP or
// REFUSED, which is how a server answers a question it could not read:
// NOERROR and NXDOMAIN speak about a name, so they must echo it.
func CheckResponse(query, resp *dnswire.Message) error {
	switch {
	case resp.Header.ID != query.Header.ID:
		return ErrIDMismatch
	case !resp.Header.QR:
		return ErrNotReply
	case len(resp.Questions) == 0:
		switch resp.Header.RCode {
		case dnswire.RCodeFormat, dnswire.RCodeServFail, dnswire.RCodeNotImpl, dnswire.RCodeRefused:
			return nil
		}
		return ErrQuestionMismatch
	case len(resp.Questions) != len(query.Questions):
		return ErrQuestionMismatch
	}
	for i, q := range query.Questions {
		r := resp.Questions[i]
		if r.Type != q.Type || r.Class != q.Class || dnswire.CanonicalName(r.Name) != dnswire.CanonicalName(q.Name) {
			return ErrQuestionMismatch
		}
	}
	return nil
}

// Client issues conventional DNS queries over UDP with RFC 1035 §4.2.2 TCP
// fallback on truncation. It makes one attempt per exchange: retry policy
// is transport.WithRetry's, the same for every scheme.
type Client struct {
	// Timeout bounds each individual attempt; zero means 2 seconds.
	Timeout time.Duration
	// Dialer is used for both "udp" and "tcp" connections; nil uses a
	// net.Dialer. Injecting a dialer is how tests and the live prober run
	// the client over in-process transports.
	Dialer ContextDialer
}

// ContextDialer matches net.Dialer's DialContext, the injection point for
// custom transports.
type ContextDialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 2 * time.Second
}

func (c *Client) dialer() ContextDialer {
	if c.Dialer != nil {
		return c.Dialer
	}
	return &net.Dialer{}
}

// NewID returns a cryptographically random message ID. Predictable IDs
// enable off-path spoofing (the cache-poisoning attacks that motivated
// encrypted DNS in the first place).
func NewID() uint16 {
	var b [2]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("dns53: reading random ID: " + err.Error())
	}
	return binary.BigEndian.Uint16(b[:])
}

// Exchange sends query to server ("host:port") over UDP and returns the
// validated response, falling back to TCP when it arrives truncated.
func (c *Client) Exchange(ctx context.Context, query *dnswire.Message, server string) (*dnswire.Message, error) {
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	wire, err := query.AppendPack((*bp)[:0])
	if err != nil {
		return nil, fmt.Errorf("dns53: packing query: %w", err)
	}
	*bp = wire
	resp, err := c.exchangeUDP(ctx, wire, query, server)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if resp.Header.TC {
		return c.ExchangeTCP(ctx, query, server)
	}
	return resp, nil
}

func (c *Client) exchangeUDP(ctx context.Context, wire []byte, query *dnswire.Message, server string) (*dnswire.Message, error) {
	attemptCtx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	dialSp := obs.SpanFromContext(ctx).Start("dial")
	conn, err := c.dialer().DialContext(attemptCtx, "udp", server)
	dialSp.End()
	if err != nil {
		return nil, fmt.Errorf("dns53: dial udp %s: %w", server, err)
	}
	defer conn.Close()
	// Unblock reads on both deadline expiry and caller cancellation.
	stop := context.AfterFunc(attemptCtx, func() { conn.Close() })
	defer stop()
	if d, ok := attemptCtx.Deadline(); ok {
		_ = conn.SetDeadline(d)
	}
	writeSp := obs.SpanFromContext(ctx).Start("write")
	if _, err := conn.Write(wire); err != nil {
		writeSp.End()
		return nil, fmt.Errorf("dns53: send: %w", err)
	}
	writeSp.End()
	readSp := obs.SpanFromContext(ctx).Start("first-byte")
	defer readSp.End()
	bp := bufpool.GetN(64 * 1024)
	defer bufpool.Put(bp)
	buf := *bp
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("dns53: receive: %w", err)
		}
		readSp.End()
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			// Malformed or spoofed datagram; keep waiting for the real one.
			continue
		}
		switch err := CheckResponse(query, resp); err {
		case nil:
			return resp, nil
		case ErrNotReply:
			return nil, err
		}
		// Another question's answer or ID: stale or spoofed, keep waiting.
	}
}

// ExchangeTCP performs one query over a fresh TCP connection.
func (c *Client) ExchangeTCP(ctx context.Context, query *dnswire.Message, server string) (*dnswire.Message, error) {
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	wire, err := query.AppendPack((*bp)[:0])
	if err != nil {
		return nil, fmt.Errorf("dns53: packing query: %w", err)
	}
	*bp = wire
	attemptCtx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	dialSp := obs.SpanFromContext(ctx).Start("dial")
	conn, err := c.dialer().DialContext(attemptCtx, "tcp", server)
	dialSp.End()
	if err != nil {
		return nil, fmt.Errorf("dns53: dial tcp %s: %w", server, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(attemptCtx, func() { conn.Close() })
	defer stop()
	if d, ok := attemptCtx.Deadline(); ok {
		_ = conn.SetDeadline(d)
	}
	exSp := obs.SpanFromContext(ctx).Start("exchange")
	defer exSp.End()
	return ExchangeConn(conn, query, wire)
}

// ExchangeConn performs one length-framed exchange on an established stream
// connection. DoT shares it. wire may be nil, in which case query is packed.
func ExchangeConn(conn net.Conn, query *dnswire.Message, wire []byte) (*dnswire.Message, error) {
	if wire == nil {
		var err error
		if wire, err = query.Pack(); err != nil {
			return nil, fmt.Errorf("dns53: packing query: %w", err)
		}
	}
	if err := WriteTCPMsg(conn, wire); err != nil {
		return nil, fmt.Errorf("dns53: send: %w", err)
	}
	raw, err := ReadTCPMsg(conn)
	if err != nil {
		return nil, fmt.Errorf("dns53: receive: %w", err)
	}
	resp, err := dnswire.Unpack(raw)
	if err != nil {
		return nil, fmt.Errorf("dns53: parsing response: %w", err)
	}
	if err := CheckResponse(query, resp); err != nil {
		return nil, err
	}
	return resp, nil
}
