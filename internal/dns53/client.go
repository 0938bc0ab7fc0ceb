package dns53

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"

	"encdns/internal/bufpool"
	"encdns/internal/dnswire"
)

// Errors CheckResponse returns.
var (
	ErrIDMismatch       = errors.New("dns53: response ID does not match query")
	ErrNotReply         = errors.New("dns53: response is not a reply")
	ErrQuestionMismatch = errors.New("dns53: response question does not match query")
)

// CheckResponse is the one check every exchange (Do53 over UDP and TCP,
// DoT, DoH) makes of a parsed response before taking it as the answer to
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

// ExchangeUDP sends wire, the packed query, on conn, a connected UDP
// socket, and reads datagrams until one answers query (CheckResponse). A
// datagram that does not parse, or that carries another ID or question, is
// stale or spoofed and passed over; one that is no reply ends the exchange.
// The caller bounds it with conn's deadline.
func ExchangeUDP(conn net.Conn, query *dnswire.Message, wire []byte) (*dnswire.Message, error) {
	if _, err := conn.Write(wire); err != nil {
		return nil, fmt.Errorf("dns53: send: %w", err)
	}
	bp := bufpool.GetN(64 * 1024)
	defer bufpool.Put(bp)
	buf := *bp
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, fmt.Errorf("dns53: receive: %w", err)
		}
		resp, err := dnswire.Unpack(buf[:n])
		if err != nil {
			continue
		}
		switch err := CheckResponse(query, resp); err {
		case nil:
			return resp, nil
		case ErrNotReply:
			return nil, err
		}
	}
}

// ExchangeConn performs one length-framed exchange on an established
// stream connection, TCP or DoT: wire, the packed query, goes out as one
// frame and the next frame comes back parsed. Whether it answers the query
// is the caller's to check (CheckResponse).
func ExchangeConn(conn net.Conn, wire []byte) (*dnswire.Message, error) {
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
	return resp, nil
}
