package dns53

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"encdns/internal/dnswire"
)

// This file is the one place a parsed query becomes response bytes. Every
// frontend — Do53 UDP and TCP, DoT, DoH GET and POST — goes through it,
// so the resolver work behind each transport is the same by
// construction. It has two halves because the loops that own a socket
// must not block: AppendInline never does, appendMiss may for as long as
// the handler's upstreams take. Both append to the caller's buffer (a
// message may start at any offset, e.g. behind a stream length prefix) and
// both end in the same seal: the OPT echo and the cut to limit. What stays
// with the frontend is where a declined query's miss half runs (a
// goroutine of its own, in line after a flush, the HTTP goroutine) and the
// limit it passes.
//
// Where the miss half runs depends on the handler, not the frontend: for
// one that answers from memory (InMemory) the miss cannot block either, so
// AppendInline runs it too and the loop that read the query answers it in
// the same batch, write or TLS record as its hits: a goroutine hand-off
// and a write of its own cost such a miss as much CPU as ServeDNS does
// (EXPERIMENTS.md, "In-memory misses in the loop").

// UnpackQuery parses raw into m as a server parses what it receives: as
// m.Unpack does, and a message with QR set is an error too. A server that
// answered responses would loop with another on one spoofed packet, so
// every frontend treats a response as it treats a malformed query.
func UnpackQuery(m *dnswire.Message, raw []byte) error {
	if err := m.Unpack(raw); err != nil {
		return err
	}
	if m.Header.QR {
		return errResponse
	}
	return nil
}

var errResponse = errors.New("dns53: message is a response (QR set), not a query")

// Answer appends the response to query onto dst: AppendInline when it
// answers, else the blocking miss half. raw is the query as received;
// limit is the largest message the client accepts. A response always comes
// back — err only says why it is a SERVFAIL (see appendMiss). minTTL is
// the minimum answer TTL in seconds, -1 when the response carries no
// answers.
func Answer(ctx context.Context, h Handler, dst []byte, query *dnswire.Message, raw []byte, limit int) (out []byte, minTTL int64, err error) {
	out, minTTL, ok, err := AppendInline(ctx, h, dst, query, raw, limit)
	if ok {
		return out, minTTL, err
	}
	return appendMiss(ctx, h, dst, query, limit)
}

// AppendInline is the non-blocking half. Four shapes no handler is asked
// about come first: an EDNS version other than 0 is answered BADVERS (RFC
// 6891 §6.1.3), an opcode other than QUERY NOTIMP (RFC 1035 §4.1.1), a
// question count other than one FORMERR, and a class other than IN or ANY
// REFUSED (authdns.Zone's rule; the handlers keep their own checks). Then
// the handler's ResponseAppender fast path, when
// it has one and the query's question can be echoed verbatim; else — for
// an InMemory handler — the miss half in line, with its panic containment,
// SERVFAIL and truncation, reported in err as appendMiss reports it.
// ok=false means the query was declined and nothing was appended or
// counted, so the caller runs the miss half with no state to undo. It is
// exported for the loops that own a connection outside this package (DoH's
// HTTP/2 loop), whose miss half is Answer on another goroutine.
func AppendInline(ctx context.Context, h Handler, dst []byte, query *dnswire.Message, raw []byte, limit int) (out []byte, minTTL int64, ok bool, err error) {
	if rcode, refused := refuse(query); refused {
		return appendRCode(dst, query, rcode, limit), -1, true, nil
	}
	if ra, isRA := h.(ResponseAppender); isRA {
		if rawQ, echoable := dnswire.QuestionBytes(raw); echoable {
			if out, minTTL, ok = ra.AppendResponse(dst, query, rawQ); ok {
				out, minTTL = seal(out, len(dst), query, 0, limit, minTTL)
				return out, minTTL, true, nil
			}
		}
	}
	if !inMemory(h) {
		return dst, 0, false, nil
	}
	out, minTTL, err = appendMiss(ctx, h, dst, query, limit)
	return out, minTTL, true, err
}

// appendMiss is the blocking half: ServeDNS under panic containment, then
// pack. A handler error, panic, nil response or a response that does not
// pack is answered SERVFAIL and reported in err; out is a complete
// response either way.
func appendMiss(ctx context.Context, h Handler, dst []byte, query *dnswire.Message, limit int) (out []byte, minTTL int64, err error) {
	resp, err := ServeContained(ctx, h, query)
	if err == nil {
		if out, err = resp.AppendPack(dst); err != nil {
			err = fmt.Errorf("packing response: %w", err)
		}
	}
	if err != nil {
		return appendRCode(dst, query, dnswire.RCodeServFail, limit), -1, err
	}
	// RFC 8484 §5.1 wants the smallest answer TTL; OPT's TTL field is flags.
	minTTL = -1
	for _, rr := range resp.Answers {
		if rr.Type != dnswire.TypeOPT && (minTTL < 0 || int64(rr.TTL) < minTTL) {
			minTTL = int64(rr.TTL)
		}
	}
	out, minTTL = seal(out, len(dst), query, 0, limit, minTTL)
	return out, minTTL, nil
}

// refuse reports the RCODE for a query AppendInline answers without its
// handler: an EDNS version we do not speak, not a QUERY, not exactly one
// question, or a class the resolvers hold no data for.
func refuse(query *dnswire.Message) (dnswire.RCode, bool) {
	if opt, edns := query.EDNS(); edns && opt.Version != 0 {
		return dnswire.RCodeBadVers, true
	}
	switch {
	case query.Header.Opcode != dnswire.OpcodeQuery:
		return dnswire.RCodeNotImpl, true
	case len(query.Questions) != 1:
		return dnswire.RCodeFormat, true
	case query.Questions[0].Class != dnswire.ClassIN && query.Questions[0].Class != dnswire.ClassANY:
		return dnswire.RCodeRefused, true
	}
	return 0, false
}

// appendRCode appends query's reply with rcode and no records: ID, opcode,
// RD and question echoed, sealed like any answer. The header carries
// rcode's low four bits, the OPT the rest.
func appendRCode(dst []byte, query *dnswire.Message, rcode dnswire.RCode, limit int) []byte {
	resp := query.Reply()
	resp.Header.RCode = rcode
	out, err := resp.AppendPack(dst)
	if err != nil {
		// A question that parsed but does not pack: answer without it.
		out = dnswire.AppendRawHeader(dst, query.Header.ID, resp.Header.Flags(), 0, 0, 0, 0)
	}
	out, _ = seal(out, len(dst), query, uint8(rcode>>4), limit, -1)
	return out
}

// optLen is the size of the OPT record seal appends.
const optLen = 11

// seal ends the response out[at:] to query. When the query carried an OPT
// the response gets one too, last (RFC 6891 §7): root owner, CLASS our
// payload size, extended RCODE ext (the bits of the RCODE above the
// header's four), version 0, the query's DO bit (RFC 3225 §3), no
// options. It counts against limit, and an answer over limit is cut (see
// truncate) with the OPT kept and minTTL turned to -1.
func seal(out []byte, at int, query *dnswire.Message, ext uint8, limit int, minTTL int64) ([]byte, int64) {
	opt, edns := query.EDNS()
	size := len(out) - at
	if edns {
		size += optLen
	}
	if size > limit {
		out, minTTL = truncate(out, at), -1
	}
	if !edns {
		return out, minTTL
	}
	var do byte
	if opt.DO {
		do = 0x80
	}
	arcount := out[at+10:]
	binary.BigEndian.PutUint16(arcount, binary.BigEndian.Uint16(arcount)+1)
	// Root owner, TYPE, CLASS, TTL (extended RCODE, version, DO and Z),
	// RDLENGTH.
	return append(out, 0, 0, byte(dnswire.TypeOPT), dnswire.MaxEDNSSize>>8, dnswire.MaxEDNSSize&0xFF,
		ext, 0, do, 0, 0, 0), minTTL
}

// ServeContained runs ServeDNS and turns a panic or a nil response into
// an error, so one bad query costs its sender a SERVFAIL and nobody else
// anything. It is the miss half up to the message; the one caller outside
// is DoH's JSON API, which renders the message instead of packing it.
func ServeContained(ctx context.Context, h Handler, query *dnswire.Message) (resp *dnswire.Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("handler panic: %v", r)
		}
	}()
	resp, err = h.ServeDNS(ctx, query)
	if err == nil && resp == nil {
		err = errors.New("handler returned no response")
	}
	return resp, err
}

// truncate cuts the over-limit packed message out[at:] back to header and
// question with TC set and the other section counts zeroed (RFC 1035
// §4.1.1; the client retries over a stream), which also leaves it without
// a minimum answer TTL. It works on the bytes so both halves share it: a
// hit has no Message to re-pack. When the question cannot be delimited —
// not exactly one, or a compressed name — the header alone is kept.
func truncate(out []byte, at int) []byte {
	msg := out[at:]
	qlen := 0
	if q, ok := dnswire.QuestionBytes(msg); ok {
		qlen = len(q)
	} else {
		binary.BigEndian.PutUint16(msg[4:], 0) // QDCOUNT
	}
	return out[:at+len(dnswire.TruncateToQuestion(msg, qlen))]
}
