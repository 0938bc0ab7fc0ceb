package doh

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync/atomic"

	"encdns/internal/bufpool"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
)

// This file is what a Client from NewClient with reuse off runs per query:
// one connection, one TLS handshake, one request and its response, all on
// the calling goroutine, as dot.Client dials. net/http would spend a
// handshake goroutine, a read-loop goroutine and a write per frame on a
// connection it uses once. Dialer, TLS configuration and session cache,
// ALPN (h2, else http/1.1) and httptrace hooks are the ones net/http used;
// HTTP/2 goes through h2.go's constants and HPACK decoder.

// ProtocolError reports an HTTP/2 response the server broke off or that
// breaks RFC 9113: a GOAWAY that leaves the request unanswered, a
// RST_STREAM on it, a malformed frame. Like net/http's errors for the
// same events, it classifies as a failure to connect.
type ProtocolError struct {
	Reason string
	Code   uint32 // the RFC 9113 §7 error code sent, or the one that applies
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("doh: HTTP/2 %s (error code %d)", e.Reason, e.Code)
}

var errH2Protocol = &ProtocolError{Reason: "protocol violation by the server", Code: uint32(codeProtocol)}

// freshWindow is the flow-control window granted, per stream and per
// connection: one octet over a DNS message, so that an oversized response
// shows itself rather than stalls. Nothing is ever returned as window.
const freshWindow = dnswire.MaxMessageSize + 1

// h2FreshStart follows the client preface: SETTINGS (no push, freshWindow)
// and the WINDOW_UPDATE that takes the connection's window there.
var h2FreshStart = []byte{
	0, 0, 12, frameSettings, 0, 0, 0, 0, 0,
	0, settingEnablePush, 0, 0, 0, 0,
	0, settingInitialWindowSize, 0, freshWindow >> 16, freshWindow >> 8 & 0xff, freshWindow & 0xff,
	0, 0, 4, frameWindowUpdate, 0, 0, 0, 0, 0,
	0, 0, 0, freshWindow - h2InitialWindow,
}

var h2SettingsAck = []byte{0, 0, 0, frameSettings, flagAck, 0, 0, 0, 0}

// h1MaxResponse bounds an HTTP/1.1 response on the wire: header fields,
// chunk framing and a body of at most one DNS message.
const h1MaxResponse = 128 << 10

// freshConfig is the fresh-connection half of a Client.
type freshConfig struct {
	tls    *tls.Config // NewClient's clone: ALPN and the session cache
	dialer dns53.ContextDialer
	last   atomic.Pointer[freshTarget] // a client mostly asks one endpoint
}

// freshTarget is an endpoint parsed for exchanges.
type freshTarget struct {
	endpoint string
	url      *url.URL
	addr     string      // host:port to dial
	tls      *tls.Config // freshConfig.tls, or a clone naming the host as net/http did
}

func (o *freshConfig) target(endpoint string) (*freshTarget, error) {
	if t := o.last.Load(); t != nil && t.endpoint == endpoint {
		return t, nil
	}
	u, err := url.Parse(endpoint)
	if err == nil && (u.Scheme != "https" || u.Host == "") {
		err = errors.New("a fresh-connection client needs an https URL")
	}
	if err != nil {
		return nil, fmt.Errorf("doh: endpoint %q: %w", endpoint, err)
	}
	port := u.Port()
	if port == "" {
		port = "443"
	}
	t := &freshTarget{endpoint: endpoint, url: u, addr: net.JoinHostPort(u.Hostname(), port), tls: o.tls}
	if t.tls.ServerName == "" {
		t.tls = o.tls.Clone()
		t.tls.ServerName = u.Hostname()
	}
	o.last.Store(t)
	return t, nil
}

// exchangeFresh runs one query, packed in wire, on a connection of its
// own. An error once ctx is done is ctx's.
func (c *Client) exchangeFresh(ctx context.Context, wire []byte, query *dnswire.Message, endpoint string) (_ *dnswire.Message, err error) {
	t, err := c.fresh.target(endpoint)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil && ctx.Err() != nil {
			err = fmt.Errorf("doh: request: %w", ctx.Err())
		}
	}()
	// ConnectStart and ConnectDone are the net package's to call, as under
	// net/http; the other hooks are called here.
	raw, err := c.fresh.dialer.DialContext(ctx, "tcp", t.addr)
	if err != nil {
		return nil, fmt.Errorf("doh: dial %s: %w", t.addr, err)
	}
	deadline, _ := ctx.Deadline() // Exchange always sets one
	_ = raw.SetDeadline(deadline)
	// Cancellation closes the connection, failing whatever waits on it.
	// Stopped here, before the caller's cancel, it costs no goroutine.
	stop := context.AfterFunc(ctx, func() { _ = raw.Close() })
	conn := tls.Client(raw, t.tls)
	defer func() {
		stop()
		_ = conn.Close()
	}()
	trace := httptrace.ContextClientTrace(ctx) // never nil: Exchange installs withClientTrace's
	if trace.TLSHandshakeStart != nil {
		trace.TLSHandshakeStart()
	}
	var state tls.ConnectionState
	if err = conn.Handshake(); err == nil {
		state = conn.ConnectionState()
	}
	if trace.TLSHandshakeDone != nil {
		trace.TLSHandshakeDone(state, err)
	}
	if err != nil {
		return nil, fmt.Errorf("doh: TLS handshake with %s: %w", t.addr, err)
	}
	if trace.GotConn != nil {
		trace.GotConn(httptrace.GotConnInfo{Conn: conn})
	}

	path := t.url.RequestURI()
	if c.Method == MethodGET {
		path = withDNSParam(*t.url, wire).RequestURI()
	}
	outp, inp := bufpool.Get(), bufpool.Get()
	defer func() {
		bufpool.Put(outp)
		bufpool.Put(inp)
	}()
	h2 := state.NegotiatedProtocol == "h2"
	if h2 { // the read buffer is the header block's scratch until the write
		*outp, *inp = c.appendH2Request((*outp)[:0], (*inp)[:0], t.url.Host, path, wire)
	} else {
		*outp = c.appendH1Request((*outp)[:0], t.url.Host, path, wire)
	}
	_, err = conn.Write(*outp)
	if trace.WroteRequest != nil {
		trace.WroteRequest(httptrace.WroteRequestInfo{Err: err})
	}
	if err != nil {
		return nil, fmt.Errorf("doh: writing request: %w", err)
	}
	return readResponse(conn, h2, query, trace, inp, outp)
}

// appendH2Request appends the client preface, SETTINGS, WINDOW_UPDATE,
// HEADERS and, for a POST, DATA: the request in one write. The header
// block, built in block, needs no table: :method and :scheme indexed, the
// rest literals under static-table names (RFC 7541 Appendix A).
func (c *Client) appendH2Request(out, block []byte, authority, path string, wire []byte) ([]byte, []byte) {
	post := c.Method != MethodGET
	method := byte(0x82) // GET; POST is 0x83
	if post {
		method = 0x83
	}
	block = append(block, method, 0x87) // :scheme https
	block = appendNamedField(appendNamedField(block, 1, authority), 4, path)
	block = appendNamedField(block, 19, ContentType) // accept
	if post {
		block = appendNamedField(block, 31, ContentType)              // content-type
		block = appendDecimalField(block, 0x0d, "", int64(len(wire))) // content-length
	}
	if c.UserAgent != "" {
		block = appendNamedField(block, 58, c.UserAgent)
	}
	out = appendHeaders(append(append(out, h2ClientPreface...), h2FreshStart...), !post, 1, block)
	for post && len(wire) > 0 {
		n := min(len(wire), h2MaxFrame)
		var flags byte
		if n == len(wire) {
			flags = flagEndStream
		}
		out = append(appendFrameHeader(out, n, frameData, flags, 1), wire[:n]...)
		wire = wire[n:]
	}
	return out, block
}

func (c *Client) appendH1Request(out []byte, host, path string, wire []byte) []byte {
	method, body := "POST", wire
	if c.Method == MethodGET {
		method, body = "GET", nil
	}
	out = fmt.Appendf(out, "%s %s HTTP/1.1\r\nHost: %s\r\nAccept: %s\r\nConnection: close\r\n", method, path, host, ContentType)
	if c.UserAgent != "" {
		out = fmt.Appendf(out, "User-Agent: %s\r\n", c.UserAgent)
	}
	if body != nil {
		out = fmt.Appendf(out, "Content-Type: %s\r\nContent-Length: %d\r\n", ContentType, len(body))
	}
	return append(append(out, "\r\n"...), body...)
}

// appendNamedField appends a literal header field without indexing whose
// name is static-table entry index (RFC 7541 §6.2.2).
func appendNamedField(block []byte, index int, value string) []byte {
	if index < 15 {
		block = append(block, byte(index))
	} else {
		block = append(block, 0x0f, byte(index-15))
	}
	return append(appendHpackInt(block, len(value)), value...)
}

// readResponse reads the response to the request written on rw, over
// HTTP/2 or HTTP/1.1, and returns the DNS message it carries once it has
// passed the checks every DoH response passes: status 200, a body no
// longer than a DNS message, a message that parses and answers query. It
// writes only the SETTINGS and PING acknowledgements HTTP/2 obliges it to.
// in and body are scratch buffers, grown to at most a frame and a message.
func readResponse(rw io.ReadWriter, h2 bool, query *dnswire.Message, trace *httptrace.ClientTrace, in, body *[]byte) (*dnswire.Message, error) {
	var status int
	var err error
	if h2 {
		r := h2Reader{rw: rw, trace: trace, in: (*in)[:cap(*in)], body: (*body)[:0]}
		status, err = r.read()
		*in, *body = r.in, r.body
	} else {
		status, *body, err = readH1(rw, (*body)[:0], trace)
	}
	if err != nil {
		return nil, bodyErr(err)
	}
	if status != http.StatusOK {
		return nil, &HTTPError{StatusCode: status, Status: fmt.Sprintf("%d %s", status, http.StatusText(status))}
	}
	return unpackResponse(*body, query)
}

// readH1 reads an HTTP/1.1 response's final status and, for a 200, its
// body. Interim responses are skipped, five at most, as net/http skips them.
func readH1(r io.Reader, body []byte, trace *httptrace.ClientTrace) (int, []byte, error) {
	br := bufio.NewReader(io.LimitReader(r, h1MaxResponse))
	if _, err := br.Peek(1); err != nil {
		return 0, body, err
	}
	if trace.GotFirstResponseByte != nil {
		trace.GotFirstResponseByte()
	}
	for interim := 0; interim <= 5; interim++ {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return 0, body, err
		}
		if code := resp.StatusCode; code == http.StatusOK {
			body, err = readAllInto(body, resp.Body, dnswire.MaxMessageSize)
			return code, body, err
		} else if code < 100 || code > 199 || code == http.StatusSwitchingProtocols {
			return code, body, nil
		}
	}
	return 0, body, errors.New("doh: too many 1xx informational responses")
}

// h2Reader reads the response on stream 1 of a connection it owns.
type h2Reader struct {
	rw          io.ReadWriter
	trace       *httptrace.ClientTrace
	in, body    []byte // read buffer, response body
	dec         hpackDecoder
	block, list []byte // the header block arriving, the last one decoded
	status      int    // of the final response; 0 until its header block is in
	settled     bool   // the server's SETTINGS has arrived (RFC 9113 §3.4)
	inBlock     bool   // a header block awaits CONTINUATION
	blockEnd    bool   // the HEADERS frame that began it ends the stream
	firstByte   bool
	goAway      bool // the server said GOAWAY; stream 1 is still its to answer
	done        bool // stream 1 has ended
}

// read returns the final status when the response has ended, or as soon
// as it is known not to be 200.
func (h *h2Reader) read() (int, error) {
	h.dec.maxSize = hpackTableSize
	r, w := 0, 0 // h.in[r:w] is read and not yet handled
	for {
		for w-r >= h2FrameHeaderLen {
			end := r + h2FrameHeaderLen + (int(h.in[r])<<16 | int(h.in[r+1])<<8 | int(h.in[r+2]))
			if end-r > h2FrameHeaderLen+h2MaxFrame {
				return 0, &ProtocolError{Reason: "frame over SETTINGS_MAX_FRAME_SIZE", Code: uint32(codeFrameSize)}
			} else if end > w {
				break
			}
			id := binary.BigEndian.Uint32(h.in[r+5:]) &^ (1 << 31)
			if err := h.frame(h.in[r+3], h.in[r+4], id, h.in[r+h2FrameHeaderLen:end]); err != nil {
				return 0, err
			}
			if h.done || h.status != 0 && h.status != http.StatusOK {
				return h.status, nil
			}
			r = end
		}
		// What is left is at most one partial frame; make room for all of it.
		w, r = copy(h.in, h.in[r:w]), 0
		if need := h2FrameHeaderLen + (int(h.in[0])<<16 | int(h.in[1])<<8 | int(h.in[2])); w >= h2FrameHeaderLen && need > len(h.in) {
			h.in = append(h.in[:w], make([]byte, need-w)...)
		}
		n, err := h.rw.Read(h.in[w:])
		if w += n; n == 0 && err != nil {
			if err == io.EOF && h.goAway {
				return 0, &ProtocolError{Reason: "GOAWAY, then the connection closed before the response"}
			} else if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
	}
}

// frame handles one frame. Frames of types it does not act on, and of
// streams other than 0 and 1, are ignored unless they break the protocol.
func (h *h2Reader) frame(typ, flags byte, id uint32, p []byte) error {
	if h.inBlock && (typ != frameContinuation || id != 1) {
		return errH2Protocol // RFC 9113 §6.10: nothing interleaves with a header block
	}
	if !h.settled && (typ != frameSettings || flags&flagAck != 0) {
		return errH2Protocol
	}
	h.settled = true
	var ok bool
	switch typ {
	case frameData:
		if p, ok = unpad(flags, p); !ok || id != 1 || h.status == 0 {
			return errH2Protocol
		}
		if len(h.body)+len(p) > dnswire.MaxMessageSize {
			return errBodyTooLarge
		}
		h.body, h.done = append(h.body, p...), flags&flagEndStream != 0
	case frameHeaders:
		if p, ok = unpad(flags, p); ok && flags&flagPriority != 0 {
			ok, p = len(p) >= 5, p[min(5, len(p)):]
		}
		if !ok || id != 1 {
			return errH2Protocol
		}
		h.inBlock, h.blockEnd, h.block = true, flags&flagEndStream != 0, h.block[:0]
		fallthrough // p is the block's first fragment
	case frameContinuation:
		if !h.inBlock || len(h.block)+len(p) > h2MaxHeaderList {
			return errH2Protocol
		}
		if h.block = append(h.block, p...); flags&flagEndHeaders != 0 {
			return h.headerBlock()
		}
	case frameRSTStream:
		if id == 0 || len(p) != 4 {
			return errH2Protocol
		} else if id == 1 {
			return &ProtocolError{Reason: "RST_STREAM on the request", Code: binary.BigEndian.Uint32(p)}
		}
	case frameSettings, framePing:
		if id != 0 || typ == frameSettings && len(p)%6 != 0 || typ == framePing && len(p) != 8 {
			return errH2Protocol
		}
		if flags&flagAck == 0 {
			ack := h2SettingsAck
			if typ == framePing {
				ack = append(appendFrameHeader(make([]byte, 0, 17), 8, framePing, flagAck, 0), p...)
			}
			_, err := h.rw.Write(ack)
			return err
		}
	case frameGoAway:
		if id != 0 || len(p) < 8 {
			return errH2Protocol
		} else if binary.BigEndian.Uint32(p)&^(1<<31) == 0 {
			return &ProtocolError{Reason: "GOAWAY before the request", Code: binary.BigEndian.Uint32(p[4:])}
		}
		h.goAway = true
	case framePushPromise:
		return errH2Protocol // push is off
	}
	return nil
}

// headerBlock handles a complete header block on stream 1: an interim
// response, the final one, or trailers, which end the stream and are
// otherwise ignored.
func (h *h2Reader) headerBlock() error {
	if h.inBlock = false; !h.firstByte && h.trace.GotFirstResponseByte != nil {
		h.trace.GotFirstResponseByte()
	}
	h.firstByte = true
	// Decoded whatever it is: the dynamic table follows the server's.
	list, tooLarge, err := h.dec.decode(h.list[:0], h.block, h2MaxHeaderList)
	if h.list = list; err != nil || tooLarge || h.status != 0 && !h.blockEnd {
		return errH2Protocol
	} else if h.status != 0 {
		h.done = true
		return nil
	}
	status := int64(0)
	for len(list) > 0 {
		var name, value []byte
		if name, value, list = nextField(list); string(name) == ":status" && len(value) == 3 {
			status, _ = parseContentLength(value) // three digits
		}
	}
	switch {
	case status < 100 || status < 200 && h.blockEnd: // interim responses do not end the stream
		return errH2Protocol
	case status >= 200:
		h.status, h.done = int(status), h.blockEnd
	}
	return nil
}
