package doh

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"encdns/internal/bufpool"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/obs"
)

// This file is an HTTP/2 server connection (RFC 9113) built for one job:
// answering DoH cache hits where the bytes arrive. It is the loop
// dns53.Server runs on TCP and DoT connections, with HTTP/2 framing in
// place of the two-octet length prefix: one Read into a buffer the
// connection owns, every complete frame in it handled in order, every
// answer appended to an output buffer the connection owns, one Write — one
// TLS record — for the burst. net/http's own HTTP/2 server spends a
// goroutine per stream and a write per frame; on a cache hit that is 50
// times what the resolver costs (EXPERIMENTS.md, "Run-to-completion DoH").
//
// Only RFC 8484 requests that dns53.AppendInline takes — cache hits, and
// every query when the resolver answers from memory — are answered in the
// loop. Every other request — a miss that may block on an upstream, the
// JSON dialect, another path, method or media type — becomes an
// *http.Request for the handler net/http would have served it with, on a
// goroutine of its own.

// HTTP/2 constants: frame types, flags, error codes, settings (RFC 9113
// §6, §7).
const (
	frameData         = 0x0
	frameHeaders      = 0x1
	framePriority     = 0x2
	frameRSTStream    = 0x3
	frameSettings     = 0x4
	framePushPromise  = 0x5
	framePing         = 0x6
	frameGoAway       = 0x7
	frameWindowUpdate = 0x8
	frameContinuation = 0x9

	flagEndStream  = 0x1 // DATA, HEADERS
	flagAck        = 0x1 // SETTINGS, PING
	flagEndHeaders = 0x4
	flagPadded     = 0x8
	flagPriority   = 0x20

	settingEnablePush        = 0x2
	settingMaxStreams        = 0x3
	settingInitialWindowSize = 0x4
	settingMaxFrameSize      = 0x5
	settingMaxHeaderListSize = 0x6
)

// h2Code is an RFC 9113 §7 error code. A frame handler returns the code
// of a connection error — GOAWAY with it, then close — and codeNoError
// to go on.
type h2Code uint32

const (
	codeNoError         h2Code = 0x0
	codeProtocol        h2Code = 0x1
	codeInternal        h2Code = 0x2
	codeFlowControl     h2Code = 0x3
	codeFrameSize       h2Code = 0x6
	codeRefusedStream   h2Code = 0x7
	codeCompression     h2Code = 0x9
	codeEnhanceYourCalm h2Code = 0xb
)

const (
	h2ClientPreface       = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"
	h2FrameHeaderLen      = 9
	h2InitialWindow       = 65535 // every window, in both directions, until told otherwise
	h2MaxWindow           = 1<<31 - 1
	h2MaxFrame            = 16384 // SETTINGS_MAX_FRAME_SIZE stays at its default both ways
	h2DefaultWriteTimeout = 10 * time.Second
)

// Limits the loop imposes on a peer.
const (
	// h2MaxStreams is the advertised SETTINGS_MAX_CONCURRENT_STREAMS. It
	// counts what a stream costs here — a buffered body, a handler
	// goroutine, a response waiting for window — so a stream the peer has
	// reset still counts until its handler has returned, and resetting
	// streams as fast as they are opened (CVE-2023-44487) buys nothing.
	h2MaxStreams = 250
	// h2MaxHeaderList is the advertised SETTINGS_MAX_HEADER_LIST_SIZE,
	// enforced on the decoded list (431) and on the undecoded fragments of
	// a block spread over CONTINUATION frames (connection error).
	h2MaxHeaderList = 16 << 10
	// h2MaxBuffered bounds, separately, the request bodies a connection
	// holds and the response bytes it holds for want of flow-control window.
	h2MaxBuffered = 1 << 20
	// h2FlushAt is the pending output that forces a write: the plaintext of
	// one full TLS record, as in dns53's stream loop.
	h2FlushAt = 16 << 10
)

// The loop's instruments, the counterparts of dns53_stream_*: requests per
// write is what the peer had in flight per read, the inline share is the
// cache hit ratio as this frontend sees it (every request, behind a
// resolver that answers from memory).
var (
	h2Reads = obs.Default().Counter("doh_h2_reads_total",
		"Read calls issued by DoH HTTP/2 connection loops.")
	h2Writes = obs.Default().Counter("doh_h2_writes_total",
		"Write calls issued by DoH HTTP/2 connections, one per burst of responses.")
	h2Inline = obs.Default().Counter("doh_h2_requests_total",
		"Requests on DoH HTTP/2 connections, by where they were answered.", "path", "inline")
	h2Fallback = obs.Default().Counter("doh_h2_requests_total",
		"Requests on DoH HTTP/2 connections, by where they were answered.", "path", "fallback")
)

// h2ServerPreface is the first thing written: SETTINGS with the two values
// that differ from their defaults.
var h2ServerPreface = []byte{
	0, 0, 12, frameSettings, 0, 0, 0, 0, 0,
	0, settingMaxStreams, 0, 0, 0, h2MaxStreams,
	0, settingMaxHeaderListSize, 0, 0, h2MaxHeaderList >> 8, 0,
}

// h2InlineHeaders starts the header block of every inline response:
// ":status: 200" indexed, then "content-type: application/dns-message" as a
// literal under its static-table name. No field of a response enters a
// dynamic table, so a block depends on nothing sent before it and
// responses can be written in any order by any goroutine.
var h2InlineHeaders = append([]byte{0x88, 0x0f, 0x10, byte(len(ContentType))}, ContentType...)

// The stages of a stream that is held in h2Conn.streams.
const (
	stNew     = iota // not in the table: answered in the call that opened it
	stBody           // request body arriving
	stHandler        // handed to the fallback handler
	stSend           // response body waiting for flow-control window
)

// h2Stream is one request. Streams are recycled per connection with their
// buffers, so a connection in steady state allocates none.
type h2Stream struct {
	id     uint32
	state  uint8
	inline bool // an RFC 8484 request on DefaultPath: try the non-blocking half first
	head   bool // HEAD: the response carries no body
	// peerDone: END_STREAM seen. A response that ends first is followed by
	// RST_STREAM(NO_ERROR) so the peer stops sending (RFC 9113 §8.1).
	peerDone bool
	// reset: the peer reset the stream while its handler ran; the handler
	// still reads body, so the stream stays until it returns.
	reset      bool
	declared   int64  // content-length; -1 when absent
	received   int64  // body octets so far
	unacked    int    // of them, not yet returned as stream window
	sendWindow int64  // what the peer lets this stream send
	hdr        []byte // the request's header list, flat (see hpack.go)
	dns        []byte // the dns= parameter of an inline GET; aliases hdr
	body       []byte // request body; in stSend the response body
	sent       int    // of the response body
	cancel     context.CancelFunc
}

// h2Conn is one connection. Only the read loop uses the second group of
// fields; the third it shares with the fallback goroutines under mu, which
// the loop holds whenever it is not blocked in Read — so a frame is
// handled, and a burst of frames answered, with no other goroutine in
// between.
type h2Conn struct {
	h            *Handler
	conn         net.Conn
	fallback     http.Handler
	idle         time.Duration // read deadline; zero for none
	writeTimeout time.Duration
	logf         func(format string, args ...any)
	ctx          context.Context // parent of every request's context
	wg           sync.WaitGroup  // fallback goroutines

	dec       hpackDecoder
	query     *dnswire.Message
	wire      []byte // base64-decoded GET query
	answer    []byte // the response answerInline appended
	date      []byte // the encoded date field of inline responses, good for second dateSec
	dateSec   int64
	settled   bool   // the peer's first SETTINGS has arrived
	lastID    uint32 // highest stream the peer has opened
	contID    uint32 // stream whose header block awaits CONTINUATION; 0 for none
	contFlags byte   // flags of the HEADERS frame that began it
	block     []byte // fragments of that block so far

	mu          sync.Mutex
	out         []byte      // pending output
	hblock      []byte      // scratch: the header block of the response being sent
	streams     []*h2Stream // every stream not in stNew
	free        []*h2Stream
	sendWindow  int64 // connection-level, what the peer lets us send
	peerInitial int64 // the peer's SETTINGS_INITIAL_WINDOW_SIZE
	recvCredit  int   // DATA octets received and not yet returned as connection window
	buffered    int   // request body octets held, bounded by h2MaxBuffered
	pending     int   // response body octets held in stSend, bounded likewise
	closed      bool  // the loop has ended or a write failed: write nothing more
	// now is the clock as last read, after a Read or at a flush: it dates
	// inline responses, and the next flush counts the gets and posts
	// answered inline since over the interval it starts.
	now         time.Time
	gets, posts uint64
}

// ServeH2 serves one HTTP/2 connection and returns when it has ended. It
// has the signature of an http.Server.TLSNextProto entry, which is how it
// is installed (under "h2"): net/http keeps the listener, the handshake,
// ALPN, HTTP/1.1 and Close, and hands over connections that negotiated
// HTTP/2. RFC 8484 GETs and POSTs to DefaultPath — h must be what fallback
// serves there — that the resolver can answer without blocking are
// answered in the connection's read loop, all that one Read delivered in
// one Write. Every other request is served by fallback, as net/http's own
// HTTP/2 server would have served it, on its own goroutine. Idle
// connections are closed after srv.IdleTimeout (else srv.ReadTimeout).
func (h *Handler) ServeH2(srv *http.Server, conn *tls.Conn, fallback http.Handler) {
	idle := srv.IdleTimeout
	if idle == 0 {
		idle = srv.ReadTimeout
	}
	logf := log.Printf
	if srv.ErrorLog != nil {
		logf = srv.ErrorLog.Printf
	}
	h.serveH2(conn, fallback, idle, logf)
}

func (h *Handler) serveH2(conn net.Conn, fallback http.Handler, idle time.Duration, logf func(string, ...any)) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &h2Conn{
		h: h, conn: conn, fallback: fallback, idle: idle, writeTimeout: idle, logf: logf, ctx: ctx,
		dec:        hpackDecoder{maxSize: hpackTableSize},
		query:      dnswire.AcquireMessage(),
		sendWindow: h2InitialWindow, peerInitial: h2InitialWindow,
	}
	if c.writeTimeout == 0 {
		c.writeTimeout = h2DefaultWriteTimeout
	}
	inp, outp := bufpool.Get(), bufpool.Get()
	c.out = (*outp)[:0]
	c.mu.Lock()
	*inp = c.readLoop((*inp)[:cap(*inp)])
	// Nothing is written from here on. Closing the connection and
	// cancelling the requests' contexts is what lets handlers blocked on
	// either return; the buffers they may still read go back only then.
	c.closed = true
	*outp = c.out
	c.mu.Unlock()
	conn.Close()
	cancel()
	c.wg.Wait()
	dnswire.ReleaseMessage(c.query)
	bufpool.Put(inp)
	bufpool.Put(outp)
}

// readLoop is the connection: read, handle every complete frame, write
// once, repeat. It is entered and left holding c.mu and returns the read
// buffer, which may have grown.
func (c *h2Conn) readLoop(in []byte) []byte {
	c.out = append(c.out, h2ServerPreface...) // sent before the first Read: a client may wait for it
	r, w := 0, 0                              // in[r:w] is read and not yet handled
	prefaced := false
	for {
		if !prefaced && w-r >= len(h2ClientPreface) {
			if string(in[r:r+len(h2ClientPreface)]) != h2ClientPreface {
				return in // not HTTP/2: there is nobody to send GOAWAY to
			}
			r += len(h2ClientPreface)
			prefaced = true
		}
		for prefaced && w-r >= h2FrameHeaderLen {
			length := int(in[r])<<16 | int(in[r+1])<<8 | int(in[r+2])
			end := r + h2FrameHeaderLen + length
			code := codeFrameSize
			if length <= h2MaxFrame {
				if end > w {
					break
				}
				id := binary.BigEndian.Uint32(in[r+5:]) &^ (1 << 31)
				code = c.frame(in[r+3], in[r+4], id, in[r+h2FrameHeaderLen:end])
			}
			if code != codeNoError {
				c.out = appendFrameHeader(c.out, 8, frameGoAway, 0, 0)
				c.out = binary.BigEndian.AppendUint32(c.out, c.lastID)
				c.out = binary.BigEndian.AppendUint32(c.out, uint32(code))
				c.flush()
				return in
			}
			r = end
		}
		// What is left is at most one partial frame: move it to the front
		// and grow the buffer when its header says it cannot fit.
		w, r = copy(in, in[r:w]), 0
		if w >= h2FrameHeaderLen && prefaced {
			if need := h2FrameHeaderLen + (int(in[0])<<16 | int(in[1])<<8 | int(in[2])); need > len(in) {
				in = append(in[:w], make([]byte, need-w)...)
			}
		}
		if !c.flush() {
			return in
		}
		now := c.now
		c.mu.Unlock()
		n, err := c.read(in[w:], now)
		c.mu.Lock()
		if err != nil || c.closed {
			return in
		}
		c.now = time.Now()
		w += n
	}
}

// read is one Read under the idle deadline, which runs from now. The
// deadline passing with a handler still running is not idleness: net/http
// would not have closed the connection either.
func (c *h2Conn) read(p []byte, now time.Time) (int, error) {
	for ; ; now = time.Now() {
		if c.idle > 0 {
			_ = c.conn.SetReadDeadline(now.Add(c.idle)) // a conn without deadlines just has none
		}
		h2Reads.Inc()
		n, err := c.conn.Read(p)
		if n > 0 {
			return n, nil
		}
		var ne net.Error
		if err == nil || errors.As(err, &ne) && ne.Timeout() && c.handlerRunning() {
			continue
		}
		return 0, err
	}
}

func (c *h2Conn) handlerRunning() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.streams {
		if st.state == stHandler && !st.reset {
			return true
		}
	}
	return false
}

// flush reads the clock once to count the requests answered inline since
// c.now, before the write, and to date the write deadline under which
// pending output, if any, leaves in one Write (a peer that stops reading
// costs the connection, not a goroutine). After a failed write the
// connection is closed, which ends the read loop.
func (c *h2Conn) flush() bool {
	now := time.Now()
	if k := c.gets + c.posts; k > 0 {
		serverRequestsGET.Add(c.gets)
		serverRequestsPOST.Add(c.posts)
		serverLatency.ObserveN(now.Sub(c.now).Seconds()/float64(k), k)
		c.gets, c.posts = 0, 0
	}
	c.now = now
	if len(c.out) > 0 && !c.closed {
		_ = c.conn.SetWriteDeadline(now.Add(c.writeTimeout))
		h2Writes.Inc()
		if _, err := c.conn.Write(c.out); err != nil {
			c.closed = true
			c.conn.Close()
		}
	}
	c.out = c.out[:0]
	return !c.closed
}

func (c *h2Conn) flushIfFull() {
	if len(c.out) >= h2FlushAt {
		c.flush()
	}
}

func appendFrameHeader(dst []byte, length int, typ, flags byte, id uint32) []byte {
	return append(dst, byte(length>>16), byte(length>>8), byte(length), typ, flags,
		byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

// appendHeaders appends a header block as a HEADERS frame, which carries
// END_STREAM when endStream is set, and as many CONTINUATION frames as a
// block over one frame needs (RFC 9113 §6.10).
func appendHeaders(dst []byte, endStream bool, id uint32, block []byte) []byte {
	var flags byte
	if endStream {
		flags = flagEndStream
	}
	for typ := byte(frameHeaders); ; typ, flags = frameContinuation, 0 {
		n := min(len(block), h2MaxFrame)
		if n == len(block) {
			flags |= flagEndHeaders
		}
		dst = append(appendFrameHeader(dst, n, typ, flags, id), block[:n]...)
		if block = block[n:]; len(block) == 0 {
			return dst
		}
	}
}

// frame handles one frame. What is wrong with one stream only is answered
// with RST_STREAM here; the code returned is for the connection.
func (c *h2Conn) frame(typ, flags byte, id uint32, p []byte) h2Code {
	if c.contID != 0 && typ != frameContinuation {
		return codeProtocol // RFC 9113 §6.10: nothing may interleave with a header block
	}
	if !c.settled { // RFC 9113 §3.4: the client preface ends in a SETTINGS frame
		if typ != frameSettings || flags&flagAck != 0 {
			return codeProtocol
		}
		c.settled = true
	}
	switch typ {
	case frameData:
		return c.data(flags, id, p)
	case frameHeaders:
		if id == 0 || id%2 == 0 {
			return codeProtocol
		}
		p, ok := unpad(flags, p)
		if !ok {
			return codeProtocol
		}
		if flags&flagPriority != 0 {
			if len(p) < 5 {
				return codeFrameSize
			}
			p = p[5:]
		}
		if flags&flagEndHeaders != 0 {
			return c.headerBlock(id, flags, p)
		}
		c.contID, c.contFlags = id, flags
		c.block = append(c.block[:0], p...)
	case frameContinuation:
		if c.contID == 0 || id != c.contID {
			return codeProtocol
		}
		if len(c.block)+len(p) > h2MaxHeaderList {
			return codeEnhanceYourCalm
		}
		c.block = append(c.block, p...)
		if flags&flagEndHeaders != 0 {
			c.contID = 0
			return c.headerBlock(id, c.contFlags, c.block)
		}
	case framePriority:
		if id == 0 {
			return codeProtocol
		}
		if len(p) != 5 {
			return codeFrameSize
		}
	case frameRSTStream:
		if id == 0 || id > c.lastID {
			return codeProtocol
		}
		if len(p) != 4 {
			return codeFrameSize
		}
		if st := c.find(id); st != nil {
			c.abandon(st)
		}
	case frameSettings:
		return c.settings(flags, id, p)
	case framePushPromise:
		return codeProtocol
	case framePing:
		if id != 0 {
			return codeProtocol
		}
		if len(p) != 8 {
			return codeFrameSize
		}
		if flags&flagAck == 0 {
			c.out = append(appendFrameHeader(c.out, 8, framePing, flagAck, 0), p...)
			c.flushIfFull()
		}
	case frameGoAway:
		if id != 0 {
			return codeProtocol
		}
	case frameWindowUpdate:
		return c.windowUpdate(id, p)
	}
	return codeNoError // RFC 9113 §4.1: frames of unknown type are ignored
}

// unpad strips the padding of a PADDED frame (RFC 9113 §6.1).
func unpad(flags byte, p []byte) ([]byte, bool) {
	if flags&flagPadded == 0 {
		return p, true
	}
	if len(p) == 0 || int(p[0]) >= len(p) {
		return nil, false
	}
	return p[1 : len(p)-int(p[0])], true
}

func (c *h2Conn) find(id uint32) *h2Stream {
	for _, st := range c.streams {
		if st.id == id {
			return st
		}
	}
	return nil
}

// newStream takes a stream from the free list. It is in stNew: track puts
// it into the table, release takes it out and recycles it.
func (c *h2Conn) newStream(id uint32) *h2Stream {
	var st *h2Stream
	if n := len(c.free); n > 0 {
		st, c.free = c.free[n-1], c.free[:n-1]
	} else {
		st = new(h2Stream)
	}
	*st = h2Stream{id: id, declared: -1, sendWindow: c.peerInitial, hdr: st.hdr[:0], body: st.body[:0]}
	return st
}

func (c *h2Conn) track(st *h2Stream, state uint8) {
	if st.state == stNew {
		c.streams = append(c.streams, st)
	}
	st.state = state
}

// release ends a stream here: out of the table, what it held no longer
// counted, its buffers kept for the next stream unless they have grown.
func (c *h2Conn) release(st *h2Stream) {
	switch st.state {
	case stBody, stHandler:
		c.buffered -= len(st.body)
	case stSend:
		c.pending -= len(st.body) - st.sent
	}
	if st.state != stNew {
		for i, s := range c.streams {
			if s == st {
				last := len(c.streams) - 1
				c.streams[i], c.streams[last] = c.streams[last], nil
				c.streams = c.streams[:last]
				break
			}
		}
	}
	if cap(st.body) > 4096 {
		st.body = nil
	}
	if cap(st.hdr) > 4096 {
		st.hdr = nil
	}
	st.cancel = nil
	c.free = append(c.free, st)
}

// abandon ends a stream nothing more will be sent on. One whose handler is
// running is only marked: the handler owns its buffers until it returns.
func (c *h2Conn) abandon(st *h2Stream) {
	if st.state == stHandler {
		st.reset = true
		st.cancel()
		return
	}
	c.release(st)
}

// resetStream sends RST_STREAM and ends the stream.
func (c *h2Conn) resetStream(st *h2Stream, code h2Code) {
	c.frame4(frameRSTStream, st.id, uint32(code))
	c.abandon(st)
}

// frame4 appends a frame whose payload is one 32-bit number: RST_STREAM,
// WINDOW_UPDATE.
func (c *h2Conn) frame4(typ byte, id, v uint32) {
	c.out = binary.BigEndian.AppendUint32(appendFrameHeader(c.out, 4, typ, 0, id), v)
}

func (c *h2Conn) settings(flags byte, id uint32, p []byte) h2Code {
	if id != 0 {
		return codeProtocol
	}
	if flags&flagAck != 0 {
		if len(p) != 0 {
			return codeFrameSize
		}
		return codeNoError
	}
	if len(p)%6 != 0 {
		return codeFrameSize
	}
	for ; len(p) > 0; p = p[6:] {
		v := int64(binary.BigEndian.Uint32(p[2:]))
		switch binary.BigEndian.Uint16(p) {
		case settingEnablePush:
			if v > 1 {
				return codeProtocol
			}
		case settingInitialWindowSize:
			if v > h2MaxWindow {
				return codeFlowControl
			}
			// RFC 9113 §6.9.2: the change applies to every open stream.
			for _, st := range c.streams {
				if st.sendWindow += v - c.peerInitial; st.sendWindow > h2MaxWindow {
					return codeFlowControl
				}
			}
			c.peerInitial = v
		case settingMaxFrameSize:
			if v < h2MaxFrame || v > 1<<24-1 {
				return codeProtocol
			}
		}
		// The rest bound what this end may do towards the peer, and it
		// stays inside their defaults: no header table, no push, frames
		// of at most 16 KiB, header lists of a few short fields.
	}
	c.out = appendFrameHeader(c.out, 0, frameSettings, flagAck, 0)
	c.resume()
	return codeNoError
}

func (c *h2Conn) windowUpdate(id uint32, p []byte) h2Code {
	if len(p) != 4 {
		return codeFrameSize
	}
	inc := int64(binary.BigEndian.Uint32(p) &^ (1 << 31))
	if id == 0 {
		if inc == 0 {
			return codeProtocol
		}
		if c.sendWindow += inc; c.sendWindow > h2MaxWindow {
			return codeFlowControl
		}
		c.resume()
		return codeNoError
	}
	if id > c.lastID {
		return codeProtocol
	}
	st := c.find(id)
	if st == nil {
		return codeNoError // a stream that has ended: the update crossed its end
	}
	if st.sendWindow += inc; inc == 0 || st.sendWindow > h2MaxWindow {
		code := codeFlowControl
		if inc == 0 {
			code = codeProtocol
		}
		c.resetStream(st, code)
	} else if st.state == stSend {
		c.sendBody(st)
	}
	return codeNoError
}

// resume sends what the responses waiting for window may now send. Going
// backwards lets sendBody release the stream under the index: what moves
// into its place has been visited.
func (c *h2Conn) resume() {
	for i := len(c.streams) - 1; i >= 0 && c.pending > 0; i-- {
		if st := c.streams[i]; st.state == stSend {
			c.sendBody(st)
		}
	}
}

// data handles a DATA frame: the body of a request, kept until it is
// complete (no handler behind this loop streams its input), or no longer
// wanted.
func (c *h2Conn) data(flags byte, id uint32, p []byte) h2Code {
	if id == 0 {
		return codeProtocol
	}
	// Padding counts against the window too. Connection-level window is
	// returned as it is used: the limits on what a connection buffers are
	// h2MaxBuffered and the per-request maxPOSTBody, not the window.
	if c.recvCredit += len(p); c.recvCredit >= h2InitialWindow/2 {
		c.frame4(frameWindowUpdate, 0, uint32(c.recvCredit))
		c.recvCredit = 0
	}
	p, ok := unpad(flags, p)
	if !ok {
		return codeProtocol
	}
	st := c.find(id)
	if st == nil {
		if id > c.lastID || id%2 == 0 {
			return codeProtocol
		}
		return codeNoError // a stream that has ended: the frame crossed its end
	}
	if st.state != stBody {
		return codeNoError // already answering: over the body limit, or reset
	}
	end := flags&flagEndStream != 0
	st.received += int64(len(p))
	if end && st.declared >= 0 && st.received != st.declared {
		c.resetStream(st, codeProtocol) // RFC 9113 §8.1.1: malformed
		return codeNoError
	}
	st.peerDone = end
	if end && st.inline && len(st.body) == 0 && c.answerInline(st, p) {
		return codeNoError // the common case: the whole body in one frame, used where it lies
	}
	// Keep one octet more than a DNS message may have, which is how the
	// handler learns that it is too large.
	if room := maxPOSTBody + 1 - len(st.body); len(p) > room {
		p = p[:room]
	}
	if c.buffered+len(p) > h2MaxBuffered {
		c.resetStream(st, codeEnhanceYourCalm)
		return codeNoError
	}
	st.body = append(st.body, p...)
	c.buffered += len(p)
	if end || len(st.body) > maxPOSTBody {
		c.request(st)
	} else if st.unacked += len(p); st.unacked >= h2InitialWindow/2 {
		c.frame4(frameWindowUpdate, st.id, uint32(st.unacked))
		st.unacked = 0
	}
	return codeNoError
}

// headerBlock handles a complete header block: a new request, or the
// trailers of one whose body was arriving.
func (c *h2Conn) headerBlock(id uint32, flags byte, block []byte) h2Code {
	st := c.newStream(id)
	var tooLarge bool
	var err error
	// Decoded whatever becomes of the stream: the dynamic table has to see
	// every block the peer's encoder produced.
	if st.hdr, tooLarge, err = c.dec.decode(st.hdr, block, h2MaxHeaderList); err != nil {
		c.release(st)
		return codeCompression
	}
	end := flags&flagEndStream != 0
	if open := c.find(id); open != nil && !open.peerDone {
		c.release(st) // trailers carry nothing a DNS request needs
		switch {
		case open.state != stBody: // over the body limit, answered without waiting for these
		case !end:
			c.resetStream(open, codeProtocol)
		default:
			open.peerDone = true
			c.request(open)
		}
		return codeNoError
	}
	if id <= c.lastID {
		c.release(st)
		return codeProtocol // RFC 9113 §5.1.1: stream identifiers only grow
	}
	c.lastID = id
	switch {
	case len(c.streams) >= h2MaxStreams:
		c.resetStream(st, codeRefusedStream)
	case tooLarge:
		st.peerDone = end
		c.respondStatus(st, http.StatusRequestHeaderFieldsTooLarge)
	case !c.classify(st):
		c.resetStream(st, codeProtocol) // RFC 9113 §8.1.1: malformed
	case end:
		st.peerDone = true
		c.request(st)
	default:
		c.track(st, stBody)
	}
	return codeNoError
}

// classify validates a request's header list (RFC 9113 §8.2, §8.3) and
// notes what the loop itself acts on: whether it is an RFC 8484 request
// the non-blocking half may answer, its declared length, whether it is a
// HEAD.
func (c *h2Conn) classify(st *h2Stream) bool {
	var method, path, contentType []byte
	var seen uint8 // pseudo-header fields seen, one bit each
	regular, wantsJSON := false, false
	for list := st.hdr; len(list) > 0; {
		var name, value []byte
		name, value, list = nextField(list)
		if len(name) == 0 {
			return false
		}
		if name[0] == ':' {
			var bit uint8
			switch string(name) {
			case ":method":
				bit, method = 1, value
			case ":path":
				bit, path = 2, value
			case ":scheme":
				bit = 4
			case ":authority":
				bit = 8
			}
			if bit == 0 || seen&bit != 0 || regular {
				return false
			}
			seen |= bit
			continue
		}
		regular = true
		for _, b := range name {
			if 'A' <= b && b <= 'Z' {
				return false
			}
		}
		switch string(name) {
		case "content-type":
			contentType = value
		case "accept":
			wantsJSON = wantsJSON || bytes.Contains(value, []byte(JSONContentType))
		case "content-length":
			n, ok := parseContentLength(value)
			if !ok || st.declared >= 0 && st.declared != n {
				return false
			}
			st.declared = n
		case "connection", "proxy-connection", "keep-alive", "transfer-encoding", "upgrade":
			return false
		case "te":
			if string(value) != "trailers" {
				return false
			}
		}
	}
	if seen&7 != 7 || len(path) == 0 { // CONNECT, which may omit two of them, is not served
		return false
	}
	const get = DefaultPath + "?dns="
	switch string(method) {
	case http.MethodPost:
		st.inline = string(path) == DefaultPath && string(contentType) == ContentType
	case http.MethodGet:
		// Exactly the one parameter and nothing that asks for JSON; any
		// other spelling of the request is the fallback's to interpret.
		if len(path) > len(get) && string(path[:len(get)]) == get && !wantsJSON {
			st.inline, st.dns = true, path[len(get):]
		}
	case http.MethodHead:
		st.head = true
	}
	return true
}

// parseContentLength reads 1*DIGIT below 2^53, more than any body sent here.
func parseContentLength(value []byte) (n int64, ok bool) {
	for _, b := range value {
		if b < '0' || b > '9' || n >= 1<<53 {
			return 0, false
		}
		n = n*10 + int64(b-'0')
	}
	return n, len(value) > 0
}

// request acts on a request whose body, st.body, is complete or over the
// limit: the non-blocking half in line when it applies and answers, else
// the fallback handler.
func (c *h2Conn) request(st *h2Stream) {
	if st.inline && c.answerInline(st, st.body) {
		return
	}
	h2Fallback.Inc()
	req, err := c.newRequest(st)
	if err != nil {
		c.resetStream(st, codeProtocol)
		return
	}
	c.track(st, stHandler)
	ctx, cancel := context.WithCancel(c.ctx)
	st.cancel = cancel
	c.wg.Add(1)
	go c.serveFallback(st, req.WithContext(ctx))
}

// answerInline is ServeHTTP's path for a wire-format request cut down to
// what cannot block: decode, parse, dns53.AppendInline, respond. It
// reports false with nothing sent or counted when any step declines, and
// is not asked again; the fallback then starts from the request as
// received. A handler failure is already the SERVFAIL in the answer, sent
// with status 200 as ServeHTTP sends it. wire may lie in the read buffer.
// It reads no clock: flush counts what it answers.
func (c *h2Conn) answerInline(st *h2Stream, wire []byte) bool {
	st.inline = false
	requests := &c.posts
	if st.dns != nil {
		requests = &c.gets
		n := base64.RawURLEncoding.DecodedLen(len(st.dns))
		if cap(c.wire) < n {
			c.wire = make([]byte, n)
		}
		n, err := base64.RawURLEncoding.Decode(c.wire[:n], st.dns)
		if err != nil {
			return false
		}
		wire = c.wire[:n]
	}
	if len(wire) > maxPOSTBody || dns53.UnpackQuery(c.query, wire) != nil {
		return false
	}
	answer, minTTL, ok, _ := dns53.AppendInline(c.ctx, c.h.DNS, c.answer[:0], c.query, wire, dnswire.MaxMessageSize)
	if !ok {
		return false
	}
	c.answer = answer
	block := append(c.hblock[:0], h2InlineHeaders...)
	if sec := c.now.Unix(); sec != c.dateSec { // date, static index 33; the value is always 29 octets
		c.dateSec = sec
		c.date = c.now.UTC().AppendFormat(append(c.date[:0], 0x0f, 0x12, 29), http.TimeFormat)
	}
	block = append(block, c.date...)
	block = appendDecimalField(block, 0x0d, "", int64(len(answer))) // content-length, static index 28
	if minTTL >= 0 {                                                // RFC 8484 §5.1
		block = appendDecimalField(block, 0x09, "max-age=", minTTL) // cache-control, static index 24
	}
	c.hblock = block
	h2Inline.Inc()
	*requests++
	c.respond(st, block, answer)
	return true
}

// appendDecimalField appends a literal header field without indexing whose
// name is static-table entry 15+index and whose value is prefix followed
// by n in decimal (RFC 7541 §6.2.2; the value is far below 127 octets).
func appendDecimalField(block []byte, index byte, prefix string, n int64) []byte {
	block = append(block, 0x0f, index, 0)
	at := len(block)
	block = strconv.AppendInt(append(block, prefix...), n, 10)
	block[at-1] = byte(len(block) - at)
	return block
}

// respond sends a response: the header block now, the body as far as the
// peer's flow-control windows allow, the rest when it opens them.
func (c *h2Conn) respond(st *h2Stream, block, body []byte) {
	if st.head {
		body = nil
	}
	// A response that has to wait is held in full, so what waits is bounded
	// per connection; one may always wait, so any response can complete.
	if n := len(body); int64(n) > min(c.sendWindow, st.sendWindow) && c.pending > 0 && c.pending+n > h2MaxBuffered {
		c.resetStream(st, codeEnhanceYourCalm)
		return
	}
	c.out = appendHeaders(c.out, len(body) == 0, st.id, block)
	sent := c.appendData(st, body)
	if sent == len(body) {
		c.finish(st)
		return
	}
	// The buffer of a request body answered in line now holds the response.
	if st.state == stBody {
		c.buffered -= len(st.body)
	}
	c.track(st, stSend)
	st.body, st.sent = append(st.body[:0], body[sent:]...), 0
	c.pending += len(st.body)
}

// sendBody continues a response that was waiting for window.
func (c *h2Conn) sendBody(st *h2Stream) {
	n := c.appendData(st, st.body[st.sent:])
	st.sent += n
	c.pending -= n
	if st.sent == len(st.body) {
		c.finish(st)
	}
}

// appendData appends DATA frames for as much of body as both windows
// allow, END_STREAM on the one that completes it, and reports how much
// that was.
func (c *h2Conn) appendData(st *h2Stream, body []byte) (sent int) {
	for sent < len(body) {
		n := int(min(int64(len(body)-sent), h2MaxFrame, c.sendWindow, st.sendWindow))
		if n <= 0 {
			break
		}
		var flags byte
		if sent+n == len(body) {
			flags = flagEndStream
		}
		c.out = append(appendFrameHeader(c.out, n, frameData, flags, st.id), body[sent:sent+n]...)
		sent += n
		c.sendWindow -= int64(n)
		st.sendWindow -= int64(n)
		c.flushIfFull()
	}
	return sent
}

// finish ends a stream whose response is complete.
func (c *h2Conn) finish(st *h2Stream) {
	if !st.peerDone {
		c.frame4(frameRSTStream, st.id, uint32(codeNoError))
	}
	c.release(st)
	c.flushIfFull()
}

// respondStatus sends a response that is a status and nothing else.
func (c *h2Conn) respondStatus(st *h2Stream, status int) {
	c.hblock = appendLiteralField(c.hblock[:0], ":status", strconv.Itoa(status))
	c.respond(st, c.hblock, nil)
}

// newRequest builds the *http.Request of a stream for the fallback
// handler, as net/http's HTTP/2 server would have.
func (c *h2Conn) newRequest(st *h2Stream) (*http.Request, error) {
	req := &http.Request{
		Proto: "HTTP/2.0", ProtoMajor: 2, Header: make(http.Header),
		ContentLength: st.declared, Body: http.NoBody,
		RemoteAddr: c.conn.RemoteAddr().String(),
	}
	for list := st.hdr; len(list) > 0; {
		var name, value []byte
		name, value, list = nextField(list)
		switch string(name) {
		case ":method":
			req.Method = string(value)
		case ":path":
			req.RequestURI = string(value)
		case ":authority":
			req.Host = string(value)
		case ":scheme":
		default:
			req.Header.Add(http.CanonicalHeaderKey(string(name)), string(value))
		}
	}
	if req.Host == "" {
		req.Host = req.Header.Get("Host")
	}
	var err error
	if req.URL, err = url.ParseRequestURI(req.RequestURI); err != nil {
		return nil, err
	}
	if st.peerDone && st.declared < 0 {
		req.ContentLength = int64(len(st.body))
	}
	if len(st.body) > 0 {
		req.Body = io.NopCloser(bytes.NewReader(st.body))
	}
	return req, nil
}

// serveFallback runs the fallback handler for one request and sends what
// it wrote. A panic in the handler ends the stream, not the process —
// under net/http, the server's own recover did this.
func (c *h2Conn) serveFallback(st *h2Stream, req *http.Request) {
	defer c.wg.Done()
	w := &h2ResponseWriter{header: make(http.Header), status: http.StatusOK}
	panicked := false
	func() {
		defer func() {
			if v := recover(); v != nil {
				panicked = true
				if v != http.ErrAbortHandler {
					c.logf("doh: panic serving %s %s: %v", req.Method, req.RequestURI, v)
				}
			}
		}()
		c.fallback.ServeHTTP(w, req)
	}()
	c.mu.Lock()
	defer c.mu.Unlock()
	st.cancel()
	// The request is served and its body done with; what is left is sending.
	c.buffered -= len(st.body)
	st.body, st.sent, st.state = st.body[:0], 0, stSend
	switch {
	case st.reset || c.closed:
		c.release(st)
	case panicked:
		c.resetStream(st, codeInternal)
	default:
		c.hblock = w.headerBlock(c.hblock[:0], req.Method)
		c.respond(st, c.hblock, w.body)
	}
	c.flush()
}

// h2ResponseWriter collects a fallback handler's response; it is sent
// when the handler returns. No handler behind this loop streams its
// output, and none is on a path where a second copy of the body matters.
type h2ResponseWriter struct {
	header      http.Header
	sent        http.Header // header as it was at WriteHeader
	status      int
	wroteHeader bool
	body        []byte
}

func (w *h2ResponseWriter) Header() http.Header { return w.header }

func (w *h2ResponseWriter) WriteHeader(status int) {
	if w.wroteHeader || status < 200 { // informational responses are not relayed
		return
	}
	w.wroteHeader, w.status, w.sent = true, status, w.header.Clone()
}

func (w *h2ResponseWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		if w.header.Get("Content-Type") == "" && w.header.Get("Content-Encoding") == "" {
			w.header.Set("Content-Type", http.DetectContentType(p))
		}
		w.WriteHeader(http.StatusOK)
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// headerBlock encodes the response's header list: every field a literal
// without indexing, so it depends on no table state.
func (w *h2ResponseWriter) headerBlock(block []byte, method string) []byte {
	if !w.wroteHeader {
		w.sent = w.header
	}
	block = appendLiteralField(block, ":status", strconv.Itoa(w.status))
	// Everything was buffered, so the length is known; a HEAD response
	// reports what the handler declared.
	noBody := w.status == http.StatusNoContent || w.status == http.StatusNotModified
	if noBody {
		w.body = nil
	} else if method != http.MethodHead || len(w.body) > 0 {
		w.sent.Set("Content-Length", strconv.Itoa(len(w.body)))
	}
	if w.sent.Get("Date") == "" {
		w.sent.Set("Date", time.Now().UTC().Format(http.TimeFormat))
	}
	for name, values := range w.sent {
		switch name {
		case "Connection", "Proxy-Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade":
			continue // RFC 9113 §8.2.2: connection-specific, not for HTTP/2
		}
		for _, v := range values {
			if !strings.ContainsAny(v, "\r\n\x00") {
				block = appendLiteralField(block, strings.ToLower(name), v)
			}
		}
	}
	return block
}

// appendLiteralField appends name and value as a literal header field
// without indexing and with a new name (RFC 7541 §6.2.2), not Huffman-coded.
func appendLiteralField(block []byte, name, value string) []byte {
	block = appendHpackInt(append(block, 0), len(name))
	block = appendHpackInt(append(block, name...), len(value))
	return append(block, value...)
}

// appendHpackInt appends n as a 7-bit-prefix integer with the H bit clear
// (RFC 7541 §5.1): a string length.
func appendHpackInt(block []byte, n int) []byte {
	if n < 127 {
		return append(block, byte(n))
	}
	block = append(block, 127)
	for n -= 127; n >= 128; n >>= 7 {
		block = append(block, byte(n)|0x80)
	}
	return append(block, byte(n))
}
