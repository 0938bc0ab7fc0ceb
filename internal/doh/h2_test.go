package doh

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/obs"
	"encdns/internal/testutil"
)

// testDNS is a resolver scripted by query name. hit.test. is answered by
// the wire fast path (and only by it: ServeDNS counts a call as a test
// failure waiting to be noticed), everything else by ServeDNS.
type testDNS struct {
	served  atomic.Int64  // ServeDNS calls
	running atomic.Int64  // ServeDNS calls inside slow.test.
	peak    atomic.Int64  // most of them at once
	release chan struct{} // closed to let slow.test. return; nil: it waits for its context
	once    sync.Once
}

// unblock lets every slow.test. query return.
func (h *testDNS) unblock() {
	if h.release != nil {
		h.once.Do(func() { close(h.release) })
	}
}

func (h *testDNS) AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, int64, bool) {
	q0 := q.Question0()
	if dnswire.CanonicalName(q0.Name) != "hit.test." || q0.Type != dnswire.TypeA {
		return dst, 0, false
	}
	dst = dnswire.AppendRawHeader(dst, q.Header.ID, 0x8180, 1, 1, 0, 0)
	dst = append(dst, rawQuestion...)
	return append(dst, 0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 1, 0x2c, 0, 4, 192, 0, 2, 1), 300, true
}

func (h *testDNS) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	h.served.Add(1)
	q0 := q.Question0()
	r := q.Reply()
	r.Header.RA = true
	switch dnswire.CanonicalName(q0.Name) {
	case "hit.test.":
		return nil, errors.New("the fast path should have answered")
	case "miss.test.":
		r.Answers = []dnswire.Record{{Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")}}}
	case "error.test.":
		return nil, errors.New("upstream on fire")
	case "panic.test.":
		panic("boom")
	case "slow.test.":
		n := h.running.Add(1)
		defer h.running.Add(-1)
		for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
		}
		if h.release != nil {
			<-h.release
		} else {
			<-ctx.Done()
		}
	default:
		r.Header.RCode = dnswire.RCodeNXDomain
	}
	return r, nil
}

func dnsQuery(t testing.TB, id uint16, name string) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, name, dnswire.TypeA).AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// memConn is an in-memory net.Conn whose peer is the test: each slice sent
// on feed is what one Read returns (several when it outgrows the caller's
// buffer), closing feed is EOF, and every Write is recorded whole. With
// record unset nothing here allocates. Deadlines are ignored.
type memConn struct {
	feed   chan []byte
	rest   []byte
	wrote  chan int // the size of every Write
	record bool
	mu     sync.Mutex
	writes [][]byte
	closed chan struct{}
	once   sync.Once
}

func newMemConn(record bool) *memConn {
	return &memConn{
		feed:   make(chan []byte, 64), // lets a test queue several reads ahead
		wrote:  make(chan int, 1<<16), // never lets the server block on its peer
		record: record, closed: make(chan struct{}),
	}
}

func (c *memConn) Read(p []byte) (int, error) {
	if len(c.rest) == 0 {
		select {
		case chunk, ok := <-c.feed:
			if !ok {
				return 0, io.EOF
			}
			c.rest = chunk
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	if c.record {
		c.mu.Lock()
		c.writes = append(c.writes, bytes.Clone(p))
		c.mu.Unlock()
	}
	c.wrote <- len(p)
	return len(p), nil
}

func (c *memConn) Close() error                     { c.once.Do(func() { close(c.closed) }); return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{IP: net.IPv4(192, 0, 2, 99), Port: 4321} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// h2Frame is one frame the server wrote.
type h2Frame struct {
	typ, flags byte
	id         uint32
	payload    []byte
	write      int // index of the Write that carried it
}

func (f h2Frame) String() string {
	return fmt.Sprintf("frame type %d flags %#x stream %d payload %x", f.typ, f.flags, f.id, f.payload)
}

// testClient drives one connection served by serveH2 over a memConn.
type testClient struct {
	t      testing.TB
	conn   *memConn
	dns    *testDNS
	done   chan struct{}  // closed when serveH2 has returned
	frames []h2Frame      // written by the server, not yet consumed
	seen   int            // writes parsed into frames so far
	credit map[uint32]int // window the server has returned, by stream
}

// startLoop serves a connection whose fallback is a mux with the DoH
// handler, /big (size= octets of 'x'), /panic and /echo (request line,
// selected header fields and body size, as text). The preface, the given
// SETTINGS payload and the acknowledgement of the server's SETTINGS have
// been sent, and the server's SETTINGS and its acknowledgement consumed,
// when it returns.
func startLoop(t testing.TB, settings ...byte) *testClient {
	t.Helper()
	c := newLoop(t)
	c.send([]byte(h2ClientPreface), rawFrame(frameSettings, 0, 0, settings), rawFrame(frameSettings, flagAck, 0, nil))
	if f := c.frame(); f.typ != frameSettings || f.flags != 0 {
		t.Fatalf("first from the server: %v, want SETTINGS", f)
	}
	if f := c.frame(); f.typ != frameSettings || f.flags != flagAck || len(f.payload) != 0 {
		t.Fatalf("second from the server: %v, want the SETTINGS acknowledgement", f)
	}
	return c
}

// newLoop is startLoop before the client has said anything.
func newLoop(t testing.TB) *testClient {
	t.Helper()
	c := &testClient{t: t, conn: newMemConn(true), dns: &testDNS{}, done: make(chan struct{}), credit: map[uint32]int{}}
	h := &Handler{DNS: c.dns}
	mux := http.NewServeMux()
	mux.Handle(DefaultPath, h)
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("size"))
		w.Header().Set("Content-Type", "text/plain")
		_, _ = w.Write(bytes.Repeat([]byte{'x'}, n))
	})
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("handler bug") })
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, "%s %s %s host=%s from=%s x-test=%q length=%d body=%d", r.Method, r.RequestURI, r.Proto,
			r.Host, r.RemoteAddr, r.Header["X-Test"], r.ContentLength, n)
	})
	go func() {
		defer close(c.done)
		h.serveH2(c.conn, mux, 0, t.Logf)
	}()
	t.Cleanup(c.close)
	return c
}

// close hangs up and waits for serveH2 to return, which it does only
// after every fallback goroutine has.
func (c *testClient) close() {
	c.conn.Close()
	c.dns.unblock()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		c.t.Error("serveH2 still running 5 s after its connection closed")
	}
}

// send hands the server the concatenation of parts in one Read.
func (c *testClient) send(parts ...[]byte) {
	c.conn.feed <- bytes.Join(parts, nil)
}

// frame returns the next frame the server wrote, waiting for a Write when
// there is none.
func (c *testClient) frame() h2Frame {
	c.t.Helper()
	for len(c.frames) == 0 {
		select {
		case <-c.conn.wrote:
		case <-c.done:
			select {
			case <-c.conn.wrote:
			default:
				c.t.Fatal("the connection ended with no further frame")
			}
		case <-time.After(5 * time.Second):
			c.t.Fatal("no frame from the server in 5 s")
		}
		c.conn.mu.Lock()
		b := c.conn.writes[c.seen]
		c.conn.mu.Unlock()
		for len(b) > 0 {
			n := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
			f := h2Frame{typ: b[3], flags: b[4], id: binary.BigEndian.Uint32(b[5:]), payload: b[9 : 9+n], write: c.seen}
			if f.typ == frameWindowUpdate {
				c.credit[f.id] += int(binary.BigEndian.Uint32(f.payload))
				f.id = 0 // response skips it
			}
			c.frames = append(c.frames, f)
			b = b[9+n:]
		}
		c.seen++
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return f
}

// reply is the next frame that is not a WINDOW_UPDATE.
func (c *testClient) reply() h2Frame {
	c.t.Helper()
	for {
		if f := c.frame(); f.typ != frameWindowUpdate {
			return f
		}
	}
}

// quiet fails if the server writes anything before the acknowledgement of
// a PING sent now.
func (c *testClient) quiet() {
	c.t.Helper()
	c.send(rawFrame(framePing, 0, 0, []byte("quiet???")))
	if f := c.frame(); f.typ != framePing || f.flags != flagAck || string(f.payload) != "quiet???" {
		c.t.Fatalf("got %v, want nothing before the PING acknowledgement", f)
	}
}

// h2Response is one response as the client saw it.
type h2Response struct {
	status string
	header map[string]string
	body   []byte
	writes map[int]bool // the Writes its frames arrived in
}

// response collects the response on stream id: HEADERS (decoded as the
// stateless literals the loop promises) and DATA up to END_STREAM. Frames
// of other streams stay queued; WINDOW_UPDATE, PING and SETTINGS frames
// met on the way are dropped.
func (c *testClient) response(id uint32) h2Response {
	c.t.Helper()
	r := h2Response{header: map[string]string{}, writes: map[int]bool{}}
	var later []h2Frame
	defer func() { c.frames = append(later, c.frames...) }()
	for {
		f := c.frame()
		switch {
		case f.id == 0:
		case f.id != id:
			later = append(later, f)
		case f.typ == frameRSTStream:
			c.t.Fatalf("stream %d reset with code %d before its response ended", id, binary.BigEndian.Uint32(f.payload))
		case f.typ == frameHeaders || f.typ == frameData:
			r.writes[f.write] = true
			if f.typ == frameHeaders {
				d := hpackDecoder{} // a zero table: the block must not refer to one
				list, _, err := d.decode(nil, f.payload, 1<<16-1)
				if err != nil || f.flags&flagEndHeaders == 0 {
					c.t.Fatalf("response header block: %v (%v)", err, f)
				}
				for len(list) > 0 {
					var name, value []byte
					name, value, list = nextField(list)
					r.header[string(name)] = string(value)
				}
				r.status = r.header[":status"]
			} else {
				r.body = append(r.body, f.payload...)
			}
			if f.flags&flagEndStream != 0 {
				return r
			}
		}
	}
}

func rawFrame(typ, flags byte, id uint32, payload []byte) []byte {
	return append(appendFrameHeader(nil, len(payload), typ, flags, id), payload...)
}

func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

// setting is one SETTINGS parameter.
func setting(id uint16, v uint32) []byte {
	return append(binary.BigEndian.AppendUint16(nil, id), u32(v)...)
}

// requestFrames is a request as HEADERS and, with a body, one DATA frame.
func requestFrames(id uint32, method, path string, body []byte, extra ...string) []byte {
	fields := append([]string{":method", method, ":scheme", "https", ":authority", "doh.test", ":path", path}, extra...)
	if body == nil {
		return rawFrame(frameHeaders, flagEndHeaders|flagEndStream, id, encodeFields(false, fields...))
	}
	return append(rawFrame(frameHeaders, flagEndHeaders, id, encodeFields(false, fields...)),
		rawFrame(frameData, flagEndStream, id, body)...)
}

func postFrames(id uint32, query []byte) []byte {
	return requestFrames(id, "POST", DefaultPath, query, "content-type", ContentType, "accept", ContentType)
}

func getFrames(id uint32, query []byte) []byte {
	return requestFrames(id, "GET", DefaultPath+"?dns="+base64.RawURLEncoding.EncodeToString(query), nil, "accept", ContentType)
}

// wantAnswer checks an RFC 8484 response for the answer to query.
func wantAnswer(t testing.TB, r h2Response, query []byte, rcode dnswire.RCode, maxAge string) {
	t.Helper()
	m, err := dnswire.Unpack(r.body)
	if err != nil {
		t.Fatalf("status %s, body %x: %v", r.status, r.body, err)
	}
	if r.status != "200" || r.header["content-type"] != ContentType || r.header["content-length"] != strconv.Itoa(len(r.body)) ||
		r.header["cache-control"] != maxAge || m.Header.ID != binary.BigEndian.Uint16(query) || m.Header.RCode != rcode {
		t.Fatalf("status %s header %v answer %v", r.status, r.header, m)
	}
}

func TestH2ServerSpeaksFirst(t *testing.T) {
	c := newLoop(t)
	f := c.frame() // before the client has sent a byte
	want := append(setting(settingMaxStreams, 250), setting(settingMaxHeaderListSize, 16384)...)
	if f.typ != frameSettings || f.flags != 0 || f.id != 0 || !bytes.Equal(f.payload, want) {
		t.Fatalf("server preface: %v, want SETTINGS %x", f, want)
	}
	// The client's SETTINGS, with push "enabled" and a parameter from the
	// future, are acknowledged in the write that carries the first response.
	query := dnsQuery(t, 7, "hit.test.")
	c.send([]byte(h2ClientPreface), rawFrame(frameSettings, 0, 0, append(setting(settingEnablePush, 1), setting(0xf0f0, 9)...)),
		postFrames(1, query))
	ack := c.frame()
	r := c.response(1)
	if ack.typ != frameSettings || ack.flags != flagAck || len(r.writes) != 1 || !r.writes[ack.write] {
		t.Fatalf("acknowledgement %v in write %d, response in writes %v", ack, ack.write, r.writes)
	}
	wantAnswer(t, r, query, dnswire.RCodeSuccess, "max-age=300")
	if n := c.dns.served.Load(); n != 0 {
		t.Errorf("ServeDNS ran %d times for a hit", n)
	}
}

func TestH2NotHTTP2(t *testing.T) {
	c := newLoop(t)
	c.frame()
	c.send([]byte("GET / HTTP/1.1\r\nHost: doh.test\r\n\r\n"))
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("a connection without the client preface stays open")
	}
	if n := len(c.conn.writes); n != 1 {
		t.Errorf("%d writes, want only the server preface", n)
	}
}

// TestH2RequestShapes: every way RFC 9113 lets a client lay a request out
// in frames reaches the same answer.
func TestH2RequestShapes(t *testing.T) {
	c := startLoop(t)
	hit, miss := dnsQuery(t, 0x1001, "hit.test."), dnsQuery(t, 0x1002, "miss.test.")
	post := func(huffman bool, query []byte) []byte {
		return encodeFields(huffman, ":method", "POST", ":scheme", "https", ":authority", "doh.test", ":path", DefaultPath,
			"content-type", ContentType, "content-length", strconv.Itoa(len(query)))
	}
	pad := func(n int, p []byte) []byte { return append(append([]byte{byte(n)}, p...), make([]byte, n)...) }
	id := uint32(1)
	for _, tc := range []struct {
		name   string
		frames func(query []byte) [][]byte
	}{
		{"HEADERS then DATA", func(q []byte) [][]byte {
			return [][]byte{rawFrame(frameHeaders, flagEndHeaders, id, post(false, q)), rawFrame(frameData, flagEndStream, id, q)}
		}},
		{"Huffman-coded HEADERS", func(q []byte) [][]byte {
			return [][]byte{rawFrame(frameHeaders, flagEndHeaders, id, post(true, q)), rawFrame(frameData, flagEndStream, id, q)}
		}},
		{"CONTINUATION", func(q []byte) [][]byte {
			b := post(false, q)
			return [][]byte{rawFrame(frameHeaders, 0, id, b[:5]), rawFrame(frameContinuation, 0, id, b[5:40]),
				rawFrame(frameContinuation, 0, id, nil), rawFrame(frameContinuation, flagEndHeaders, id, b[40:]),
				rawFrame(frameData, flagEndStream, id, q)}
		}},
		{"padded, with priority", func(q []byte) [][]byte {
			b := append([]byte{0x80, 0, 0, 0, 16}, post(false, q)...) // exclusive, on stream 0, weight 17
			return [][]byte{rawFrame(frameHeaders, flagEndHeaders|flagPadded|flagPriority, id, pad(7, b)),
				rawFrame(framePriority, 0, id, []byte{0, 0, 0, 0, 1}),
				rawFrame(frameData, flagEndStream|flagPadded, id, pad(200, q))}
		}},
		{"body in four DATA frames", func(q []byte) [][]byte {
			return [][]byte{rawFrame(frameHeaders, flagEndHeaders, id, post(false, q)), rawFrame(frameData, 0, id, q[:1]),
				rawFrame(frameData, 0, id, nil), rawFrame(frameData, 0, id, q[1:20]), rawFrame(frameData, flagEndStream, id, q[20:])}
		}},
		{"empty last DATA frame", func(q []byte) [][]byte {
			return [][]byte{rawFrame(frameHeaders, flagEndHeaders, id, post(false, q)), rawFrame(frameData, 0, id, q),
				rawFrame(frameData, flagEndStream, id, nil)}
		}},
		{"trailers", func(q []byte) [][]byte {
			return [][]byte{rawFrame(frameHeaders, flagEndHeaders, id, post(false, q)), rawFrame(frameData, 0, id, q),
				rawFrame(frameHeaders, flagEndHeaders|flagEndStream, id, encodeFields(false, "x-checksum", "1"))}
		}},
		{"unknown frame types in between", func(q []byte) [][]byte {
			return [][]byte{rawFrame(0x42, 0xff, id, []byte("?")), rawFrame(frameHeaders, flagEndHeaders, id, post(false, q)),
				rawFrame(0x42, 0, 0, nil), rawFrame(frameData, flagEndStream, id, q)}
		}},
	} {
		for _, together := range []bool{true, false} {
			for _, query := range [][]byte{hit, miss} {
				frames := tc.frames(query)
				if together {
					c.send(frames...)
				} else {
					for _, f := range frames { // a read per frame, and one that ends inside the next frame's header
						c.send(f[:len(f)-1])
						c.send(f[len(f)-1:])
					}
				}
				maxAge, rcode := "max-age=300", dnswire.RCodeSuccess
				if &query[0] == &miss[0] {
					maxAge = "max-age=60"
				}
				t.Run(fmt.Sprint(tc.name, ", one read ", together), func(t *testing.T) {
					wantAnswer(t, c.response(id), query, rcode, maxAge)
				})
				id += 2
			}
		}
	}
	if n := c.dns.served.Load(); n != int64(id-1)/4 {
		t.Errorf("ServeDNS ran %d times for %d misses", n, (id-1)/4)
	}
}

func TestH2Get(t *testing.T) {
	c := startLoop(t)
	hit, miss := dnsQuery(t, 0, "hit.test."), dnsQuery(t, 0, "miss.test.")
	copy(hit[13:], "HIT") // the spelling only the fast path echoes
	c.send(getFrames(1, hit), getFrames(3, miss))
	r := c.response(1)
	wantAnswer(t, r, hit, dnswire.RCodeSuccess, "max-age=300")
	if !bytes.Contains(r.body, []byte("\x03HIT")) {
		t.Errorf("question not echoed as spelled: %x", r.body)
	}
	wantAnswer(t, c.response(3), miss, dnswire.RCodeSuccess, "max-age=60")
	// Spellings the loop leaves to the handler.
	b64 := base64.RawURLEncoding.EncodeToString(hit)
	for i, path := range []string{
		DefaultPath + "?dns=" + b64 + "&x=1", DefaultPath + "?x=1&dns=" + b64, DefaultPath + "?dns=" + b64[:4] + "%41" + b64[5:],
	} {
		id := uint32(5 + 2*i)
		c.send(requestFrames(id, "GET", path, nil))
		wantAnswer(t, c.response(id), hit, dnswire.RCodeSuccess, "max-age=300")
	}
	if n := c.dns.served.Load(); n != 1 {
		t.Errorf("ServeDNS ran %d times, want once for the miss", n)
	}
	// HEAD: the handler's 405 without its body.
	c.send(requestFrames(21, "HEAD", DefaultPath+"?dns="+b64, nil))
	if r := c.response(21); r.status != "405" || r.header["allow"] != "GET, POST" || len(r.body) != 0 || r.header["content-length"] == "0" {
		t.Errorf("HEAD: %+v", r)
	}
}

// TestH2FallbackRequest: what the fallback handler is given matches what
// net/http's server would have built.
func TestH2FallbackRequest(t *testing.T) {
	c := startLoop(t)
	c.send(requestFrames(1, "PUT", "/echo?a=b", []byte("0123456789"), "x-test", "one", "x-test", "two", "content-length", "10"))
	r := c.response(1)
	want := `PUT /echo?a=b HTTP/2.0 host=doh.test from=192.0.2.99:4321 x-test=["one" "two"] length=10 body=10`
	if r.status != "200" || string(r.body) != want || r.header["content-type"] != "text/plain; charset=utf-8" ||
		r.header["content-length"] != strconv.Itoa(len(want)) || r.header["date"] == "" {
		t.Errorf("status %s header %v\n got %s\nwant %s", r.status, r.header, r.body, want)
	}
	c.send(requestFrames(3, "GET", "/nowhere", nil))
	if r := c.response(3); r.status != "404" {
		t.Errorf("unknown path: %+v", r)
	}
}

// TestH2MalformedRequests: RFC 9113 §8.1.1 — a malformed request is a
// stream error PROTOCOL_ERROR, and the connection goes on.
func TestH2MalformedRequests(t *testing.T) {
	c := startLoop(t)
	base := []string{":method", "GET", ":scheme", "https", ":path", "/echo"}
	id := uint32(1)
	for name, fields := range map[string][]string{
		"upper-case field name":       append(base[:6:6], "X-Test", "1"),
		"pseudo-field after a field":  {":method", "GET", "x-test", "1", ":scheme", "https", ":path", "/echo"},
		"unknown pseudo-field":        append(base[:6:6], ":status", "200"),
		"repeated pseudo-field":       append(base[:6:6], ":path", "/echo"),
		"no :path":                    base[:4],
		"empty :path":                 {":method", "GET", ":scheme", "https", ":path", ""},
		"connection-specific field":   append(base[:6:6], "connection", "close"),
		"te other than trailers":      append(base[:6:6], "te", "gzip"),
		"content-length not a number": append(base[:6:6], "content-length", "1e3"),
		"two content-lengths":         append(base[:6:6], "content-length", "1", "content-length", "2"),
		"empty field name":            append(base[:6:6], "", "1"),
	} {
		c.send(rawFrame(frameHeaders, flagEndHeaders|flagEndStream, id, encodeFields(false, fields...)))
		if f := c.frame(); f.typ != frameRSTStream || f.id != id || binary.BigEndian.Uint32(f.payload) != uint32(codeProtocol) {
			t.Errorf("%s: %v, want RST_STREAM PROTOCOL_ERROR", name, f)
		}
		id += 2
	}
	// A body that is not as long as declared.
	for _, body := range []string{"12", "1234"} {
		c.send(requestFrames(id, "POST", "/echo", []byte(body), "content-length", "3"))
		if f := c.frame(); f.typ != frameRSTStream || f.id != id || binary.BigEndian.Uint32(f.payload) != uint32(codeProtocol) {
			t.Errorf("body %q under content-length 3: %v, want RST_STREAM PROTOCOL_ERROR", body, f)
		}
		id += 2
	}
	// A request target net/url cannot parse.
	c.send(requestFrames(id, "GET", "/%zz", nil))
	if f := c.frame(); f.typ != frameRSTStream || binary.BigEndian.Uint32(f.payload) != uint32(codeProtocol) {
		t.Errorf("unparsable :path: %v", f)
	}
	// te: trailers and a second, equal content-length are fine.
	c.send(requestFrames(id+2, "POST", "/echo", []byte("abc"), "te", "trailers", "content-length", "3", "content-length", "3"))
	if r := c.response(id + 2); r.status != "200" {
		t.Errorf("well-formed request after the malformed ones: %+v", r)
	}
}

func TestH2HeaderListTooLarge(t *testing.T) {
	c := startLoop(t)
	fields := []string{":method", "POST", ":scheme", "https", ":path", "/echo"}
	for i := 0; i < 5; i++ {
		fields = append(fields, "x-filler-"+strconv.Itoa(i), strings.Repeat("a", 4000))
	}
	block := encodeFields(true, fields...) // 20 KB of 'a' is 12.5 KB Huffman-coded: one frame
	c.send(rawFrame(frameHeaders, flagEndHeaders, 1, block))
	r := c.response(1)
	if r.status != "431" || len(r.body) != 0 {
		t.Fatalf("status %s, body %q", r.status, r.body)
	}
	// The request had a body to come; the response ended first.
	if f := c.frame(); f.typ != frameRSTStream || f.id != 1 || binary.BigEndian.Uint32(f.payload) != uint32(codeNoError) {
		t.Errorf("after the 431: %v, want RST_STREAM NO_ERROR", f)
	}
	c.send(rawFrame(frameData, flagEndStream, 1, []byte("late"))) // crosses the reset: ignored
	c.quiet()
}

// TestH2ResetWhileHandlerRuns: RST_STREAM on a stream whose fallback is in
// flight cancels the request's context; the response is dropped and
// nothing is ever written for the stream.
func TestH2ResetWhileHandlerRuns(t *testing.T) {
	c := startLoop(t)
	slow := dnsQuery(t, 9, "slow.test.")
	c.send(postFrames(1, slow))
	for c.dns.running.Load() != 1 {
		runtime.Gosched()
	}
	c.send(rawFrame(frameRSTStream, 0, 1, u32(uint32(0x8)))) // CANCEL
	for c.dns.running.Load() != 0 {                          // the handler saw its context end
		runtime.Gosched()
	}
	c.quiet()
	c.quiet() // the handler's goroutine has had time to take the lock and find the stream reset
	// The stream's slot is free again, and late frames for it are ignored.
	c.send(rawFrame(frameData, flagEndStream, 1, []byte("late")), rawFrame(frameWindowUpdate, 0, 1, u32(1)),
		rawFrame(frameRSTStream, 0, 1, u32(0x8)))
	c.quiet()
	hit := dnsQuery(t, 10, "hit.test.")
	c.send(postFrames(3, hit))
	wantAnswer(t, c.response(3), hit, dnswire.RCodeSuccess, "max-age=300")
}

// TestH2FlowControl: a response larger than the peer's stream or
// connection window waits for WINDOW_UPDATE, and what waits is bounded.
func TestH2FlowControl(t *testing.T) {
	t.Run("stream window", func(t *testing.T) {
		c := startLoop(t, setting(settingInitialWindowSize, 10)...)
		hit := dnsQuery(t, 1, "hit.test.")
		c.send(postFrames(1, hit), getFrames(3, hit))
		var got [2][]byte
		for i := 0; i < 4; i++ { // HEADERS and ten octets of DATA for each, then silence
			f := c.frame()
			if f.typ == frameData {
				got[f.id/2] = append(got[f.id/2], f.payload...)
			} else if f.typ != frameHeaders || f.flags != flagEndHeaders {
				t.Fatalf("got %v", f)
			}
		}
		c.quiet()
		if len(got[0]) != 10 || len(got[1]) != 10 {
			t.Fatalf("%d and %d octets under a window of 10", len(got[0]), len(got[1]))
		}
		// Raising the setting opens every stream's window by the difference.
		c.send(rawFrame(frameSettings, 0, 0, setting(settingInitialWindowSize, 20)))
		if f := c.frame(); f.typ != frameSettings || f.flags != flagAck {
			t.Fatalf("got %v, want the acknowledgement", f)
		}
		for i := 0; i < 2; i++ {
			f := c.frame()
			if f.typ != frameData || len(f.payload) != 10 || f.flags != 0 {
				t.Fatalf("got %v, want ten more octets", f)
			}
			got[f.id/2] = append(got[f.id/2], f.payload...)
		}
		c.quiet()
		c.send(rawFrame(frameWindowUpdate, 0, 3, u32(1000)))
		f := c.frame()
		if f.typ != frameData || f.id != 3 || f.flags != flagEndStream {
			t.Fatalf("got %v, want the rest of stream 3", f)
		}
		if m, err := dnswire.Unpack(append(got[1], f.payload...)); err != nil || len(m.Answers) != 1 {
			t.Fatalf("stream 3 reassembled: %v %v", m, err)
		}
		c.send(rawFrame(frameWindowUpdate, 0, 1, u32(1000)))
		if f := c.frame(); f.typ != frameData || f.id != 1 || f.flags != flagEndStream {
			t.Fatalf("got %v, want the rest of stream 1", f)
		}
		// A new stream starts from the new setting.
		c.send(getFrames(5, hit))
		if f := c.frame(); f.typ != frameHeaders {
			t.Fatalf("got %v", f)
		}
		if f := c.frame(); f.typ != frameData || len(f.payload) != 20 {
			t.Fatalf("got %v, want twenty octets", f)
		}
		// Lowering it can drive a window negative (RFC 9113 §6.9.2): the
		// stream then needs that much more before it moves.
		c.send(rawFrame(frameSettings, 0, 0, setting(settingInitialWindowSize, 0)))
		c.frame()
		c.send(rawFrame(frameWindowUpdate, 0, 5, u32(20)))
		c.quiet()
		c.send(rawFrame(frameWindowUpdate, 0, 5, u32(100)))
		if f := c.frame(); f.typ != frameData || f.flags != flagEndStream {
			t.Fatalf("got %v, want the rest of stream 5", f)
		}
	})
	t.Run("connection window", func(t *testing.T) {
		c := startLoop(t, setting(settingInitialWindowSize, 1<<20)...)
		c.send(requestFrames(1, "GET", "/big?size=100000", nil))
		n, frames := 0, 0
		f := c.frame()
		for f = c.frame(); f.typ == frameData; f = c.frame() { // DATA until the PING acknowledgement
			if n += len(f.payload); len(f.payload) > h2MaxFrame {
				t.Fatalf("a DATA frame of %d octets", len(f.payload))
			}
			if frames++; frames == 4 {
				c.send(rawFrame(framePing, 0, 0, make([]byte, 8)))
			}
		}
		if n != h2InitialWindow || f.typ != framePing {
			t.Fatalf("%d octets under a connection window of 65535, then %v", n, f)
		}
		c.send(rawFrame(frameWindowUpdate, 0, 0, u32(1<<20)))
		for f = c.frame(); f.typ == frameData && f.flags&flagEndStream == 0; f = c.frame() {
			n += len(f.payload)
		}
		if n += len(f.payload); n != 100000 || f.typ != frameData {
			t.Fatalf("%d octets of 100000 in all, last %v", n, f.typ)
		}
	})
	t.Run("held responses are bounded", func(t *testing.T) {
		c := startLoop(t, setting(settingInitialWindowSize, 0)...)
		// One response may always wait, whatever its size; the next that
		// would take the total over the bound is refused.
		c.send(requestFrames(1, "GET", "/big?size=2000000", nil))
		if f := c.frame(); f.typ != frameHeaders || f.id != 1 {
			t.Fatalf("got %v", f)
		}
		c.send(requestFrames(3, "GET", "/big?size=1000", nil))
		if f := c.frame(); f.typ != frameRSTStream || f.id != 3 || binary.BigEndian.Uint32(f.payload) != uint32(codeEnhanceYourCalm) {
			t.Fatalf("got %v, want RST_STREAM ENHANCE_YOUR_CALM", f)
		}
		// An empty response needs no window.
		c.send(requestFrames(5, "GET", "/big?size=0", nil))
		if f := c.frame(); f.typ != frameHeaders || f.id != 5 || f.flags != flagEndHeaders|flagEndStream {
			t.Fatalf("got %v", f)
		}
		// A peer that resets a stream it starved frees what was held.
		c.send(rawFrame(frameRSTStream, 0, 1, u32(0x8)), requestFrames(7, "GET", "/big?size=1000", nil))
		if f := c.frame(); f.typ != frameHeaders || f.id != 7 {
			t.Fatalf("got %v", f)
		}
	})
}

// TestH2RequestBodies: a body is returned as window while it is wanted, a
// DNS message of the largest size passes, one octet more is the handler's
// 413 without waiting for the rest, and what a connection buffers is
// bounded.
func TestH2RequestBodies(t *testing.T) {
	c := startLoop(t)
	chunk := make([]byte, h2MaxFrame)
	// upload opens a POST on stream id and sends total octets of body.
	upload := func(id uint32, path string, total int, end bool) {
		c.send(rawFrame(frameHeaders, flagEndHeaders, id, encodeFields(false, ":method", "POST", ":scheme", "https",
			":path", path, "content-type", ContentType)))
		for sent := 0; sent < total; sent += len(chunk) {
			n, flags := min(len(chunk), total-sent), byte(0)
			if end && sent+n == total {
				flags = flagEndStream
			}
			c.send(rawFrame(frameData, flags, id, chunk[:n]))
		}
	}
	upload(1, "/echo", maxPOSTBody, true)
	if r := c.response(1); !strings.HasSuffix(string(r.body), "length=65535 body=65535") {
		t.Errorf("largest body: %s", r.body)
	}
	if c.credit[0] != maxPOSTBody || c.credit[1] < h2InitialWindow/2 {
		t.Errorf("window returned: connection %d of %d, stream %d", c.credit[0], maxPOSTBody, c.credit[1])
	}
	upload(3, DefaultPath, maxPOSTBody+1+h2MaxFrame, false) // the peer is still sending when the answer is known
	if r := c.response(3); r.status != "413" {
		t.Errorf("64 KiB + 1: status %s", r.status)
	}
	if f := c.reply(); f.typ != frameRSTStream || f.id != 3 || binary.BigEndian.Uint32(f.payload) != uint32(codeNoError) {
		t.Errorf("after the 413: %v, want RST_STREAM NO_ERROR", f)
	}
	// Sixteen bodies of the largest size, none complete, fit under the
	// bound; the first frame of the seventeenth does not.
	id := uint32(5)
	for ; id < 5+2*16; id += 2 {
		upload(id, "/echo", maxPOSTBody, false)
	}
	upload(id, "/echo", h2MaxFrame, false)
	if f := c.reply(); f.typ != frameRSTStream || f.id != id || binary.BigEndian.Uint32(f.payload) != uint32(codeEnhanceYourCalm) {
		t.Errorf("seventeenth body: %v, want RST_STREAM ENHANCE_YOUR_CALM", f)
	}
	// A peer that gives up on its uploads frees what they held.
	for reset := uint32(5); reset < id; reset += 2 {
		c.send(rawFrame(frameRSTStream, 0, reset, u32(0x8)))
	}
	upload(id+2, "/echo", maxPOSTBody, true)
	if r := c.response(id + 2); r.status != "200" {
		t.Errorf("after the resets: %+v", r)
	}
}

// TestH2ConnectionErrors: each ends in GOAWAY with the RFC's code and a
// closed connection, never in a panic or a goroutine left behind.
func TestH2ConnectionErrors(t *testing.T) {
	get := requestFrames(1, "GET", "/echo", nil)
	for _, tc := range []struct {
		name   string
		frames [][]byte
		code   h2Code
	}{
		{"frame over SETTINGS_MAX_FRAME_SIZE", [][]byte{appendFrameHeader(nil, h2MaxFrame+1, frameData, 0, 1)}, codeFrameSize},
		{"HPACK index out of range", [][]byte{rawFrame(frameHeaders, flagEndHeaders, 1, []byte{0xff, 0x7f})}, codeCompression},
		{"DATA on stream 0", [][]byte{rawFrame(frameData, 0, 0, []byte("x"))}, codeProtocol},
		{"DATA on an idle stream", [][]byte{rawFrame(frameData, 0, 5, []byte("x"))}, codeProtocol},
		{"DATA padded beyond its length", [][]byte{rawFrame(frameHeaders, flagEndHeaders, 1,
			encodeFields(false, ":method", "POST", ":scheme", "https", ":path", "/echo")), rawFrame(frameData, flagPadded, 1, []byte{5, 1, 2})}, codeProtocol},
		{"HEADERS on stream 0", [][]byte{rawFrame(frameHeaders, flagEndHeaders, 0, nil)}, codeProtocol},
		{"HEADERS on an even stream", [][]byte{rawFrame(frameHeaders, flagEndHeaders, 2, nil)}, codeProtocol},
		{"HEADERS padded beyond its length", [][]byte{rawFrame(frameHeaders, flagEndHeaders|flagPadded, 1, []byte{9, 0x82})}, codeProtocol},
		{"HEADERS too short for its priority", [][]byte{rawFrame(frameHeaders, flagEndHeaders|flagPriority, 1, []byte{0, 0, 0})}, codeFrameSize},
		{"stream identifier reused", [][]byte{get, get}, codeProtocol},
		{"stream identifier going down", [][]byte{requestFrames(5, "GET", "/echo", nil), requestFrames(3, "GET", "/echo", nil)}, codeProtocol},
		{"frame inside a header block", [][]byte{rawFrame(frameHeaders, 0, 1, []byte{0x82}), rawFrame(framePing, 0, 0, make([]byte, 8))}, codeProtocol},
		{"CONTINUATION of nothing", [][]byte{rawFrame(frameContinuation, flagEndHeaders, 1, nil)}, codeProtocol},
		{"CONTINUATION of another stream", [][]byte{rawFrame(frameHeaders, 0, 1, []byte{0x82}), rawFrame(frameContinuation, flagEndHeaders, 3, nil)}, codeProtocol},
		{"CONTINUATION without end", [][]byte{rawFrame(frameHeaders, 0, 1, make([]byte, 9000)), rawFrame(frameContinuation, 0, 1, make([]byte, 9000))}, codeEnhanceYourCalm},
		{"PRIORITY of the wrong size", [][]byte{rawFrame(framePriority, 0, 1, make([]byte, 4))}, codeFrameSize},
		{"PRIORITY on stream 0", [][]byte{rawFrame(framePriority, 0, 0, make([]byte, 5))}, codeProtocol},
		{"RST_STREAM on an idle stream", [][]byte{rawFrame(frameRSTStream, 0, 1, u32(0))}, codeProtocol},
		{"RST_STREAM of the wrong size", [][]byte{get, rawFrame(frameRSTStream, 0, 1, make([]byte, 5))}, codeFrameSize},
		{"SETTINGS on a stream", [][]byte{rawFrame(frameSettings, 0, 1, nil)}, codeProtocol},
		{"SETTINGS of the wrong size", [][]byte{rawFrame(frameSettings, 0, 0, make([]byte, 7))}, codeFrameSize},
		{"SETTINGS acknowledgement with a payload", [][]byte{rawFrame(frameSettings, flagAck, 0, make([]byte, 6))}, codeFrameSize},
		{"ENABLE_PUSH of 2", [][]byte{rawFrame(frameSettings, 0, 0, setting(settingEnablePush, 2))}, codeProtocol},
		{"INITIAL_WINDOW_SIZE over 2^31-1", [][]byte{rawFrame(frameSettings, 0, 0, setting(settingInitialWindowSize, 1<<31))}, codeFlowControl},
		{"MAX_FRAME_SIZE under 16384", [][]byte{rawFrame(frameSettings, 0, 0, setting(settingMaxFrameSize, 100))}, codeProtocol},
		{"PUSH_PROMISE", [][]byte{rawFrame(framePushPromise, flagEndHeaders, 1, make([]byte, 4))}, codeProtocol},
		{"PING on a stream", [][]byte{rawFrame(framePing, 0, 1, make([]byte, 8))}, codeProtocol},
		{"PING of the wrong size", [][]byte{rawFrame(framePing, 0, 0, make([]byte, 7))}, codeFrameSize},
		{"GOAWAY on a stream", [][]byte{rawFrame(frameGoAway, 0, 1, make([]byte, 8))}, codeProtocol},
		{"WINDOW_UPDATE of the wrong size", [][]byte{rawFrame(frameWindowUpdate, 0, 0, make([]byte, 3))}, codeFrameSize},
		{"WINDOW_UPDATE of zero", [][]byte{rawFrame(frameWindowUpdate, 0, 0, u32(0))}, codeProtocol},
		{"WINDOW_UPDATE past 2^31-1", [][]byte{rawFrame(frameWindowUpdate, 0, 0, u32(1<<31-1))}, codeFlowControl},
		{"WINDOW_UPDATE on an idle stream", [][]byte{rawFrame(frameWindowUpdate, 0, 9, u32(1))}, codeProtocol},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startLoop(t)
			c.send(tc.frames...)
			var f h2Frame
			for f = c.frame(); f.typ != frameGoAway; f = c.frame() {
			}
			if f.id != 0 || len(f.payload) != 8 || binary.BigEndian.Uint32(f.payload[4:]) != uint32(tc.code) {
				t.Errorf("got %v, want GOAWAY with code %d", f, tc.code)
			}
			select {
			case <-c.done:
			case <-time.After(5 * time.Second):
				t.Fatal("the connection is still served after GOAWAY")
			}
			select {
			case <-c.conn.closed:
			default:
				t.Error("the connection was not closed")
			}
		})
	}
	t.Run("first frame is not SETTINGS", func(t *testing.T) {
		c := newLoop(t)
		c.frame()
		c.send([]byte(h2ClientPreface), rawFrame(framePing, 0, 0, make([]byte, 8)))
		if f := c.frame(); f.typ != frameGoAway || binary.BigEndian.Uint32(f.payload[4:]) != uint32(codeProtocol) {
			t.Errorf("got %v, want GOAWAY PROTOCOL_ERROR", f)
		}
	})
	t.Run("GOAWAY names the last stream", func(t *testing.T) {
		c := startLoop(t)
		c.send(requestFrames(7, "GET", "/echo", nil), rawFrame(framePushPromise, 0, 7, nil))
		var f h2Frame
		for f = c.frame(); f.typ != frameGoAway; f = c.frame() {
		}
		if binary.BigEndian.Uint32(f.payload) != 7 {
			t.Errorf("GOAWAY %v, want last stream 7", f)
		}
	})
}

// TestH2StreamErrors: what is wrong with one stream costs that stream.
func TestH2StreamErrors(t *testing.T) {
	c := startLoop(t, setting(settingInitialWindowSize, 0)...)
	hit := dnsQuery(t, 1, "hit.test.")
	c.send(postFrames(1, hit))
	c.frame() // its HEADERS; the body waits for window
	c.send(rawFrame(frameWindowUpdate, 0, 1, u32(0)))
	if f := c.frame(); f.typ != frameRSTStream || f.id != 1 || binary.BigEndian.Uint32(f.payload) != uint32(codeProtocol) {
		t.Errorf("WINDOW_UPDATE of zero on a stream: %v, want RST_STREAM PROTOCOL_ERROR", f)
	}
	// A stream window pushed past 2^31-1 while the connection window holds
	// the response back.
	c = startLoop(t, setting(settingInitialWindowSize, 1<<31-1)...)
	c.send(requestFrames(3, "GET", "/big?size=70000", nil))
	for n := 0; n < h2InitialWindow; {
		if f := c.frame(); f.typ == frameData {
			n += len(f.payload)
		}
	}
	c.send(rawFrame(frameWindowUpdate, 0, 3, u32(h2InitialWindow+1)))
	if f := c.frame(); f.typ != frameRSTStream || f.id != 3 || binary.BigEndian.Uint32(f.payload) != uint32(codeFlowControl) {
		t.Errorf("stream window past 2^31-1: %v, want RST_STREAM FLOW_CONTROL_ERROR", f)
	}
	// Trailers that do not end the stream.
	c.send(rawFrame(frameHeaders, flagEndHeaders, 5, encodeFields(false, ":method", "POST", ":scheme", "https", ":path", "/echo")),
		rawFrame(frameHeaders, flagEndHeaders, 5, encodeFields(false, "x-trailer", "1")))
	if f := c.frame(); f.typ != frameRSTStream || f.id != 5 || binary.BigEndian.Uint32(f.payload) != uint32(codeProtocol) {
		t.Errorf("trailers without END_STREAM: %v, want RST_STREAM PROTOCOL_ERROR", f)
	}
}

// TestH2StreamLimit: the 251st concurrent request is refused, a stream the
// peer resets keeps its slot until its handler has returned (rapid reset
// buys no goroutines), and slots come back.
func TestH2StreamLimit(t *testing.T) {
	c := startLoop(t)
	c.dns.release = make(chan struct{}) // slow.test. ignores its context
	slow := dnsQuery(t, 1, "slow.test.")
	id := uint32(1)
	for i := 0; i < h2MaxStreams; i++ {
		c.send(postFrames(id, slow), rawFrame(frameRSTStream, 0, id, u32(0x8)))
		id += 2
	}
	for i := 0; i < 50; i++ {
		c.send(postFrames(id, slow))
		if f := c.frame(); f.typ != frameRSTStream || f.id != id || binary.BigEndian.Uint32(f.payload) != uint32(codeRefusedStream) {
			t.Fatalf("request %d: %v, want RST_STREAM REFUSED_STREAM", h2MaxStreams+i+1, f)
		}
		id += 2
	}
	// A hit needs no slot but is refused too: the limit is on streams.
	c.send(getFrames(id, slow))
	if f := c.frame(); f.typ != frameRSTStream || binary.BigEndian.Uint32(f.payload) != uint32(codeRefusedStream) {
		t.Fatalf("got %v", f)
	}
	id += 2
	// The last handler counts itself running before it raises peak.
	for c.dns.running.Load() != h2MaxStreams || c.dns.peak.Load() < h2MaxStreams {
		runtime.Gosched()
	}
	if peak := c.dns.peak.Load(); peak != h2MaxStreams {
		t.Errorf("%d handlers ran at once, want %d", peak, h2MaxStreams)
	}
	c.dns.unblock()
	for c.dns.running.Load() != 0 {
		runtime.Gosched()
	}
	c.quiet()
	hit := dnsQuery(t, 2, "hit.test.")
	for i := 0; i < 10; i++ { // the handlers' goroutines free their slots as they get the lock
		c.quiet()
	}
	c.send(postFrames(id, hit))
	wantAnswer(t, c.response(id), hit, dnswire.RCodeSuccess, "max-age=300")
}

// TestH2HandlerPanic: a panic in the fallback handler is an INTERNAL_ERROR
// on its stream, and the connection and the process go on. (A panic in
// the DNS handler never gets this far: the miss half turns it into
// SERVFAIL.)
func TestH2HandlerPanic(t *testing.T) {
	c := startLoop(t)
	c.send(requestFrames(1, "GET", "/panic", nil))
	if f := c.frame(); f.typ != frameRSTStream || f.id != 1 || binary.BigEndian.Uint32(f.payload) != uint32(codeInternal) {
		t.Fatalf("got %v, want RST_STREAM INTERNAL_ERROR", f)
	}
	query := dnsQuery(t, 3, "panic.test.")
	c.send(postFrames(3, query))
	wantAnswer(t, c.response(3), query, dnswire.RCodeServFail, "")
}

// TestH2Burst: sixteen requests that arrive in one read — the doh-hit
// workload's round — are answered in one Write, hits for POST and GET
// alike; a miss among them is answered by its own goroutine, later.
func TestH2Burst(t *testing.T) {
	c := startLoop(t)
	reads, writes := h2Reads.Value(), h2Writes.Value()
	inline, fallback := h2Inline.Value(), h2Fallback.Value()
	var burst [][]byte
	queries := map[uint32][]byte{}
	for i := uint32(0); i < 16; i++ {
		id := 1 + 2*i
		queries[id] = dnsQuery(t, uint16(0x4000+i), "hit.test.")
		if i%2 == 0 {
			burst = append(burst, postFrames(id, queries[id]))
		} else {
			burst = append(burst, getFrames(id, queries[id]))
		}
	}
	c.send(burst...)
	n := <-c.conn.wrote
	c.conn.wrote <- n // for frame()
	for id, q := range queries {
		r := c.response(id)
		wantAnswer(t, r, q, dnswire.RCodeSuccess, "max-age=300")
		if len(r.writes) != 1 {
			t.Errorf("stream %d answered across writes %v", id, r.writes)
		}
	}
	if got := h2Writes.Value() - writes; got != 1 {
		t.Errorf("%d writes for a burst of 16, want 1", got)
	}
	if got := h2Reads.Value() - reads; got > 2 { // the burst, and the one it is or will be blocked in
		t.Errorf("%d reads, want 2", got)
	}
	// The same with a miss in the middle: fifteen in one write, the miss after.
	miss := dnsQuery(t, 0x5000, "miss.test.")
	burst[7] = postFrames(33+14, miss)
	for i := uint32(0); i < 16; i++ {
		if i != 7 {
			id := 33 + 2*i
			queries[id] = dnsQuery(t, uint16(0x4100+i), "hit.test.")
			burst[i] = postFrames(id, queries[id])
		}
	}
	c.send(burst...)
	first := -1
	for i := uint32(0); i < 16; i++ {
		if id := 33 + 2*i; i != 7 {
			r := c.response(id)
			for w := range r.writes {
				if first < 0 {
					first = w
				}
				if w != first {
					t.Errorf("stream %d in write %d, the others in %d", id, w, first)
				}
			}
		}
	}
	r := c.response(47)
	wantAnswer(t, r, miss, dnswire.RCodeSuccess, "max-age=60")
	if r.writes[first] {
		t.Error("the miss was answered in the burst's write: who ran ServeDNS?")
	}
	if got, want := [2]uint64{h2Inline.Value() - inline, h2Fallback.Value() - fallback}, [2]uint64{31, 1}; got != want {
		t.Errorf("doh_h2_requests_total moved by %v (inline, fallback), want %v", got, want)
	}
}

// TestH2InlineCountsLikeServeHTTP: a request answered in the loop moves
// the doh_server_* series exactly as one answered by ServeHTTP does.
func TestH2InlineCountsLikeServeHTTP(t *testing.T) {
	c := startLoop(t)
	post := obs.Default().Counter("doh_server_requests_total", "", "method", "POST")
	get := obs.Default().Counter("doh_server_requests_total", "", "method", "GET")
	latency := func() uint64 { return testutil.HistogramCount(t, "doh_server_seconds") }
	before := [4]uint64{post.Value(), get.Value(), serverErrors.Value(), latency()}
	hit, miss := dnsQuery(t, 1, "hit.test."), dnsQuery(t, 2, "miss.test.")
	c.send(postFrames(1, hit), getFrames(3, hit), getFrames(5, hit), postFrames(7, miss), postFrames(9, []byte("not DNS")))
	for id := uint32(1); id <= 9; id += 2 {
		c.response(id)
	}
	got := [4]uint64{post.Value() - before[0], get.Value() - before[1], serverErrors.Value() - before[2], latency() - before[3]}
	if want := [4]uint64{3, 2, 1, 5}; got != want {
		t.Errorf("POST, GET, errors, latency observations moved by %v, want %v", got, want)
	}
}

// TestH2CountsPerBurst: sixteen POSTs that arrive in one read are answered
// inline in one write, and that write's flush has moved the POST counter
// and the latency count by sixteen before the client sees a response.
func TestH2CountsPerBurst(t *testing.T) {
	c := startLoop(t)
	post := obs.Default().Counter("doh_server_requests_total", "", "method", "POST")
	before := [3]uint64{post.Value(), testutil.HistogramCount(t, "doh_server_seconds"), h2Writes.Value()}
	var burst [][]byte
	for i := uint32(0); i < 16; i++ {
		burst = append(burst, postFrames(1+2*i, dnsQuery(t, uint16(i), "hit.test.")))
	}
	c.send(burst...)
	for i := uint32(0); i < 16; i++ {
		c.response(1 + 2*i)
	}
	got := [3]uint64{post.Value() - before[0], testutil.HistogramCount(t, "doh_server_seconds") - before[1], h2Writes.Value() - before[2]}
	if want := [3]uint64{16, 16, 1}; got != want {
		t.Errorf("POST requests, latency observations, writes moved by %v, want %v", got, want)
	}
}

// TestH2InlineZeroAlloc: in steady state a hit costs no allocation, for
// POST (HEADERS and DATA in one read or two) and for GET.
func TestH2InlineZeroAlloc(t *testing.T) {
	hit := dnsQuery(t, 1, "hit.test.")
	for name, frames := range map[string][]byte{"POST": postFrames(1, hit), "GET": getFrames(1, hit)} {
		for _, split := range []bool{false, true} {
			conn := newMemConn(false)
			h := &Handler{DNS: &testDNS{}}
			done := make(chan struct{})
			go func() { defer close(done); h.serveH2(conn, http.NotFoundHandler(), 0, t.Logf) }()
			conn.feed <- append([]byte(h2ClientPreface), rawFrame(frameSettings, 0, 0, nil)...)
			<-conn.wrote
			<-conn.wrote
			headers := h2FrameHeaderLen + int(frames[2]) // the HEADERS frame's length fits one octet
			id := uint32(1)
			round := func() {
				binary.BigEndian.PutUint32(frames[5:], id)
				if split && len(frames) > headers {
					binary.BigEndian.PutUint32(frames[headers+5:], id)
					conn.feed <- frames[:headers]
					conn.feed <- frames[headers:]
				} else {
					if len(frames) > headers {
						binary.BigEndian.PutUint32(frames[headers+5:], id)
					}
					conn.feed <- frames
				}
				<-conn.wrote
				id += 2
			}
			for i := 0; i < 600; i++ { // past the first connection-level WINDOW_UPDATE
				round()
			}
			if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
				t.Errorf("%s, split %v: %v allocations per request", name, split, allocs)
			}
			conn.Close()
			<-done
		}
	}
}

// TestH2Deadlines: an idle connection is closed after the idle timeout,
// one whose handler is still running is not, and a peer that pipelines
// and never reads costs the connection, not a goroutine.
func TestH2Deadlines(t *testing.T) {
	serve := func(t *testing.T, idle time.Duration) (client net.Conn, dns *testDNS, done chan struct{}) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		dns, done = &testDNS{release: make(chan struct{})}, make(chan struct{})
		h := &Handler{DNS: dns}
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			h.serveH2(conn, h, idle, t.Logf)
		}()
		if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close(); dns.unblock(); <-done })
		if _, err := client.Write(append([]byte(h2ClientPreface), rawFrame(frameSettings, 0, 0, nil)...)); err != nil {
			t.Fatal(err)
		}
		return client, dns, done
	}
	t.Run("idle", func(t *testing.T) {
		start := time.Now()
		_, _, done := serve(t, 100*time.Millisecond)
		select {
		case <-done:
			if d := time.Since(start); d < 100*time.Millisecond {
				t.Errorf("closed after %v", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("idle connection still open after 50 idle timeouts")
		}
	})
	t.Run("handler running", func(t *testing.T) {
		client, dns, done := serve(t, 100*time.Millisecond)
		if _, err := client.Write(postFrames(1, dnsQuery(t, 1, "slow.test."))); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			t.Fatal("closed as idle while a handler was running")
		case <-time.After(400 * time.Millisecond):
		}
		dns.unblock()
		select {
		case <-done: // the response went out, and then the connection was idle
		case <-time.After(5 * time.Second):
			t.Fatal("still open long after the handler returned")
		}
	})
	t.Run("peer never reads", func(t *testing.T) {
		client, _, done := serve(t, 200*time.Millisecond)
		// Windows wide open, then requests for more than any socket buffer holds.
		burst := append(rawFrame(frameSettings, 0, 0, setting(settingInitialWindowSize, 1<<31-1)),
			rawFrame(frameWindowUpdate, 0, 0, u32(1<<31-1-h2InitialWindow))...)
		hit := dnsQuery(t, 1, "hit.test.")
		go func() {
			id := uint32(1)
			for {
				_ = client.SetWriteDeadline(time.Now().Add(5 * time.Second))
				if _, err := client.Write(append(burst, postFrames(id, hit)...)); err != nil {
					return
				}
				burst, id = burst[:0], id+2
			}
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("a peer that never reads still pins the serving goroutine long after the write deadline")
		}
	})
}

// goClientHeaderBlocks returns the header blocks net/http's HTTP/2 client
// produced for a few requests on one connection — Huffman strings, dynamic
// table insertions and references to them — cut from what the server read.
func goClientHeaderBlocks(t testing.TB) [][]byte {
	t.Helper()
	var mu sync.Mutex
	var read []byte
	h := &Handler{DNS: &testDNS{}}
	ts := httptest.NewUnstartedServer(h)
	ts.EnableHTTP2 = true
	ts.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){
		"h2": func(_ *http.Server, conn *tls.Conn, fallback http.Handler) {
			h.serveH2(teeConn{conn, &mu, &read}, fallback, 0, t.Logf)
		},
	}
	ts.StartTLS()
	defer ts.Close()
	for i, name := range []string{"hit.test.", "miss.test.", "hit.test."} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+DefaultPath, bytes.NewReader(dnsQuery(t, uint16(i), name)))
		req.Header.Set("Content-Type", ContentType)
		req.Header.Set("X-Request-Id", strings.Repeat(strconv.Itoa(i), 50))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	var blocks [][]byte
	for b := read[len(h2ClientPreface):]; len(b) >= h2FrameHeaderLen; {
		n := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
		if b[3] == frameHeaders { // net/http neither pads nor sets priority, and these blocks fit a frame
			blocks = append(blocks, bytes.Clone(b[h2FrameHeaderLen:h2FrameHeaderLen+n]))
		}
		b = b[h2FrameHeaderLen+n:]
	}
	if len(blocks) != 3 {
		t.Fatalf("%d header blocks captured from 3 requests", len(blocks))
	}
	return blocks
}

// teeConn appends what is read from it to *read.
type teeConn struct {
	net.Conn
	mu   *sync.Mutex
	read *[]byte
}

func (c teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	*c.read = append(*c.read, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// TestHPACKDecodesGoClient: the blocks net/http's client writes decode to
// the requests it was given, the later ones against the table the earlier
// ones built.
func TestHPACKDecodesGoClient(t *testing.T) {
	d := hpackDecoder{maxSize: hpackTableSize}
	for i, block := range goClientHeaderBlocks(t) {
		list, tooLarge, err := d.decode(nil, block, h2MaxHeaderList)
		if err != nil || tooLarge {
			t.Fatalf("block %d: %v, too large %v", i, err, tooLarge)
		}
		got := fieldsOf(list)
		for _, want := range []string{":method: POST\n", ":path: /dns-query\n", ":scheme: https\n", "content-type: application/dns-message\n",
			"x-request-id: " + strings.Repeat(strconv.Itoa(i), 50) + "\n", "content-length: "} {
			if !strings.Contains(got, want) {
				t.Errorf("block %d lacks %q:\n%s", i, want, got)
			}
		}
		if i > 0 && len(block) > 80 {
			t.Errorf("block %d is %d octets: the client did not use the table, and this test no longer tests it", i, len(block))
		}
	}
	if d.n == 0 {
		t.Error("the client inserted nothing into the table")
	}
}

// benchDoHBurst is the doh-hit workload's round without a generator to
// speak of: sixteen POSTs, hits, written to one HTTP/2 connection over
// loopback TLS in one record, and their sixteen responses read back. b.N
// counts requests. With loop unset the server is net/http's own.
func benchDoHBurst(b *testing.B, loop bool) {
	const window = 16
	h := &Handler{DNS: &testDNS{}}
	ts := httptest.NewUnstartedServer(h)
	ts.EnableHTTP2 = true
	if loop {
		ts.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": h.ServeH2}
	}
	ts.StartTLS()
	defer ts.Close()
	cfg := ts.Client().Transport.(*http.Transport).TLSClientConfig.Clone()
	cfg.NextProtos = []string{"h2"}
	conn, err := tls.Dial("tcp", ts.Listener.Addr().String(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	// Windows wide open, so that the client never has to return any.
	if _, err := conn.Write(bytes.Join([][]byte{[]byte(h2ClientPreface),
		rawFrame(frameSettings, 0, 0, setting(settingInitialWindowSize, 1<<30)),
		rawFrame(frameWindowUpdate, 0, 0, u32(1<<31-1-h2InitialWindow))}, nil)); err != nil {
		b.Fatal(err)
	}
	request := postFrames(1, dnsQuery(b, 1, "hit.test."))
	data := h2FrameHeaderLen + int(request[2]) // where the DATA frame starts
	burst := bytes.Repeat(request, window)
	in, r, w := make([]byte, 64<<10), 0, 0
	id := uint32(1)
	round := func(n int) {
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint32(burst[i*len(request)+5:], id)
			binary.BigEndian.PutUint32(burst[i*len(request)+data+5:], id)
			id += 2
		}
		if _, err := conn.Write(burst[:n*len(request)]); err != nil {
			b.Fatal(err)
		}
		for ended := 0; ended < n; {
			for w-r < h2FrameHeaderLen || w-r < h2FrameHeaderLen+int(in[r])<<16+int(in[r+1])<<8+int(in[r+2]) {
				w, r = copy(in, in[r:w]), 0
				m, err := conn.Read(in[w:])
				if err != nil {
					b.Fatal(err)
				}
				w += m
			}
			typ, flags := in[r+3], in[r+4]
			r += h2FrameHeaderLen + int(in[r])<<16 + int(in[r+1])<<8 + int(in[r+2])
			switch {
			case typ == frameRSTStream || typ == frameGoAway:
				b.Fatalf("frame of type %d from the server", typ)
			case (typ == frameData || typ == frameHeaders) && flags&flagEndStream != 0:
				ended++
			case typ == frameSettings && flags&flagAck == 0:
				if _, err := conn.Write(rawFrame(frameSettings, flagAck, 0, nil)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	round(window)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += window {
		round(min(window, b.N-done))
	}
}

// BenchmarkDoHBurst is sixteen hits a round through the burst loop: one
// read, one write and one TLS record each way.
func BenchmarkDoHBurst(b *testing.B) { benchDoHBurst(b, true) }

// BenchmarkDoHBurstNetHTTP is the same traffic through net/http's HTTP/2
// server and ServeHTTP: the reference the loop has to beat to stay.
func BenchmarkDoHBurstNetHTTP(b *testing.B) { benchDoHBurst(b, false) }
