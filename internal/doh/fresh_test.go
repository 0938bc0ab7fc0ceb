package doh

import (
	"bytes"
	"net/http/httptrace"
	"strconv"
	"testing"

	"encdns/internal/dnswire"
)

// TestAppendHeadersSplitsBlock: a header block over one frame goes out as
// HEADERS and CONTINUATION frames; END_STREAM, which only HEADERS may
// carry, is on the first and END_HEADERS on the last (RFC 9113 §6.10).
// The client's requests and the server's responses both take this path.
func TestAppendHeadersSplitsBlock(t *testing.T) {
	block := bytes.Repeat([]byte{0x88}, 2*h2MaxFrame+10)
	out := appendHeaders(nil, true, 3, block)
	var got []byte
	for i, want := range []struct{ typ, flags byte }{
		{frameHeaders, flagEndStream}, {frameContinuation, 0}, {frameContinuation, flagEndHeaders},
	} {
		n := int(out[0])<<16 | int(out[1])<<8 | int(out[2])
		if out[3] != want.typ || out[4] != want.flags || out[8] != 3 {
			t.Errorf("frame %d: type %d flags %#x stream %d", i, out[3], out[4], out[8])
		}
		got, out = append(got, out[9:9+n]...), out[9+n:]
	}
	if len(out) != 0 || !bytes.Equal(got, block) {
		t.Errorf("%d octets left over; block reassembled: %v", len(out), bytes.Equal(got, block))
	}
	if out := appendHeaders(nil, false, 1, []byte{0x88}); !bytes.Equal(out, rawFrame(frameHeaders, flagEndHeaders, 1, []byte{0x88})) {
		t.Errorf("a one-frame block: %x", out)
	}
}

// fuzzConn is a server that sent in and hung up; it counts what is
// written back.
type fuzzConn struct {
	in    *bytes.Reader
	wrote int
}

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { c.wrote += len(p); return len(p), nil }

// FuzzFreshResponse drives the fresh-connection response reader, over
// HTTP/2 and over HTTP/1.1, with whatever a server might send. It must not
// panic, must return once the input is exhausted, must write no more than
// it read (acknowledgements only), must hold no more than a frame and a DNS
// message, and must return a message only from a 200 response. Whether
// the message answers the query is transport's check, made of every
// scheme's response alike (FuzzClientResponse in dns53 drives it).
func FuzzFreshResponse(f *testing.F) {
	query := dnswire.NewQuery(0x4242, "hit.test.", dnswire.TypeA)
	answer, err := query.Reply().Pack()
	if err != nil {
		f.Fatal(err)
	}
	settings := rawFrame(frameSettings, 0, 0, nil)
	ok200 := append([]byte{0x88}, encodeFields(false, "content-type", ContentType)...)
	f.Add(bytes.Join([][]byte{settings, rawFrame(frameHeaders, flagEndHeaders, 1, ok200), rawFrame(frameData, flagEndStream, 1, answer)}, nil))
	f.Add(bytes.Join([][]byte{settings, rawFrame(framePing, 0, 0, make([]byte, 8)), rawFrame(frameHeaders, flagEndHeaders, 1, encodeFields(true, ":status", "103")),
		rawFrame(frameHeaders, flagPadded, 1, append([]byte{2, 0x88}, 0, 0)), rawFrame(frameContinuation, flagEndHeaders, 1, nil),
		rawFrame(frameData, flagPadded, 1, append(append([]byte{1}, answer...), 0)), rawFrame(frameHeaders, flagEndHeaders|flagEndStream, 1, encodeFields(false, "x", "y"))}, nil))
	f.Add(bytes.Join([][]byte{settings, rawFrame(frameGoAway, 0, 0, append(u32(1), u32(0)...)), rawFrame(frameHeaders, flagEndHeaders, 1, []byte{0x48, 3, '2', '0', '0'}),
		rawFrame(frameHeaders, flagEndHeaders|flagEndStream, 1, []byte{0xbe})}, nil))
	f.Add(bytes.Join([][]byte{settings, rawFrame(frameRSTStream, 0, 1, u32(2))}, nil))
	f.Add(append([]byte("HTTP/1.1 200 OK\r\nContent-Type: "+ContentType+"\r\nContent-Length: "+strconv.Itoa(len(answer))+"\r\n\r\n"), answer...))
	f.Add(append([]byte("HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"+strconv.FormatInt(int64(len(answer)), 16)+"\r\n"),
		append(answer, "\r\n0\r\nX-Done: 1\r\n\r\n"...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, h2 := range []bool{true, false} {
			conn := &fuzzConn{in: bytes.NewReader(data)}
			in, body := make([]byte, 0, 4096), make([]byte, 0, 4096)
			msg, err := readResponse(conn, h2, &httptrace.ClientTrace{}, &in, &body)
			if conn.wrote > len(data) {
				t.Fatalf("h2 %v: %d octets written for %d read", h2, conn.wrote, len(data))
			}
			if cap(in) > 2*(h2FrameHeaderLen+h2MaxFrame) || cap(body) > 2*dnswire.MaxMessageSize {
				t.Fatalf("h2 %v: buffers grew to %d and %d octets", h2, cap(in), cap(body))
			}
			if err != nil {
				continue
			}
			if !h2 && !bytes.Contains(data, []byte(" 200")) {
				t.Fatalf("h2 %v: returned %v", h2, msg)
			}
		}
	})
}
