package doh_test

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/netsim"
	"encdns/internal/transport"
)

// The differential for the fresh-connection client: the parent's fresh
// path — net/http with keep-alives off, which is what doh.NewClient built
// before the one-shot exchange replaced it — is the reference, and both
// clients must come back with the same parsed message or errors of the same
// transport.Classify class, whatever the server.

const freshID = 0x4242

// sizedAnswer is a DNS message of exactly n octets answering id and
// echoing question: one record of a private type whose RDATA fills the
// rest.
func sizedAnswer(id uint16, question []byte, n int) []byte {
	msg := dnswire.AppendRawHeader(nil, id, 0x8180, 1, 1, 0, 0)
	msg = append(msg, question...)
	msg = append(msg, 0, 0xff, 0x00, 0, 1, 0, 0, 0, 0) // root, TYPE65280, IN, TTL 0
	msg = binary.BigEndian.AppendUint16(msg, uint16(n-len(msg)-2))
	return append(msg, make([]byte, n-len(msg))...)
}

// requestQuery is the ID and raw question of the query a DoH request
// carries.
func requestQuery(r *http.Request) (uint16, []byte) {
	var wire []byte
	if r.Method == http.MethodGet {
		wire, _ = base64.RawURLEncoding.DecodeString(r.URL.Query().Get("dns"))
	} else {
		wire, _ = io.ReadAll(r.Body)
	}
	question, ok := dnswire.QuestionBytes(wire)
	if !ok {
		return 0, nil
	}
	return binary.BigEndian.Uint16(wire), question
}

// freshMux serves the DoH handler at DefaultPath and, beside it, one path
// per outcome the differential asks both clients about.
func freshMux(h *doh.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle(doh.DefaultPath, h)
	for _, code := range []int{400, 415, 500} {
		mux.HandleFunc("/status/"+strconv.Itoa(code), func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "refused", code)
		})
	}
	message := func(w http.ResponseWriter, body []byte) {
		w.Header().Set("Content-Type", doh.ContentType)
		_, _ = w.Write(body)
	}
	mux.HandleFunc("/size/", func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/size/"))
		id, question := requestQuery(r)
		message(w, sizedAnswer(id, question, n))
	})
	mux.HandleFunc("/wrong-id", func(w http.ResponseWriter, r *http.Request) {
		id, question := requestQuery(r)
		message(w, sizedAnswer(^id, question, 100))
	})
	mux.HandleFunc("/truncated", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		id, question := requestQuery(r)
		message(w, sizedAnswer(id, question, 100)[:50])
	})
	mux.HandleFunc("/close-mid-body", func(w http.ResponseWriter, r *http.Request) {
		id, question := requestQuery(r)
		body := sizedAnswer(id, question, 100)
		if hj, ok := w.(http.Hijacker); ok { // HTTP/1.1: hang up after half the body
			conn, buf, err := hj.Hijack()
			if err == nil {
				_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: " + doh.ContentType + "\r\nContent-Length: 100\r\n\r\n")
				_, _ = buf.Write(body[:50])
				_ = buf.Flush()
				conn.Close()
			}
			return
		}
		w.Header().Set("Content-Type", doh.ContentType)
		_, _ = w.Write(body[:50])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // HTTP/2: the stream is reset
	})
	mux.HandleFunc("/early-hints", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Link", "</style.css>; rel=preload")
		w.WriteHeader(http.StatusEarlyHints)
		h.ServeHTTP(w, r)
	})
	mux.HandleFunc("/trailers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", "X-Done")
		h.ServeHTTP(w, r)
		w.Header().Set("X-Done", "1")
	})
	mux.HandleFunc("/ua", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("User-Agent") != freshUA {
			http.Error(w, "who are you", http.StatusForbidden)
			return
		}
		h.ServeHTTP(w, r)
	})
	return mux
}

const freshUA = "encdns-differential/1"

// h2Frame is one raw HTTP/2 frame.
func h2Frame(typ, flags byte, id uint32, payload ...[]byte) []byte {
	p := bytes.Join(payload, nil)
	f := []byte{byte(len(p) >> 16), byte(len(p) >> 8), byte(len(p)), typ, flags}
	return append(binary.BigEndian.AppendUint32(f, id), p...)
}

const (
	fData, fHeaders, fRST, fSettings, fPing, fGoAway, fContinuation = 0x0, 0x1, 0x3, 0x4, 0x6, 0x7, 0x9
	endStream, endHeaders, padded                                   = 0x1, 0x4, 0x8
)

// literal is an HPACK literal field without indexing, new name, no Huffman.
func literal(name, value string) []byte {
	return append(append(append([]byte{0, byte(len(name))}, name...), byte(len(value))), value...)
}

// scriptedH2 is a TLS server speaking h2 only, which sends its SETTINGS,
// waits for the end of the request on stream 1, writes script and, with
// hangUp, closes; else it reads until the client does.
func scriptedH2(t *testing.T, script []byte, hangUp bool) (string, *tls.Config) {
	t.Helper()
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := ca.ServerConfig(nil, []net.IP{net.ParseIP("127.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	srvTLS.NextProtos = []string{"h2"}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", srvTLS)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serveScript(conn, script, hangUp)
		}
	}()
	return "https://" + ln.Addr().String(), ca.ClientConfig("127.0.0.1")
}

func serveScript(conn net.Conn, script []byte, hangUp bool) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(h2Frame(fSettings, 0, 0)); err != nil {
		return
	}
	if _, err := io.ReadFull(conn, make([]byte, 24)); err != nil { // the client preface
		return
	}
	for hdr := make([]byte, 9); ; {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		if _, err := io.CopyN(io.Discard, conn, int64(hdr[0])<<16|int64(hdr[1])<<8|int64(hdr[2])); err != nil {
			return
		}
		if (hdr[3] == fHeaders || hdr[3] == fData) && hdr[4]&endStream != 0 && binary.BigEndian.Uint32(hdr[5:]) == 1 {
			break
		}
	}
	if _, err := conn.Write(script); err != nil || hangUp {
		return
	}
	_, _ = io.Copy(io.Discard, conn)
}

func TestFreshMatchesNetHTTP(t *testing.T) {
	h := &doh.Handler{DNS: newDiffResolver()}
	mux := freshMux(h)
	start := func(h2, loop bool) *httptest.Server {
		ts := httptest.NewUnstartedServer(mux)
		ts.EnableHTTP2 = h2
		ts.Config.ErrorLog = log.New(io.Discard, "", 0) // aborted handlers are expected
		if loop {
			ts.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": h.ServeH2}
		}
		ts.StartTLS()
		t.Cleanup(ts.Close)
		return ts
	}
	type server struct {
		name    string
		base    string
		tls     *tls.Config
		paths   []string
		answers func(path, ua string) bool // what the reference is expected to succeed on
	}
	paths := []string{doh.DefaultPath, doh.DefaultPath + "#nx", "/status/400", "/nowhere", "/status/415", "/status/500",
		"/size/65535", "/size/65536", "/wrong-id", "/truncated", "/close-mid-body", "/early-hints", "/trailers", "/ua"}
	answers := func(path, ua string) bool {
		switch path {
		case doh.DefaultPath, doh.DefaultPath + "#nx", "/size/65535", "/early-hints", "/trailers":
			return true
		}
		return path == "/ua" && ua != ""
	}
	var servers []server
	for _, s := range []struct {
		name     string
		h2, loop bool
	}{{"dohserver (ServeH2)", true, true}, {"net/http h2", true, false}, {"net/http HTTP/1.1 only", false, false}} {
		ts := start(s.h2, s.loop)
		servers = append(servers, server{s.name, ts.URL, ts.Client().Transport.(*http.Transport).TLSClientConfig, paths, answers})
	}

	answer, err := dnswire.NewQuery(freshID, "www.example.com.", dnswire.TypeA).Reply().Pack()
	if err != nil {
		t.Fatal(err)
	}
	ct := literal("content-type", doh.ContentType)
	ok200 := append([]byte{0x88}, ct...) // :status 200, static index 8
	frames := func(f ...[]byte) []byte { return bytes.Join(f, nil) }
	for _, s := range []struct {
		name    string
		script  []byte
		hangUp  bool
		answers bool
	}{
		{"answer", frames(h2Frame(fHeaders, endHeaders, 1, ok200), h2Frame(fData, endStream, 1, answer)), false, true},
		{"PING mid-response", frames(h2Frame(fHeaders, endHeaders, 1, ok200), h2Frame(fPing, 0, 0, []byte("pingpong")),
			h2Frame(fData, endStream, 1, answer)), false, true},
		{"103 before 200", frames(h2Frame(fHeaders, endHeaders, 1, literal(":status", "103"), literal("link", "</a>")),
			h2Frame(fHeaders, endHeaders, 1, ok200), h2Frame(fData, endStream, 1, answer)), false, true},
		{"trailers", frames(h2Frame(fHeaders, endHeaders, 1, ok200), h2Frame(fData, 0, 1, answer),
			h2Frame(fHeaders, endHeaders|endStream, 1, literal("x-done", "1"))), false, true},
		{"padded HEADERS and DATA", frames(h2Frame(fHeaders, endHeaders|padded, 1, []byte{4}, ok200, make([]byte, 4)),
			h2Frame(fData, endStream|padded, 1, []byte{3}, answer, make([]byte, 3))), false, true},
		{"HEADERS split over CONTINUATION", frames(h2Frame(fHeaders, 0, 1, ok200[:1]), h2Frame(fContinuation, 0, 1, ok200[1:5]),
			h2Frame(fContinuation, endHeaders, 1, ok200[5:]), h2Frame(fData, endStream, 1, answer)), false, true},
		{"404", h2Frame(fHeaders, endHeaders|endStream, 1, []byte{0x8d}), false, false}, // :status 404, static index 13
		{"GOAWAY before the response", h2Frame(fGoAway, 0, 0, make([]byte, 4), []byte{0, 0, 0, 0xb}), true, false},
		{"GOAWAY, then close", h2Frame(fGoAway, 0, 0, []byte{0, 0, 0, 1}, make([]byte, 4)), true, false},
		{"RST_STREAM on stream 1", h2Frame(fRST, 0, 1, []byte{0, 0, 0, 2}), false, false},
		{"close mid-body", frames(h2Frame(fHeaders, endHeaders, 1, ok200), h2Frame(fData, 0, 1, answer[:10])), true, false},
	} {
		base, cfg := scriptedH2(t, s.script, s.hangUp)
		servers = append(servers, server{"scripted h2: " + s.name, base, cfg, []string{doh.DefaultPath},
			func(string, string) bool { return s.answers }})
	}

	for _, srv := range servers {
		for _, path := range srv.paths {
			for _, method := range []doh.Method{doh.MethodPOST, doh.MethodGET} {
				for _, ua := range []string{"", freshUA} {
					name := strings.Join([]string{srv.name, path, map[doh.Method]string{doh.MethodPOST: "POST", doh.MethodGET: "GET"}[method], ua}, " ")
					t.Run(name, func(t *testing.T) {
						qname := "www.example.com."
						if strings.HasSuffix(path, "#nx") {
							qname = "nx.example.com."
						}
						endpoint := srv.base + strings.TrimSuffix(path, "#nx")
						reference := &doh.Client{HTTP: &http.Client{Transport: &http.Transport{
							TLSClientConfig: srv.tls.Clone(), DisableKeepAlives: true, ForceAttemptHTTP2: true}}}
						oneShot := doh.NewClient(srv.tls, nil, false)
						var resp [2]*dnswire.Message
						var errs [2]error
						for i, c := range []*doh.Client{reference, oneShot} {
							c.Method, c.UserAgent, c.Timeout = method, ua, 3*time.Second
							resp[i], errs[i] = c.Exchange(context.Background(), dnswire.NewQuery(freshID, qname, dnswire.TypeA), endpoint)
						}
						if answers := srv.answers(path, ua); answers != (errs[0] == nil) {
							t.Errorf("the reference answers %v, the test expects %v: %v", errs[0] == nil, answers, errs[0])
						}
						if errs[0] != nil || errs[1] != nil {
							if got, want := transport.Classify(errs[1]), transport.Classify(errs[0]); got != want || got == netsim.ErrTimeout {
								t.Errorf("net/http: %v (%v)\none-shot: %v (%v)", errs[0], want, errs[1], got)
							}
							return
						}
						want, _ := resp[0].Pack()
						got, _ := resp[1].Pack()
						if !bytes.Equal(got, want) {
							t.Errorf("one-shot answer %x, net/http %x", got, want)
						}
					})
				}
			}
		}
	}
}
