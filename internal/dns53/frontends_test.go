// One handler behind every frontend: the same query must come back as the
// same bytes whichever transport carried it, because they all answer
// through dns53.Answer or its two halves. External package for the same
// import-cycle reason as template_test.go.
package dns53_test

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"encdns/internal/certs"
	"encdns/internal/dns53"
	"encdns/internal/dnswire"
	"encdns/internal/doh"
	"encdns/internal/dot"
	"encdns/internal/obs"
	"encdns/internal/resolver"
)

// scriptedResolver is fixedClockForwarder's cache (template hits for
// www. and big.example.com., plus a cached NXDOMAIN) in front of a
// ServeDNS scripted by query name, so every way a miss can end is one
// query away and nothing is cached by asking.
type scriptedResolver struct{ *resolver.Forwarder }

func newScriptedResolver() scriptedResolver {
	f := fixedClockForwarder()
	f.Cache.PutNegative("gone.example.com.", dnswire.TypeA, true, 60)
	return scriptedResolver{f}
}

func (h scriptedResolver) ServeDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	q0 := q.Question0()
	r := q.Reply()
	r.Header.RA = true
	switch q0.Name {
	case "miss.example.com.":
		r.Answers = []dnswire.Record{{Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")}}}
	case "nx.example.com.":
		r.Header.RCode = dnswire.RCodeNXDomain
		r.Authority = []dnswire.Record{{Name: "example.com.", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 60,
			Data: &dnswire.SOA{MName: "ns.example.com.", RName: "root.example.com.", Serial: 1, Minimum: 60}}}
	case "bigmiss.example.com.":
		r.Answers = bigTXT(q0.Name)
	case "error.example.com.":
		return nil, errors.New("upstream on fire")
	case "panic.example.com.":
		panic("boom")
	default:
		return h.Forwarder.ServeDNS(ctx, q)
	}
	return r, nil
}

// frontend sends one packed query over its transport and returns the DNS
// payload of the answer.
type frontend struct {
	name     string
	exchange func(t *testing.T, query []byte) []byte
}

func streamExchange(t *testing.T, conn net.Conn, query []byte) []byte {
	t.Helper()
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(framed(query)); err != nil {
		t.Fatal(err)
	}
	resp, err := dns53.ReadTCPMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func httpExchange(t *testing.T, client *http.Client, req *http.Request, contentType string) []byte {
	t.Helper()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != contentType {
		t.Fatalf("HTTP %s, Content-Type %q: %s", resp.Status, resp.Header.Get("Content-Type"), body)
	}
	return body
}

// startFrontends serves h on all seven frontends: UDP, TCP and DoT from one
// dns53.Server, and DoH (through net/http alone, and over HTTP/2 through
// the burst loop) from httptest servers.
func startFrontends(t *testing.T, h dns53.Handler) []frontend {
	t.Helper()
	srv := &dns53.Server{Handler: h}
	t.Cleanup(srv.Shutdown)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeUDP(pc)
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(tcp)
	ca, err := certs.NewCA(0)
	if err != nil {
		t.Fatal(err)
	}
	serverTLS, err := ca.ServerConfig([]string{"dot.test"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tlsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&dot.Server{DNS: srv, TLS: serverTLS}).Serve(tlsLn)
	dohHandler := &doh.Handler{DNS: h}
	dohSrv := httptest.NewServer(dohHandler)
	t.Cleanup(dohSrv.Close)
	loopSrv := httptest.NewUnstartedServer(dohHandler)
	loopSrv.EnableHTTP2 = true
	loopSrv.Config.TLSNextProto = map[string]func(*http.Server, *tls.Conn, http.Handler){"h2": dohHandler.ServeH2}
	loopSrv.StartTLS()
	t.Cleanup(loopSrv.Close)
	dohPost := func(srv *httptest.Server) func(*testing.T, []byte) []byte {
		return func(t *testing.T, query []byte) []byte {
			req, _ := http.NewRequest(http.MethodPost, srv.URL+doh.DefaultPath, bytes.NewReader(query))
			req.Header.Set("Content-Type", doh.ContentType)
			return httpExchange(t, srv.Client(), req, doh.ContentType)
		}
	}
	dohGet := func(srv *httptest.Server) func(*testing.T, []byte) []byte {
		return func(t *testing.T, query []byte) []byte {
			req, _ := http.NewRequest(http.MethodGet,
				srv.URL+doh.DefaultPath+"?dns="+base64.RawURLEncoding.EncodeToString(query), nil)
			return httpExchange(t, srv.Client(), req, doh.ContentType)
		}
	}

	return []frontend{
		{"udp", func(t *testing.T, query []byte) []byte {
			conn, err := net.Dial("udp", pc.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(query); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 65536)
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			return buf[:n]
		}},
		{"tcp", func(t *testing.T, query []byte) []byte {
			conn, err := net.Dial("tcp", tcp.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			return streamExchange(t, conn, query)
		}},
		{"dot", func(t *testing.T, query []byte) []byte {
			conn, err := tls.Dial("tcp", tlsLn.Addr().String(), ca.ClientConfig("dot.test"))
			if err != nil {
				t.Fatal(err)
			}
			return streamExchange(t, conn, query)
		}},
		{"doh-post", dohPost(dohSrv)},
		{"doh-get", dohGet(dohSrv)},
		{"doh-post-loop", dohPost(loopSrv)},
		{"doh-get-loop", dohGet(loopSrv)},
	}
}

// upperCased returns query with the letters of its question name in upper
// case: the spelling only the template path echoes.
func upperCased(query []byte) []byte {
	out := bytes.Clone(query)
	for off := 12; out[off] != 0; off += 1 + int(out[off]) {
		copy(out[off+1:], bytes.ToUpper(out[off+1:off+1+int(out[off])]))
	}
	return out
}

// inMemoryScripted is scriptedResolver promising to answer from memory,
// which it does: its misses are scripted, and the Forwarder behind them
// has no upstream to wait on. Every frontend answers its misses in line.
type inMemoryScripted struct{ scriptedResolver }

func (inMemoryScripted) InMemory() bool { return true }

// answerCase is one query every frontend must answer with the same bytes.
type answerCase struct {
	name    string
	query   []byte
	rcode   dnswire.RCode
	answers int
	echoed  bool // the question comes back in the client's spelling
}

func scriptedCases(t *testing.T, prefix string) []answerCase {
	return []answerCase{
		{prefix + "template hit", upperCased(packQuery(t, 0x1001, "www.example.com.", dnswire.TypeA, 0)), dnswire.RCodeSuccess, 1, true},
		{prefix + "template hit, EDNS", packQuery(t, 0x1002, "www.example.com.", dnswire.TypeA, 1232), dnswire.RCodeSuccess, 1, true},
		{prefix + "cached NXDOMAIN", upperCased(packQuery(t, 0x1003, "gone.example.com.", dnswire.TypeA, 0)), dnswire.RCodeNXDomain, 0, true},
		{prefix + "miss", upperCased(packQuery(t, 0x1004, "miss.example.com.", dnswire.TypeA, 0)), dnswire.RCodeSuccess, 1, false},
		{prefix + "NXDOMAIN", packQuery(t, 0x1005, "nx.example.com.", dnswire.TypeA, 0), dnswire.RCodeNXDomain, 0, true},
		{prefix + "handler error", packQuery(t, 0x1006, "error.example.com.", dnswire.TypeA, 0), dnswire.RCodeServFail, 0, true},
		{prefix + "handler panic", packQuery(t, 0x1007, "panic.example.com.", dnswire.TypeA, 0), dnswire.RCodeServFail, 0, true},
	}
}

func TestEveryFrontendAnswersAlike(t *testing.T) {
	answerAlike(t, startFrontends(t, newScriptedResolver()), scriptedCases(t, ""))
	answerAlike(t, startFrontends(t, inMemoryScripted{newScriptedResolver()}), scriptedCases(t, "in memory: "))
	// The resolvers dohserver runs: the hierarchy walked in memory (a
	// closed cache, so every frontend's query is a miss) and a zone.
	answerAlike(t, startFrontends(t, registryResolver(0)), []answerCase{
		{"recursive miss", upperCased(packQuery(t, 0x3001, "google.com.", dnswire.TypeA, 0)), dnswire.RCodeSuccess, 1, false},
		{"recursive miss, CNAME chased", packQuery(t, 0x3002, "www.amazon.com.", dnswire.TypeA, 1232), dnswire.RCodeSuccess, 4, true},
		{"recursive NXDOMAIN", packQuery(t, 0x3003, "0123abcd.wikipedia.com.", dnswire.TypeA, 0), dnswire.RCodeNXDomain, 0, true},
	})
	answerAlike(t, startFrontends(t, exampleZone()), []answerCase{
		{"zone answer", packQuery(t, 0x3101, "www.example.com.", dnswire.TypeA, 0), dnswire.RCodeSuccess, 1, true},
		{"zone NXDOMAIN", packQuery(t, 0x3102, "nx.example.com.", dnswire.TypeA, 0), dnswire.RCodeNXDomain, 0, true},
		{"zone REFUSED", packQuery(t, 0x3103, "google.com.", dnswire.TypeA, 0), dnswire.RCodeRefused, 0, true},
	})
}

// answerAlike asks every frontend each case's query and wants one answer.
func answerAlike(t *testing.T, frontends []frontend, cases []answerCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first []byte
			for _, fe := range frontends {
				got := fe.exchange(t, tc.query)
				if first == nil {
					first = got
					m, err := dnswire.Unpack(got)
					if err != nil {
						t.Fatalf("%s: %v", fe.name, err)
					}
					if m.Header.ID != binary.BigEndian.Uint16(tc.query) || m.Header.RCode != tc.rcode || len(m.Answers) != tc.answers || m.Header.TC {
						t.Fatalf("%s answered %v", fe.name, m)
					}
					question, _ := dnswire.QuestionBytes(tc.query)
					if echoed := bytes.Equal(got[12:12+len(question)], question); echoed != tc.echoed {
						t.Fatalf("%s: question echoed verbatim = %v, want %v", fe.name, echoed, tc.echoed)
					}
					continue
				}
				if !bytes.Equal(got, first) {
					t.Errorf("%s differs from %s:\n got %x\nwant %x", fe.name, frontends[0].name, got, first)
				}
			}
		})
	}
}

// TestOverLimitAnswerOnUDP: an answer over the client's UDP limit comes
// back as header and question with TC, the same whether the template or
// ServeDNS produced it, in a worker or in line, and whole over every other
// frontend.
func TestOverLimitAnswerOnUDP(t *testing.T) {
	overLimitOnUDP(t, startFrontends(t, newScriptedResolver()))
	overLimitOnUDP(t, startFrontends(t, inMemoryScripted{newScriptedResolver()}))
}

func overLimitOnUDP(t *testing.T, frontends []frontend) {
	var cuts [][]byte
	for _, name := range []string{"big.example.com.", "bigmiss.example.com."} {
		query := packQuery(t, 0x2001, name, dnswire.TypeTXT, 0)
		question, _ := dnswire.QuestionBytes(query)
		for _, fe := range frontends {
			got := fe.exchange(t, query)
			m, err := dnswire.Unpack(got)
			if err != nil {
				t.Fatalf("%s %s: %v", name, fe.name, err)
			}
			if fe.name != "udp" {
				if m.Header.TC || len(m.Answers) != 40 {
					t.Errorf("%s %s: TC=%v answers=%d, want the whole answer", name, fe.name, m.Header.TC, len(m.Answers))
				}
				continue
			}
			if !m.Header.TC || len(got) != 12+len(question) || !bytes.Equal(got[12:], question) ||
				!bytes.Equal(got[4:12], []byte{0, 1, 0, 0, 0, 0, 0, 0}) {
				t.Errorf("%s udp: %x, want header + question with TC", name, got)
			}
			cuts = append(cuts, got[:12])
		}
	}
	if len(cuts) == 2 && !bytes.Equal(cuts[0], cuts[1]) {
		t.Errorf("hit and miss headers differ after the cut: %x vs %x", cuts[0], cuts[1])
	}
	// With room advertised the same UDP queries are answered whole.
	for _, name := range []string{"big.example.com.", "bigmiss.example.com."} {
		got := frontends[0].exchange(t, packQuery(t, 0x2002, name, dnswire.TypeTXT, 4096))
		if m, err := dnswire.Unpack(got); err != nil || m.Header.TC || len(m.Answers) != 40 {
			t.Errorf("%s with EDNS 4096: %v %v", name, m, err)
		}
	}
}

// TestFrontendsCountInTheirOwnSeries: dns53_server_* counts Do53 and DoT
// queries only, doh_server_* DoH only, whichever half answered and
// wherever the miss half ran — the benchmark harness adds the two, so a
// query must land in exactly one, and a failure is counted once.
func TestFrontendsCountInTheirOwnSeries(t *testing.T) {
	countOwnSeries(t, startFrontends(t, newScriptedResolver()))
	countOwnSeries(t, startFrontends(t, inMemoryScripted{newScriptedResolver()}))
}

func countOwnSeries(t *testing.T, frontends []frontend) {
	dns53Requests := obs.Default().Counter("dns53_server_requests_total", "")
	dns53Failures := obs.Default().Counter("dns53_server_failures_total", "")
	dohPOST := obs.Default().Counter("doh_server_requests_total", "", "method", "POST")
	dohGET := obs.Default().Counter("doh_server_requests_total", "", "method", "GET")
	queries := [][]byte{
		packQuery(t, 1, "www.example.com.", dnswire.TypeA, 0),   // hit
		packQuery(t, 2, "miss.example.com.", dnswire.TypeA, 0),  // miss
		packQuery(t, 3, "error.example.com.", dnswire.TypeA, 0), // failing miss
	}
	for _, fe := range frontends {
		before := [4]uint64{dns53Requests.Value(), dns53Failures.Value(), dohPOST.Value(), dohGET.Value()}
		for _, q := range queries {
			fe.exchange(t, q)
		}
		got := [4]uint64{dns53Requests.Value() - before[0], dns53Failures.Value() - before[1],
			dohPOST.Value() - before[2], dohGET.Value() - before[3]}
		want := map[string][4]uint64{
			"udp": {3, 1, 0, 0}, "tcp": {3, 1, 0, 0}, "dot": {3, 1, 0, 0},
			"doh-post": {0, 0, 3, 0}, "doh-get": {0, 0, 0, 3},
			"doh-post-loop": {0, 0, 3, 0}, "doh-get-loop": {0, 0, 0, 3},
		}[fe.name]
		if got != want {
			t.Errorf("%s: dns53 requests/failures, doh POST/GET moved by %v, want %v", fe.name, got, want)
		}
	}
}
