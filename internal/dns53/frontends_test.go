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
	"encdns/internal/serve"
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

// streamFrontend sends each query framed over a connection of its own,
// which dial opens: TCP or DoT.
func streamFrontend(dial func() (net.Conn, error)) func(*testing.T, []byte) []byte {
	return func(t *testing.T, query []byte) []byte {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		return streamExchange(t, conn, query)
	}
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
		{"udp", func(t *testing.T, query []byte) []byte { return udpExchange(t, pc.LocalAddr().String(), query) }},
		{"tcp", streamFrontend(func() (net.Conn, error) { return net.Dial("tcp", tcp.Addr().String()) })},
		{"dot", streamFrontend(func() (net.Conn, error) {
			return tls.Dial("tcp", tlsLn.Addr().String(), ca.ClientConfig("dot.test"))
		})},
		{"doh-post", dohPost(dohSrv)},
		{"doh-get", dohGet(dohSrv)},
		{"doh-post-loop", dohPost(loopSrv)},
		{"doh-get-loop", dohGet(loopSrv)},
	}
}

// stackFrontends starts the stack dohserver runs, recursive, and reaches
// it as a client would: Do53 over UDP and TCP, DoT, and DoH POST over
// HTTP/2 (the burst loop) and HTTP/1.1 (net/http). Each answer comes back
// with its answer and authority TTLs set to 0, as a hit ages them.
func stackFrontends(t *testing.T) []frontend {
	t.Helper()
	st, err := serve.Start(context.Background(), serve.Config{Do53: "127.0.0.1:0", DoT: "127.0.0.1:0", DoH: "127.0.0.1:0", Cache: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Shutdown)
	h2 := &http.Client{Transport: &http.Transport{TLSClientConfig: st.CA.ClientConfig("127.0.0.1"), ForceAttemptHTTP2: true}}
	h1 := &http.Client{Transport: &http.Transport{TLSClientConfig: st.CA.ClientConfig("127.0.0.1"),
		TLSNextProto: map[string]func(string, *tls.Conn) http.RoundTripper{}}}
	t.Cleanup(h2.CloseIdleConnections)
	t.Cleanup(h1.CloseIdleConnections)
	dohPost := func(client *http.Client) func(*testing.T, []byte) []byte {
		return func(t *testing.T, query []byte) []byte {
			req, _ := http.NewRequest(http.MethodPost, "https://"+st.DoH+doh.DefaultPath, bytes.NewReader(query))
			req.Header.Set("Content-Type", doh.ContentType)
			return httpExchange(t, client, req, doh.ContentType)
		}
	}
	fes := []frontend{
		{"udp", func(t *testing.T, query []byte) []byte { return udpExchange(t, st.UDP, query) }},
		{"tcp", streamFrontend(func() (net.Conn, error) { return net.Dial("tcp", st.TCP) })},
		{"dot", streamFrontend(func() (net.Conn, error) { return tls.Dial("tcp", st.DoT, st.CA.ClientConfig("127.0.0.1")) })},
		{"doh-post-h2", dohPost(h2)},
		{"doh-post-h1", dohPost(h1)},
	}
	for i, fe := range fes {
		fes[i].exchange = func(t *testing.T, query []byte) []byte {
			m, err := dnswire.Unpack(fe.exchange(t, query))
			if err != nil {
				t.Fatalf("%s: %v", fe.name, err)
			}
			for _, rrs := range [][]dnswire.Record{m.Answers, m.Authority} {
				for j := range rrs {
					rrs[j].TTL = 0
				}
			}
			wire, err := m.Pack()
			if err != nil {
				t.Fatal(err)
			}
			return wire
		}
	}
	return fes
}

// udpExchange sends query to addr in one datagram and returns the reply.
func udpExchange(t *testing.T, addr string, query []byte) []byte {
	conn, err := net.Dial("udp", addr)
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
}

// withOpcode returns query with its header's OPCODE set to op.
func withOpcode(query []byte, op dnswire.Opcode) []byte {
	out := bytes.Clone(query)
	out[2] = out[2]&^0x78 | byte(op)<<3
	return out
}

// withClass returns query, which has one question, with its QCLASS set to c.
func withClass(query []byte, c dnswire.Class) []byte {
	out := bytes.Clone(query)
	question, _ := dnswire.QuestionBytes(out)
	binary.BigEndian.PutUint16(out[12+len(question)-2:], uint16(c))
	return out
}

// withDO returns query, which ends in an OPT without options, with the
// OPT's DO bit set.
func withDO(query []byte) []byte {
	out := bytes.Clone(query)
	out[len(out)-4] |= 0x80
	return out
}

// withVersion returns query, which ends in an OPT without options, with
// the OPT's VERSION set to v.
func withVersion(query []byte, v uint8) []byte {
	out := bytes.Clone(query)
	out[len(out)-5] = v
	return out
}

// twoQuestions packs a query asking for both names at once.
func twoQuestions(t *testing.T, id uint16, a, b string) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, a, dnswire.TypeA)
	q.Questions = append(q.Questions, dnswire.Question{Name: b, Type: dnswire.TypeA, Class: dnswire.ClassIN})
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
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
	opt     bool // the query carries an OPT, so the answer ends in one
}

func scriptedCases(t *testing.T, prefix string) []answerCase {
	return []answerCase{
		{prefix + "template hit", upperCased(packQuery(t, 0x1001, "www.example.com.", dnswire.TypeA, 0)), dnswire.RCodeSuccess, 1, true, false},
		{prefix + "template hit, EDNS", packQuery(t, 0x1002, "www.example.com.", dnswire.TypeA, 1232), dnswire.RCodeSuccess, 1, true, true},
		{prefix + "cached NXDOMAIN", upperCased(packQuery(t, 0x1003, "gone.example.com.", dnswire.TypeA, 0)), dnswire.RCodeNXDomain, 0, true, false},
		{prefix + "miss", upperCased(packQuery(t, 0x1004, "miss.example.com.", dnswire.TypeA, 0)), dnswire.RCodeSuccess, 1, false, false},
		{prefix + "miss, EDNS with DO", withDO(packQuery(t, 0x100a, "miss.example.com.", dnswire.TypeA, 4096)), dnswire.RCodeSuccess, 1, true, true},
		{prefix + "NXDOMAIN", packQuery(t, 0x1005, "nx.example.com.", dnswire.TypeA, 0), dnswire.RCodeNXDomain, 0, true, false},
		{prefix + "handler error", packQuery(t, 0x1006, "error.example.com.", dnswire.TypeA, 0), dnswire.RCodeServFail, 0, true, false},
		{prefix + "handler error, EDNS", packQuery(t, 0x100b, "error.example.com.", dnswire.TypeA, 1232), dnswire.RCodeServFail, 0, true, true},
		{prefix + "handler panic", packQuery(t, 0x1007, "panic.example.com.", dnswire.TypeA, 0), dnswire.RCodeServFail, 0, true, false},
		// Not a query: NOTIMP before the template path, a cached name too.
		{prefix + "UPDATE, template hit", withOpcode(packQuery(t, 0x1008, "www.example.com.", dnswire.TypeA, 0), dnswire.OpcodeUpdate), dnswire.RCodeNotImpl, 0, true, false},
		{prefix + "STATUS, EDNS", withOpcode(packQuery(t, 0x1009, "www.example.com.", dnswire.TypeA, 1232), dnswire.OpcodeStatus), dnswire.RCodeNotImpl, 0, true, true},
		// A class the cache holds no data for, and a question count other
		// than one, are answered before the template path too.
		{prefix + "CH class, template hit", withClass(packQuery(t, 0x100c, "www.example.com.", dnswire.TypeA, 0), dnswire.ClassCH), dnswire.RCodeRefused, 0, true, false},
		{prefix + "two questions", twoQuestions(t, 0x100d, "www.example.com.", "miss.example.com."), dnswire.RCodeFormat, 0, true, false},
		// An EDNS version we do not speak: BADVERS, a cached name too,
		// with header RCODE 0 and the upper bits in our version-0 OPT.
		{prefix + "EDNS version 1, template hit", withVersion(packQuery(t, 0x100e, "www.example.com.", dnswire.TypeA, 1232), 1), dnswire.RCodeBadVers, 0, true, true},
		{prefix + "EDNS version 1, miss", withVersion(withDO(packQuery(t, 0x100f, "miss.example.com.", dnswire.TypeA, 1232)), 1), dnswire.RCodeBadVers, 0, true, true},
	}
}

func TestEveryFrontendAnswersAlike(t *testing.T) {
	answerAlike(t, startFrontends(t, newScriptedResolver()), scriptedCases(t, ""))
	answerAlike(t, startFrontends(t, inMemoryScripted{newScriptedResolver()}), scriptedCases(t, "in memory: "))
	// The resolver dohserver runs: the hierarchy walked in memory, with a
	// closed cache, so every frontend's query is a miss.
	answerAlike(t, startFrontends(t, registryResolver(0)), []answerCase{
		{"recursive miss", upperCased(packQuery(t, 0x3001, "google.com.", dnswire.TypeA, 0)), dnswire.RCodeSuccess, 1, false, false},
		{"recursive miss, CNAME chased", packQuery(t, 0x3002, "www.amazon.com.", dnswire.TypeA, 1232), dnswire.RCodeSuccess, 4, true, true},
		{"recursive NXDOMAIN", packQuery(t, 0x3003, "0123abcd.wikipedia.com.", dnswire.TypeA, 0), dnswire.RCodeNXDomain, 0, true, false},
		{"recursive CH class", withClass(packQuery(t, 0x3004, "google.com.", dnswire.TypeA, 0), dnswire.ClassCH), dnswire.RCodeRefused, 0, true, false},
	})
	// The same resolver as dohserver composes it (serve.Start), over its
	// own listeners: the first frontend asked misses, the rest hit its
	// cache, and all of them answer alike but for the TTLs' ageing.
	answerAlike(t, stackFrontends(t), []answerCase{
		{"stack: recursive", packQuery(t, 0x3201, "google.com.", dnswire.TypeA, 0), dnswire.RCodeSuccess, 1, true, false},
		{"stack: recursive, CNAME chased", packQuery(t, 0x3202, "www.amazon.com.", dnswire.TypeA, 1232), dnswire.RCodeSuccess, 4, true, true},
		{"stack: recursive NXDOMAIN", packQuery(t, 0x3203, "0123abcd.wikipedia.com.", dnswire.TypeA, 0), dnswire.RCodeNXDomain, 0, true, false},
		{"stack: recursive CH class", withClass(packQuery(t, 0x3204, "google.com.", dnswire.TypeA, 0), dnswire.ClassCH), dnswire.RCodeRefused, 0, true, false},
	})
	// An authoritative zone, which answers from memory too.
	answerAlike(t, startFrontends(t, exampleZone()), []answerCase{
		{"zone answer", packQuery(t, 0x3101, "www.example.com.", dnswire.TypeA, 0), dnswire.RCodeSuccess, 1, true, false},
		{"zone NXDOMAIN", packQuery(t, 0x3102, "nx.example.com.", dnswire.TypeA, 0), dnswire.RCodeNXDomain, 0, true, false},
		{"zone REFUSED", packQuery(t, 0x3103, "google.com.", dnswire.TypeA, 0), dnswire.RCodeRefused, 0, true, false},
		{"zone answer, EDNS", packQuery(t, 0x3104, "www.example.com.", dnswire.TypeA, 1232), dnswire.RCodeSuccess, 1, true, true},
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
					// Unpack folds the OPT's extended RCODE into the header's.
					if m.Header.ID != binary.BigEndian.Uint16(tc.query) || m.Header.RCode != tc.rcode || got[3]&0xF != byte(tc.rcode&0xF) ||
						len(m.Answers) != tc.answers || m.Header.TC ||
						m.Header.Opcode != dnswire.Opcode(tc.query[2]>>3&0xF) || m.Header.RD != (tc.query[2]&1 == 1) {
						t.Fatalf("%s answered %v", fe.name, m)
					}
					question, _ := dnswire.QuestionBytes(tc.query)
					if echoed := bytes.Equal(got[12:12+len(question)], question); echoed != tc.echoed {
						t.Fatalf("%s: question echoed verbatim = %v, want %v", fe.name, echoed, tc.echoed)
					}
					checkOPT(t, fe.name, tc.query, m, tc.opt)
					continue
				}
				if !bytes.Equal(got, first) {
					t.Errorf("%s differs from %s:\n got %x\nwant %x", fe.name, frontends[0].name, got, first)
				}
			}
		})
	}
}

// checkOPT wants resp to end in exactly one OPT when the query carried
// one (root owner, CLASS MaxEDNSSize, version 0, the query's DO bit, no
// options, extended RCODE 1 — BADVERS — when the query's version is not
// 0 and 0 otherwise) and to carry none otherwise.
func checkOPT(t *testing.T, frontend string, query []byte, resp *dnswire.Message, want bool) {
	t.Helper()
	q, err := dnswire.Unpack(query)
	if err != nil {
		t.Fatal(err)
	}
	qopt, _ := q.EDNS()
	var opts []dnswire.Record
	for _, rr := range resp.Additional {
		if rr.Type == dnswire.TypeOPT {
			opts = append(opts, rr)
		}
	}
	if !want {
		if len(opts) != 0 {
			t.Fatalf("%s: %d OPT records, want none", frontend, len(opts))
		}
		return
	}
	if len(opts) != 1 || resp.Additional[len(resp.Additional)-1].Type != dnswire.TypeOPT {
		t.Fatalf("%s: %d OPT records in %d additional, want one, last", frontend, len(opts), len(resp.Additional))
	}
	opt := opts[0].Data.(*dnswire.OPT)
	var ext uint8
	if qopt.Version != 0 {
		ext = uint8(dnswire.RCodeBadVers >> 4)
	}
	if opts[0].Name != "." || opt.UDPSize != dnswire.MaxEDNSSize || opt.Version != 0 || opt.ExtRCode != ext ||
		opt.DO != qopt.DO || len(opt.Options) != 0 {
		t.Fatalf("%s: OPT %s %+v, want root, size %d, extended RCODE %d, version 0, DO %v, no options",
			frontend, opts[0].Name, *opt, dnswire.MaxEDNSSize, ext, qopt.DO)
	}
}

// TestOverLimitAnswerOnUDP: an answer over the client's UDP limit comes
// back as header and question with TC, the same whether the template or
// ServeDNS produced it, on a miss's goroutine or in line, and whole over every other
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
	// An EDNS client that advertises 512 gets the same cut with its OPT
	// kept, which counts against the limit.
	for _, name := range []string{"big.example.com.", "bigmiss.example.com."} {
		query := withDO(packQuery(t, 0x2003, name, dnswire.TypeTXT, 512))
		question, _ := dnswire.QuestionBytes(query)
		got := frontends[0].exchange(t, query)
		m, err := dnswire.Unpack(got)
		if err != nil || !m.Header.TC || len(m.Answers) != 0 || len(got) != 12+len(question)+11 {
			t.Fatalf("%s udp with EDNS 512: %d bytes, %v %v, want header, question and OPT with TC", name, len(got), m, err)
		}
		checkOPT(t, "udp", query, m, true)
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
