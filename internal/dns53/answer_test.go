package dns53

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"

	"encdns/internal/dnswire"
	"encdns/internal/testutil"
)

// repackTruncated is the truncation the miss path used before it shared
// the hit path's cut on packed bytes: the response re-packed with every
// record dropped and TC set. The differential test below holds truncate
// to it.
func repackTruncated(t *testing.T, resp *dnswire.Message) []byte {
	t.Helper()
	tr := *resp
	tr.Header.TC = true
	tr.Answers, tr.Authority, tr.Additional = nil, nil, nil
	out, err := tr.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func txtRecords(name string, n int) (rrs []dnswire.Record) {
	for i := 0; i < n; i++ {
		rrs = append(rrs, dnswire.Record{Name: name, Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
			TTL: 300 + uint32(i), Data: &dnswire.TXT{Strings: []string{strings.Repeat("x", 40)}}})
	}
	return rrs
}

func TestTruncateMatchesRepack(t *testing.T) {
	soa := dnswire.Record{Name: "example.com.", Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 60,
		Data: &dnswire.SOA{MName: "ns.example.com.", RName: "root.example.com.", Serial: 1, Minimum: 60}}
	question := func(name string, typ dnswire.Type) *dnswire.Message {
		return dnswire.NewQuery(0xBEEF, name, typ).Reply()
	}
	big := question("big.example.com.", dnswire.TypeTXT)
	big.Header.RA = true
	big.Answers = txtRecords("big.example.com.", 40)
	sections := question("big.example.com.", dnswire.TypeTXT)
	sections.Header.AD = true
	sections.Answers = txtRecords("big.example.com.", 12)
	sections.Authority = []dnswire.Record{soa}
	sections.SetEDNS(4096, true)
	nx := question("gone.example.com.", dnswire.TypeA)
	nx.Header.RCode = dnswire.RCodeNXDomain
	nx.Authority = []dnswire.Record{soa}
	mixed := question("BiG.eXaMpLe.CoM.", dnswire.TypeTXT)
	mixed.Answers = txtRecords("big.example.com.", 20)
	root := question(".", dnswire.TypeNS)
	root.Answers = txtRecords(".", 20)
	noQuestion := &dnswire.Message{Header: dnswire.Header{ID: 7, QR: true, RCode: dnswire.RCodeRefused}}
	noQuestion.Answers = txtRecords("big.example.com.", 3)
	twoQuestions := question("a.example.com.", dnswire.TypeA)
	twoQuestions.Questions = append(twoQuestions.Questions,
		dnswire.Question{Name: "b.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN})
	twoQuestions.Answers = txtRecords("a.example.com.", 3)

	for _, tc := range []struct {
		name string
		resp *dnswire.Message
		want []byte // nil: the repack reference
	}{
		{"answers", big, nil},
		{"all sections, OPT, AD", sections, nil},
		{"nxdomain with authority", nx, nil},
		{"mixed-case question", mixed, nil},
		{"root question", root, nil},
		{"no question", noQuestion, nil},
		// The second name is compressed against the first, so the bytes
		// cannot say where the section ends: the header alone survives.
		{"two questions", twoQuestions, dnswire.AppendRawHeader(nil, 0xBEEF,
			dnswire.Header{QR: true, RD: true, TC: true}.Flags(), 0, 0, 0, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.want
			if want == nil {
				want = repackTruncated(t, tc.resp)
			}
			for _, prefix := range [][]byte{nil, {0, 0}, bytes.Repeat([]byte{0xAA}, 700)} {
				packed, err := tc.resp.AppendPack(bytes.Clone(prefix))
				if err != nil {
					t.Fatal(err)
				}
				got := truncate(packed, len(prefix))
				if !bytes.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("prefix of %d bytes disturbed", len(prefix))
				}
				if !bytes.Equal(got[len(prefix):], want) {
					t.Errorf("behind %d bytes:\n got %x\nwant %x", len(prefix), got[len(prefix):], want)
				}
			}
			// The same through the miss half, which also owns the limit
			// comparison: one byte short of the packed size cuts, the exact
			// size does not.
			h := testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) { return tc.resp, nil })
			full, err := tc.resp.AppendPack(nil)
			if err != nil {
				t.Fatal(err)
			}
			query := dnswire.NewQuery(tc.resp.Header.ID, "ignored.example.com.", dnswire.TypeA)
			out, minTTL, err := appendMiss(context.Background(), h, []byte{0, 0}, query, len(full)-1)
			if err != nil || !bytes.Equal(out[2:], want) || minTTL != -1 {
				t.Errorf("appendMiss under the limit: err=%v minTTL=%d\n got %x\nwant %x", err, minTTL, out[2:], want)
			}
			wantTTL := int64(-1)
			if len(tc.resp.Answers) > 0 {
				wantTTL = 300 // txtRecords counts up from it
			}
			out, minTTL, err = appendMiss(context.Background(), h, []byte{0, 0}, query, len(full))
			if err != nil || !bytes.Equal(out[2:], full) || minTTL != wantTTL {
				t.Errorf("appendMiss at the limit: err=%v minTTL=%d (want %d), %d bytes, want %d",
					err, minTTL, wantTTL, len(out)-2, len(full))
			}
		})
	}
}

// appenderFunc is a handler that is nothing but a fast path.
type appenderFunc func(dst []byte, q *dnswire.Message, rawQ []byte) ([]byte, int64, bool)

func (f appenderFunc) AppendResponse(dst []byte, q *dnswire.Message, rawQ []byte) ([]byte, int64, bool) {
	return f(dst, q, rawQ)
}

func (appenderFunc) ServeDNS(context.Context, *dnswire.Message) (*dnswire.Message, error) {
	return nil, errors.New("ServeDNS reached")
}

// TestAnswerHitElseMiss pins Answer's contract: the fast path when it
// takes the query (cut to the limit like a miss, with the appender's
// min TTL), ServeDNS when it declines or the question cannot be echoed,
// and always response bytes — a failure is a SERVFAIL plus the reason.
func TestAnswerHitElseMiss(t *testing.T) {
	query := dnswire.NewQuery(99, "www.example.com.", dnswire.TypeA)
	raw, err := query.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	answer := query.Reply()
	answer.Answers = []dnswire.Record{
		{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 90,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}},
		{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 30,
			Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}},
	}
	answer.SetEDNS(1232, false) // its TTL field is flags (0): must not become the minimum
	packed, err := answer.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	servfail := query.Reply()
	servfail.Header.RCode = dnswire.RCodeServFail
	servfailWire, err := servfail.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	hit := appenderFunc(func(dst []byte, _ *dnswire.Message, rawQ []byte) ([]byte, int64, bool) {
		if !bytes.Equal(rawQ, raw[12:]) {
			t.Errorf("raw question = %x", rawQ)
		}
		return append(dst, packed...), 30, true
	})
	decline := appenderFunc(func(dst []byte, _ *dnswire.Message, _ []byte) ([]byte, int64, bool) {
		return append(dst, "scribble"...), 0, false
	})
	serve := func(resp *dnswire.Message, err error) Handler {
		return testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) { return resp, err })
	}
	unpackable := query.Reply()
	unpackable.Answers = []dnswire.Record{{Name: strings.Repeat("a", 64) + ".example.com.", Type: dnswire.TypeA,
		Class: dnswire.ClassIN, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	compressedQ := append(bytes.Clone(raw[:12]), 0xC0, 12, 0, 1, 0, 1)

	for _, tc := range []struct {
		name    string
		h       Handler
		raw     []byte
		limit   int
		want    []byte
		minTTL  int64
		wantErr string
	}{
		{"hit", hit, raw, 512, packed, 30, ""},
		{"hit over the limit", hit, raw, len(packed) - 1, repackTruncated(t, answer), -1, ""},
		{"declined", decline, raw, 512, servfailWire, -1, "ServeDNS reached"},
		{"question not echoable", hit, compressedQ, 512, servfailWire, -1, "ServeDNS reached"},
		{"miss", serve(answer, nil), raw, 512, packed, 30, ""},
		{"handler error", serve(nil, errors.New("upstream on fire")), raw, 512, servfailWire, -1, "upstream on fire"},
		{"nil response", serve(nil, nil), raw, 512, servfailWire, -1, "no response"},
		{"panic", testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) { panic("boom") }),
			raw, 512, servfailWire, -1, "handler panic: boom"},
		{"response does not pack", serve(unpackable, nil), raw, 512, servfailWire, -1, "packing response"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prefix := []byte("kept")
			out, minTTL, err := Answer(context.Background(), tc.h, bytes.Clone(prefix), query, tc.raw, tc.limit)
			if !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], tc.want) {
				t.Errorf("response:\n got %x\nwant %x", out, tc.want)
			}
			if minTTL != tc.minTTL {
				t.Errorf("minTTL = %d, want %d", minTTL, tc.minTTL)
			}
			if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// temporaryErr is what Accept returns when the process is out of file
// descriptors, without needing to run out of them.
type temporaryErr struct{}

func (temporaryErr) Error() string   { return "accept: too many open files" }
func (temporaryErr) Temporary() bool { return true }
func (temporaryErr) Timeout() bool   { return false }

// flakyListener fails its first Accept with a temporary error.
type flakyListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: temporaryErr{}}
	}
	return l.Listener.Accept()
}

// TestServeTCPSurvivesTemporaryAcceptError: one EMFILE must not take the
// TCP (and DoT) listener down; Shutdown still ends ServeTCP with nil.
func TestServeTCPSurvivesTemporaryAcceptError(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: inner}
	srv := &Server{Handler: staticHandler()}
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ln) }()
	t.Cleanup(srv.Shutdown)

	resp, err := exchange("tcp", inner.Addr().String(), dnswire.NewQuery(NewID(), "google.com", dnswire.TypeA))
	if err != nil {
		t.Fatalf("query after the failed Accept: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if !ln.failed.Load() {
		t.Fatal("the listener never failed: nothing was tested")
	}
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("ServeTCP after Shutdown = %v, want nil", err)
	}

	// A permanent error still ends the loop.
	srv2 := &Server{Handler: staticHandler()}
	t.Cleanup(srv2.Shutdown)
	inner2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inner2.Close()
	if err := srv2.ServeTCP(inner2); err == nil {
		t.Fatal("ServeTCP on a closed listener returned nil without Shutdown")
	}
}

// TestAnswerEchoesOPT: behind an EDNS query the response's own additional
// records (a referral's glue) stay ahead of the one OPT appended last, and
// that OPT counts against the limit: the exact size answers whole, one
// byte less cuts to header, question and OPT.
func TestAnswerEchoesOPT(t *testing.T) {
	query := dnswire.NewQuery(7, "www.sub.example.com.", dnswire.TypeA)
	query.SetEDNS(4096, true)
	raw, err := query.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	referral := query.Reply()
	referral.Authority = []dnswire.Record{{Name: "sub.example.com.", Type: dnswire.TypeNS, Class: dnswire.ClassIN,
		TTL: 60, Data: &dnswire.NS{Host: "ns.sub.example.com."}}}
	referral.Additional = []dnswire.Record{{Name: "ns.sub.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassIN,
		TTL: 60, Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")}}}
	h := testutil.HandlerFunc(func(context.Context, *dnswire.Message) (*dnswire.Message, error) {
		r := *referral
		return &r, nil
	})
	bare, err := referral.AppendPack(nil)
	if err != nil {
		t.Fatal(err)
	}
	full := len(bare) + optLen

	out, _, err := Answer(context.Background(), h, nil, query, raw, full)
	m, uerr := dnswire.Unpack(out)
	if err != nil || uerr != nil || m.Header.TC || len(out) != full || len(m.Additional) != 2 ||
		m.Additional[0].Type != dnswire.TypeA || m.Additional[1].Type != dnswire.TypeOPT {
		t.Fatalf("at the limit: %v (err %v, %v)", m, err, uerr)
	}
	if opt := m.Additional[1].Data.(*dnswire.OPT); !opt.DO || opt.UDPSize != dnswire.MaxEDNSSize {
		t.Errorf("OPT %+v, want DO copied and size %d", *opt, dnswire.MaxEDNSSize)
	}

	out, _, _ = Answer(context.Background(), h, nil, query, raw, full-1)
	m, uerr = dnswire.Unpack(out)
	question, _ := dnswire.QuestionBytes(raw)
	if uerr != nil || !m.Header.TC || len(m.Authority)+len(m.Answers) != 0 || len(out) != 12+len(question)+optLen {
		t.Fatalf("one byte short: %d bytes, %v (%v)", len(out), m, uerr)
	}
	if _, ok := m.EDNS(); !ok || len(m.Additional) != 1 {
		t.Errorf("cut answer lost its OPT: %v", m)
	}
}
