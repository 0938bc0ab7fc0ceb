package resolver

import (
	"context"
	"net"
	"testing"
	"time"

	"encdns/internal/dnswire"
	"encdns/internal/transport"
)

// liar serves Do53/UDP on a loopback port and answers every query with
// what lie makes of it. It returns the port's address.
func liar(t *testing.T, lie func(q *dnswire.Message) *dnswire.Message) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 65536)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(buf[:n])
			if err != nil {
				continue
			}
			if wire, err := lie(q).Pack(); err == nil {
				_, _ = pc.WriteTo(wire, from)
			}
		}
	}()
	return pc.LocalAddr().String()
}

// TestForwarderCannotBePoisoned: a forwarder whose upstream lies over
// loopback UDP neither caches nor relays a record outside the question's
// CNAME chain and its final RRset.
//   - A reply with no question may only end an exchange as an error
//     (FORMERR, SERVFAIL, NOTIMP, REFUSED): a question-less NXDOMAIN
//     carrying victim.example.'s A is not an answer to innocent.example.
//   - A NOERROR reply that echoes the question answers it, but a record it
//     carries for another name is not part of that answer.
//   - A CNAME chain that loops ends where it meets itself: the forwarder
//     answers instead of following it for ever.
func TestForwarderCannotBePoisoned(t *testing.T) {
	forged := aRecord("victim.example.", 3600, "6.6.6.6")
	for _, tc := range []struct {
		name    string
		lie     func(q *dnswire.Message) *dnswire.Message
		answers int // what the client may receive for innocent.example. A
	}{
		{"question-less NXDOMAIN", func(q *dnswire.Message) *dnswire.Message {
			r := q.Reply()
			r.Questions = nil
			r.Header.RCode = dnswire.RCodeNXDomain
			r.Answers = []dnswire.Record{forged}
			return r
		}, 0},
		{"NOERROR with an out-of-chain record", func(q *dnswire.Message) *dnswire.Message {
			r := q.Reply()
			r.Answers = []dnswire.Record{aRecord("innocent.example.", 3600, "192.0.2.1"), forged}
			return r
		}, 1},
		{"NOERROR with a CNAME loop", func(q *dnswire.Message) *dnswire.Message {
			r := q.Reply()
			r.Answers = []dnswire.Record{
				{Name: "innocent.example.", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 60,
					Data: &dnswire.CNAME{Target: "loop.example."}},
				{Name: "loop.example.", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 60,
					Data: &dnswire.CNAME{Target: "innocent.example."}},
				forged,
			}
			return r
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := transport.NewPool(transport.Options{Timeout: 300 * time.Millisecond, Retry: ptr(transport.NoRetry())})
			t.Cleanup(func() { pool.Close() })
			f := &Forwarder{Exchange: pool, Upstreams: []string{liar(t, tc.lie)}, Cache: NewCache(128, nil)}
			done := make(chan *dnswire.Message, 1)
			go func() {
				resp, _ := f.ServeDNS(context.Background(), dnswire.NewQuery(1, "innocent.example.", dnswire.TypeA))
				done <- resp
			}()
			var resp *dnswire.Message
			select {
			case resp = <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("the forwarder did not answer in 5s")
			}
			if resp != nil {
				for _, rr := range resp.Answers {
					if dnswire.CanonicalName(rr.Name) != "innocent.example." {
						t.Errorf("the client received %v", rr)
					}
				}
				if len(resp.Answers) > tc.answers {
					t.Errorf("the client received %d answers, want at most %d", len(resp.Answers), tc.answers)
				}
			}
			if res, ok := f.Cache.Lookup("victim.example.", dnswire.TypeA); ok {
				t.Errorf("victim.example. A is served from cache: %+v", res)
			}
			if res, ok := f.Cache.Lookup("innocent.example.", dnswire.TypeA); ok && res.Negative {
				t.Errorf("innocent.example. A is cached negative (NXDOMAIN %v)", res.NXDomain)
			}
		})
	}
}

func ptr[T any](v T) *T { return &v }
