package resolver

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"encdns/internal/dnswire"
)

func aaaaRecord(name string, ttl uint32, addr string) dnswire.Record {
	return dnswire.Record{
		Name: name, Type: dnswire.TypeAAAA, Class: dnswire.ClassIN, TTL: ttl,
		Data: &dnswire.AAAA{Addr: netip.MustParseAddr(addr)},
	}
}

// TestServerAddrsUsesCachedAAAA: an NS host known only by a cached AAAA
// RRset must still yield a usable (bracketed) server address — the old
// implementation was IPv6-blind and treated such hosts as glueless.
func TestServerAddrsUsesCachedAAAA(t *testing.T) {
	c := NewCache(64, nil)
	c.PutRRset("ns6.example.", dnswire.TypeAAAA, []dnswire.Record{
		aaaaRecord("ns6.example.", 300, "2001:db8::35"),
	})
	r := &Recursive{
		Cache: c,
		Exchange: exchangerFunc(func(context.Context, *dnswire.Message, string) (*dnswire.Message, error) {
			t.Error("cached AAAA should not need an upstream exchange")
			return nil, context.Canceled
		}),
		RNGSeed: 1,
	}
	addrs := r.serverAddrs(context.Background(), []string{"ns6.example."}, nil, 0)
	if len(addrs) != 1 || addrs[0] != "[2001:db8::35]:53" {
		t.Fatalf("addrs = %v, want the bracketed v6 endpoint", addrs)
	}
	// Dual-stack host: both families come back, A first.
	c.PutRRset("ns46.example.", dnswire.TypeA, []dnswire.Record{
		aRecord("ns46.example.", 300, "192.0.2.46"),
	})
	c.PutRRset("ns46.example.", dnswire.TypeAAAA, []dnswire.Record{
		aaaaRecord("ns46.example.", 300, "2001:db8::46"),
	})
	addrs = r.serverAddrs(context.Background(), []string{"ns46.example."}, nil, 0)
	if len(addrs) != 2 || addrs[0] != "192.0.2.46:53" || addrs[1] != "[2001:db8::46]:53" {
		t.Fatalf("dual-stack addrs = %v", addrs)
	}
}

// TestServerAddrsShortcutSkipsGlueless: once enough NS hosts have known
// addresses, the glueless remainder must not trigger recursive walks.
func TestServerAddrsShortcutSkipsGlueless(t *testing.T) {
	r := &Recursive{
		Exchange: exchangerFunc(func(_ context.Context, q *dnswire.Message, _ string) (*dnswire.Message, error) {
			t.Errorf("glueless host %q resolved despite enough glue", q.Question0().Name)
			return nil, context.Canceled
		}),
		Roots:   []string{"198.18.0.1:53"},
		Cache:   NewCache(64, nil),
		RNGSeed: 1,
	}
	glue := map[string][]string{
		"ns1.example.": {"192.0.2.1:53"},
		"ns2.example.": {"[2001:db8::2]:53"},
	}
	shortcuts := nsFanoutShortcut.Value()
	addrs := r.serverAddrs(context.Background(),
		[]string{"ns1.example.", "ns2.example.", "glueless.other."}, glue, 0)
	if len(addrs) != 2 {
		t.Fatalf("addrs = %v, want just the glue", addrs)
	}
	if got := nsFanoutShortcut.Value() - shortcuts; got != 1 {
		t.Fatalf("shortcut counter moved by %d, want 1", got)
	}
}

// TestResolveNSHostsFirstKWins: a glueless fan-out with two fast and two
// hanging hosts must return the fast pair promptly — the hung resolutions
// are cancelled, not awaited.
func TestResolveNSHostsFirstKWins(t *testing.T) {
	answer := func(q *dnswire.Message, addr string) *dnswire.Message {
		q0 := q.Question0()
		resp := q.Reply()
		resp.Header.AA = true
		resp.Answers = append(resp.Answers, dnswire.Record{
			Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
			Data: &dnswire.A{Addr: netip.MustParseAddr(addr)},
		})
		return resp
	}
	r := &Recursive{
		Exchange: exchangerFunc(func(ctx context.Context, q *dnswire.Message, _ string) (*dnswire.Message, error) {
			name := q.Question0().Name
			if strings.HasPrefix(name, "hang") {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			if strings.HasPrefix(name, "fast1") {
				return answer(q, "192.0.2.101"), nil
			}
			return answer(q, "192.0.2.102"), nil
		}),
		Roots:   []string{"198.18.0.1:53"},
		Cache:   NewCache(64, nil),
		RNGSeed: 1,
	}
	start := time.Now()
	done := make(chan []string, 1)
	go func() {
		done <- r.resolveNSHosts(context.Background(),
			[]string{"hang1.example.", "fast1.example.", "fast2.example.", "hang2.example."}, 0, 2)
	}()
	select {
	case addrs := <-done:
		if len(addrs) != 2 {
			t.Fatalf("addrs = %v, want the two fast hosts", addrs)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("fan-out hung on the hanging hosts after %v", time.Since(start))
	}
}

// TestServerAddrsGluelessFanoutResolves: with no glue at all, the fan-out
// must actually resolve hosts (bounded, counted) rather than return empty.
func TestServerAddrsGluelessFanoutResolves(t *testing.T) {
	r := &Recursive{
		Exchange: exchangerFunc(func(_ context.Context, q *dnswire.Message, _ string) (*dnswire.Message, error) {
			q0 := q.Question0()
			resp := q.Reply()
			resp.Header.AA = true
			resp.Answers = append(resp.Answers, dnswire.Record{
				Name: q0.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60,
				Data: &dnswire.A{Addr: netip.MustParseAddr("192.0.2.200")},
			})
			return resp, nil
		}),
		Roots:   []string{"198.18.0.1:53"},
		Cache:   NewCache(64, nil),
		RNGSeed: 1,
	}
	resolves := nsFanoutResolves.Value()
	addrs := r.serverAddrs(context.Background(), []string{"a.ns.example.", "b.ns.example."}, nil, 0)
	if len(addrs) == 0 {
		t.Fatal("glueless fan-out returned no addresses")
	}
	if got := nsFanoutResolves.Value() - resolves; got == 0 {
		t.Fatal("fan-out resolve counter never moved")
	}
}
