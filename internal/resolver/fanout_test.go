package resolver

import (
	"context"
	"errors"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"

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

// TestResolveNSHostsFirstKWins: glueless hosts are resolved one after
// another in NS order, and resolution stops once enough of them have
// answered — a host that fails is passed over, and the host after the
// second one that answers is never asked.
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
	var (
		mu    sync.Mutex
		asked []string
	)
	r := &Recursive{
		Exchange: exchangerFunc(func(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
			name := q.Question0().Name
			mu.Lock()
			asked = append(asked, name+" @"+server)
			mu.Unlock()
			switch {
			case strings.HasPrefix(name, "fail"):
				return nil, errors.New("connection refused")
			case strings.HasPrefix(name, "fast1"):
				return answer(q, "192.0.2.101"), nil
			case strings.HasPrefix(name, "fast2"):
				return answer(q, "192.0.2.102"), nil
			}
			t.Errorf("%s asked after two hosts had answered", name)
			return answer(q, "192.0.2.103"), nil
		}),
		Roots:   []string{"198.18.0.1:53"},
		Cache:   NewCache(64, nil),
		RNGSeed: 1,
	}
	addrs := r.resolveNSHosts(context.Background(),
		[]string{"fail.example.", "fast1.example.", "fast2.example.", "never.example."}, 0, 2)
	if want := []string{"192.0.2.101:53", "192.0.2.102:53"}; !slices.Equal(addrs, want) {
		t.Fatalf("addrs = %v, want %v: the two hosts that answer, in NS order", addrs, want)
	}
	want := []string{"fail.example. @198.18.0.1:53", "fast1.example. @198.18.0.1:53", "fast2.example. @198.18.0.1:53"}
	if !slices.Equal(asked, want) {
		t.Fatalf("exchanges %q, want %q", asked, want)
	}
}

// TestServerAddrsGluelessFanoutResolves: with no glue at all, the glueless
// hosts must actually be resolved (and counted) rather than return empty.
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
		t.Fatal("glueless resolution returned no addresses")
	}
	if got := nsFanoutResolves.Value() - resolves; got == 0 {
		t.Fatal("glueless resolve counter never moved")
	}
}
