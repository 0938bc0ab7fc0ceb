package authdns

import (
	"context"
	"fmt"
	"net/netip"
	"sync"

	"encdns/internal/dnswire"
)

// Registry is an in-memory "internet" of authoritative servers: a map from
// server address ("ip:port") to the zone that answers there. It implements
// the resolver's Exchanger interface directly, so a recursive resolver can
// walk the hierarchy without sockets — and each zone can also be served
// over real UDP/TCP listeners for the live integration tests.
type Registry struct {
	mu      sync.RWMutex
	servers map[string]*Zone
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{servers: make(map[string]*Zone)}
}

// Register binds a zone to a server address.
func (r *Registry) Register(addr string, z *Zone) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.servers[addr] = z
}

// Zone returns the zone bound to addr.
func (r *Registry) Zone(addr string) (*Zone, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	z, ok := r.servers[addr]
	return z, ok
}

// Exchange implements the resolver's Exchanger over the in-memory
// registry: queries to unknown servers fail like unreachable hosts.
func (r *Registry) Exchange(ctx context.Context, q *dnswire.Message, server string) (*dnswire.Message, error) {
	z, ok := r.Zone(server)
	if !ok {
		return nil, fmt.Errorf("authdns: no server at %s", server)
	}
	resp, err := z.ServeDNS(ctx, q)
	if err != nil {
		return nil, err
	}
	resp.Header.ID = q.Header.ID
	return resp, nil
}

// InMemory reports that Exchange never waits on I/O, which lets a
// recursive resolver over the registry promise the same (dns53.InMemory).
func (r *Registry) InMemory() bool { return true }

// Hierarchy is a complete root → TLD → leaf deployment: the zones, the
// registry that serves them, and the root hints a resolver starts from.
type Hierarchy struct {
	Registry *Registry
	Root     *Zone
	TLDs     map[string]*Zone
	Leaves   map[string]*Zone
	// RootServers lists the root name-server addresses (the hints).
	RootServers []string
}

// addrSeq hands out sequential addresses in 198.18.0.0/15 (RFC 2544 bench
// space) for the hierarchy's name servers.
type addrSeq struct{ next uint32 }

func (s *addrSeq) addr() netip.Addr {
	s.next++
	return netip.AddrFrom4([4]byte{198, 18, byte(s.next >> 8), byte(s.next)})
}

// LeafZone describes one leaf zone for BuildHierarchy: its records are
// name → IPv4/IPv6 addresses relative to the zone.
type LeafZone struct {
	Origin string
	// Hosts maps fully qualified names in the zone to their addresses.
	Hosts map[string][]netip.Addr
	// CNAMEs maps alias → target (both fully qualified).
	CNAMEs map[string]string
}

// BuildHierarchy constructs a serving hierarchy for the given leaf zones:
// a root zone delegating each TLD, one TLD zone per distinct TLD
// delegating each leaf, and the leaf zones themselves. Two name servers
// are deployed per zone for retry realism.
func BuildHierarchy(leaves []LeafZone) *Hierarchy {
	h := &Hierarchy{
		Registry: NewRegistry(),
		TLDs:     make(map[string]*Zone),
		Leaves:   make(map[string]*Zone),
	}
	seq := &addrSeq{}

	h.Root = NewZone(".")
	h.Root.SetSOA("a.root-servers.net.", "nstld.verisign-grs.com.", 2023091900, 86400)
	rootNS := map[string]netip.Addr{
		"a.root-servers.net.": seq.addr(),
		"b.root-servers.net.": seq.addr(),
	}
	for ns, addr := range rootNS {
		h.Root.Add(dnswire.Record{
			Name: ".", Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 518400,
			Data: &dnswire.NS{Host: ns},
		})
		h.Root.AddA(ns, 518400, addr)
		serverAddr := addr.String() + ":53"
		h.Registry.Register(serverAddr, h.Root)
		h.RootServers = append(h.RootServers, serverAddr)
	}

	// Group leaves by TLD.
	byTLD := make(map[string][]LeafZone)
	for _, leaf := range leaves {
		origin := dnswire.CanonicalName(leaf.Origin)
		labels := dnswire.SplitLabels(origin)
		if len(labels) == 0 {
			continue
		}
		tld := dnswire.CanonicalName(labels[len(labels)-1])
		byTLD[tld] = append(byTLD[tld], leaf)
	}

	for tld, tldLeaves := range byTLD {
		tz := NewZone(tld)
		tldLabel := dnswire.SplitLabels(tld)[0]
		tz.SetSOA("a.gtld-servers.net.", "nstld."+tld, 2023091900, 900)
		tldNS := map[string]netip.Addr{
			"a." + tldLabel + "-servers.nic." + tld: seq.addr(),
			"b." + tldLabel + "-servers.nic." + tld: seq.addr(),
		}
		h.Root.Delegate(tld, tldNS)
		// Root carries the glue; TLD servers' addresses also registered.
		for ns, addr := range tldNS {
			tz.Add(dnswire.Record{
				Name: tld, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 172800,
				Data: &dnswire.NS{Host: ns},
			})
			tz.AddA(ns, 172800, addr)
			h.Registry.Register(addr.String()+":53", tz)
		}
		h.TLDs[tld] = tz

		for _, leaf := range tldLeaves {
			origin := dnswire.CanonicalName(leaf.Origin)
			lz := NewZone(origin)
			lz.SetSOA("ns1."+origin, "hostmaster."+origin, 2023091900, 300)
			leafNS := map[string]netip.Addr{
				"ns1." + origin: seq.addr(),
				"ns2." + origin: seq.addr(),
			}
			tz.Delegate(origin, leafNS)
			for ns, addr := range leafNS {
				lz.Add(dnswire.Record{
					Name: origin, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 86400,
					Data: &dnswire.NS{Host: ns},
				})
				lz.AddA(ns, 86400, addr)
				h.Registry.Register(addr.String()+":53", lz)
			}
			for host, addrs := range leaf.Hosts {
				for _, a := range addrs {
					lz.AddA(host, 300, a)
				}
			}
			for alias, target := range leaf.CNAMEs {
				lz.Add(dnswire.Record{
					Name: alias, Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300,
					Data: &dnswire.CNAME{Target: target},
				})
			}
			h.Leaves[origin] = lz
		}
	}
	return h
}

// MeasurementLeaves returns the leaf zones for the paper's three query
// domains (§3.2: google.com, amazon.com, wikipedia.com) with representative
// addresses.
func MeasurementLeaves() []LeafZone {
	return []LeafZone{
		{
			Origin: "google.com",
			Hosts: map[string][]netip.Addr{
				"google.com.":     {netip.MustParseAddr("142.250.64.78"), netip.MustParseAddr("2607:f8b0:4009:800::200e")},
				"www.google.com.": {netip.MustParseAddr("142.250.64.68")},
			},
		},
		{
			Origin: "amazon.com",
			Hosts: map[string][]netip.Addr{
				"amazon.com.": {netip.MustParseAddr("205.251.242.103"), netip.MustParseAddr("52.94.236.248"), netip.MustParseAddr("54.239.28.85")},
			},
			CNAMEs: map[string]string{
				"www.amazon.com.": "amazon.com.",
			},
		},
		{
			Origin: "wikipedia.com",
			Hosts: map[string][]netip.Addr{
				"wikipedia.com.": {netip.MustParseAddr("208.80.154.232"), netip.MustParseAddr("2620:0:861:ed1a::9")},
			},
			CNAMEs: map[string]string{
				"www.wikipedia.com.": "wikipedia.com.",
			},
		},
	}
}
