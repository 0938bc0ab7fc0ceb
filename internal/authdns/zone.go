// Package authdns implements authoritative DNS serving: a zone data model
// with delegations and glue, RFC 1035 lookup semantics (answers, referrals,
// CNAMEs, NXDOMAIN with SOA), and a Hierarchy builder that stands up the
// root → TLD → leaf name-server chain the paper's recursive resolvers walk
// when a query misses their cache.
package authdns

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"encdns/internal/dnswire"
)

// rrKey identifies an RRset within a zone.
type rrKey struct {
	name string
	typ  dnswire.Type
}

// Zone is one authoritative zone: an origin, its records, and the child
// delegations below it. Safe for concurrent reads after construction.
type Zone struct {
	origin string

	mu      sync.RWMutex
	records map[rrKey][]dnswire.Record
	// cuts is the set of delegated child zone names (owners of NS RRsets
	// below the origin), used to find the closest enclosing cut.
	cuts map[string]bool
	// names holds every owner name and every ancestor of one up to the
	// origin — the names that exist in the zone, empty non-terminals
	// included — so NODATA versus NXDOMAIN is one probe, not a scan.
	names map[string]struct{}
}

// NewZone creates an empty zone rooted at origin. Every zone must be given
// a SOA record (SetSOA) before serving.
func NewZone(origin string) *Zone {
	return &Zone{
		origin:  dnswire.CanonicalName(origin),
		records: make(map[rrKey][]dnswire.Record),
		cuts:    make(map[string]bool),
		names:   make(map[string]struct{}),
	}
}

// SetSOA installs the zone's SOA record with sensible timer defaults.
func (z *Zone) SetSOA(mname, rname string, serial uint32, negativeTTL uint32) {
	z.Add(dnswire.Record{
		Name: z.origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600,
		Data: &dnswire.SOA{
			MName: mname, RName: rname, Serial: serial,
			Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: negativeTTL,
		},
	})
}

// Add inserts a record. Records outside the zone are rejected with a panic
// because they indicate a programming error in hierarchy construction.
func (z *Zone) Add(rr dnswire.Record) {
	rr.Name = dnswire.CanonicalName(rr.Name)
	if !dnswire.IsSubdomain(rr.Name, z.origin) {
		panic(fmt.Sprintf("authdns: record %s outside zone %s", rr.Name, z.origin))
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	k := rrKey{name: rr.Name, typ: rr.Type}
	z.records[k] = append(z.records[k], rr)
	if rr.Type == dnswire.TypeNS && rr.Name != z.origin {
		z.cuts[rr.Name] = true
	}
	for n := rr.Name; ; n = dnswire.ParentName(n) {
		if _, known := z.names[n]; known {
			break // and so are its ancestors
		}
		z.names[n] = struct{}{}
		if n == z.origin {
			break
		}
	}
}

// AddA is a convenience for A/AAAA records.
func (z *Zone) AddA(name string, ttl uint32, addr netip.Addr) {
	rr := dnswire.Record{
		Name: name, Class: dnswire.ClassIN, TTL: ttl,
	}
	if addr.Is4() {
		rr.Type = dnswire.TypeA
		rr.Data = &dnswire.A{Addr: addr}
	} else {
		rr.Type = dnswire.TypeAAAA
		rr.Data = &dnswire.AAAA{Addr: addr}
	}
	z.Add(rr)
}

// Delegate adds an NS cut for child served by the named servers, with glue
// A records when addresses are supplied.
func (z *Zone) Delegate(child string, servers map[string]netip.Addr) {
	child = dnswire.CanonicalName(child)
	names := make([]string, 0, len(servers))
	for ns := range servers {
		names = append(names, ns)
	}
	sort.Strings(names) // deterministic referral ordering
	for _, ns := range names {
		z.Add(dnswire.Record{
			Name: child, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: 86400,
			Data: &dnswire.NS{Host: ns},
		})
		if addr := servers[ns]; addr.IsValid() && dnswire.IsSubdomain(ns, z.origin) {
			z.AddA(ns, 86400, addr) // glue
		}
	}
}

// lookup returns the RRset for (name, type) without lock management.
func (z *Zone) get(name string, t dnswire.Type) []dnswire.Record {
	return z.records[rrKey{name: dnswire.CanonicalName(name), typ: t}]
}

// nameExists reports whether name is an owner name or an "empty
// non-terminal" — no records of its own but something below it, which is
// not NXDOMAIN (RFC 8020) — for NODATA vs NXDOMAIN discrimination.
func (z *Zone) nameExists(name string) bool {
	_, ok := z.names[dnswire.CanonicalName(name)]
	return ok
}

// cutFor returns the closest enclosing delegation for qname, or "" when
// qname is inside this zone's authoritative data.
func (z *Zone) cutFor(qname string) string {
	qname = dnswire.CanonicalName(qname)
	// Walk from qname upward toward (but excluding) the origin.
	for n := qname; n != z.origin && n != "."; n = dnswire.ParentName(n) {
		if z.cuts[n] {
			return n
		}
	}
	return ""
}

// InMemory implements dns53.InMemory: ServeDNS answers from the zone's
// maps under a read lock and never waits on I/O.
func (z *Zone) InMemory() bool { return true }

// ServeDNS implements dns53.Handler with authoritative semantics:
//
//   - name at/under a delegation cut → referral (NS in authority + glue)
//   - exact RRset → authoritative answer
//   - CNAME at the name → CNAME answer, chased within the zone
//   - name exists without the type → NODATA (empty answer + SOA)
//   - otherwise → NXDOMAIN + SOA
func (z *Zone) ServeDNS(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	resp := q.Reply()
	q0 := q.Question0()
	qname := dnswire.CanonicalName(q0.Name)
	if q0.Class != dnswire.ClassIN && q0.Class != dnswire.ClassANY {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	if !dnswire.IsSubdomain(qname, z.origin) {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp, nil
	}

	z.mu.RLock()
	defer z.mu.RUnlock()

	// Referral?
	if cut := z.cutFor(qname); cut != "" {
		resp.Header.AA = false
		nsSet := z.get(cut, dnswire.TypeNS)
		resp.Authority = append(resp.Authority, nsSet...)
		for _, rr := range nsSet {
			if ns, ok := rr.Data.(*dnswire.NS); ok {
				resp.Additional = append(resp.Additional, z.get(ns.Host, dnswire.TypeA)...)
				resp.Additional = append(resp.Additional, z.get(ns.Host, dnswire.TypeAAAA)...)
			}
		}
		return resp, nil
	}

	resp.Header.AA = true
	// Chase CNAMEs inside the zone, bounded against loops.
	name := qname
	for hops := 0; hops < 8; hops++ {
		if rrs := z.get(name, q0.Type); len(rrs) > 0 {
			resp.Answers = append(resp.Answers, rrs...)
			return resp, nil
		}
		cn := z.get(name, dnswire.TypeCNAME)
		if len(cn) == 0 || q0.Type == dnswire.TypeCNAME {
			break
		}
		resp.Answers = append(resp.Answers, cn...)
		target := cn[0].Data.(*dnswire.CNAME).Target
		if !dnswire.IsSubdomain(target, z.origin) {
			// Out-of-zone target: the resolver must chase it.
			return resp, nil
		}
		name = target
	}

	// NODATA or NXDOMAIN, both with the SOA for negative caching.
	if soa := z.get(z.origin, dnswire.TypeSOA); len(soa) > 0 {
		resp.Authority = append(resp.Authority, soa...)
	}
	if !z.nameExists(name) && len(resp.Answers) == 0 {
		resp.Header.RCode = dnswire.RCodeNXDomain
	}
	return resp, nil
}
