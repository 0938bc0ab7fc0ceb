package authdns

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"encdns/internal/dnswire"
)

// ParseZone reads a zone in RFC 1035 presentation format (the master-file
// syntax served by real authoritative servers) and returns a Zone rooted
// at origin. Supported: $ORIGIN and $TTL directives, '@' for the origin,
// relative names, ';' comments, parenthesised continuations (SOA), and
// the record types A, AAAA, NS, CNAME, PTR, MX, TXT, SRV, CAA, SOA.
func ParseZone(origin string, r io.Reader) (*Zone, error) {
	z := NewZone(origin)
	p := &zoneParser{
		zone:    z,
		origin:  dnswire.CanonicalName(origin),
		ttl:     3600,
		lastOwn: dnswire.CanonicalName(origin),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineno := 0
	var pending strings.Builder
	depth := 0
	firstLineOmitsOwner := false
	for sc.Scan() {
		lineno++
		line := stripComment(sc.Text())
		if pending.Len() == 0 {
			// Owner omission is decided by the entry's FIRST line; later
			// continuation lines are indented by convention.
			firstLineOmitsOwner = len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
		}
		// Parenthesised records span lines until the parens balance.
		depth += strings.Count(line, "(") - strings.Count(line, ")")
		if depth < 0 {
			return nil, fmt.Errorf("authdns: line %d: unbalanced parentheses", lineno)
		}
		pending.WriteString(" " + line)
		if depth > 0 {
			continue
		}
		entry := strings.NewReplacer("(", " ", ")", " ").Replace(pending.String())
		pending.Reset()
		if err := p.entry(entry, firstLineOmitsOwner); err != nil {
			return nil, fmt.Errorf("authdns: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("authdns: reading zone: %w", err)
	}
	if depth != 0 {
		return nil, fmt.Errorf("authdns: unterminated parentheses at end of zone")
	}
	return z, nil
}

func stripComment(line string) string {
	// Semicolons inside quoted strings (TXT) do not start comments.
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

type zoneParser struct {
	zone    *Zone
	origin  string
	ttl     uint32
	lastOwn string
}

// entry processes one logical (continuation-joined) zone entry.
func (p *zoneParser) entry(raw string, ownerOmitted bool) error {
	fields := tokenize(raw)
	if len(fields) == 0 {
		return nil
	}
	switch strings.ToUpper(fields[0]) {
	case "$ORIGIN":
		if len(fields) != 2 {
			return fmt.Errorf("$ORIGIN wants one argument")
		}
		p.origin = dnswire.CanonicalName(fields[1])
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return fmt.Errorf("$TTL wants one argument")
		}
		ttl, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad $TTL %q", fields[1])
		}
		p.ttl = uint32(ttl)
		return nil
	case "$INCLUDE":
		return fmt.Errorf("$INCLUDE is not supported")
	}

	// Owner name: omitted (leading whitespace) repeats the previous owner.
	owner := p.lastOwn
	if !ownerOmitted {
		owner = p.absName(fields[0])
		fields = fields[1:]
	}
	p.lastOwn = owner
	if !dnswire.IsSubdomain(owner, p.zone.Origin()) {
		return fmt.Errorf("%s is outside zone %s", owner, p.zone.Origin())
	}

	// Optional TTL and class, in either order (RFC 1035 §5.1).
	ttl := p.ttl
	class := dnswire.ClassIN
	for len(fields) > 0 {
		f := strings.ToUpper(fields[0])
		if n, err := strconv.ParseUint(f, 10, 32); err == nil {
			ttl = uint32(n)
			fields = fields[1:]
			continue
		}
		if f == "IN" || f == "CH" || f == "HS" {
			fields = fields[1:]
			continue
		}
		break
	}
	if len(fields) == 0 {
		return fmt.Errorf("missing record type for %s", owner)
	}
	typ, ok := dnswire.ParseType(strings.ToUpper(fields[0]))
	if !ok {
		return fmt.Errorf("unknown record type %q", fields[0])
	}
	rdata, err := p.parseRData(typ, fields[1:])
	if err != nil {
		return fmt.Errorf("%s %s: %w", owner, typ, err)
	}
	p.zone.Add(dnswire.Record{Name: owner, Type: typ, Class: class, TTL: ttl, Data: rdata})
	return nil
}

// absName resolves a presentation name against the current origin.
func (p *zoneParser) absName(name string) string {
	if name == "@" {
		return p.origin
	}
	if strings.HasSuffix(name, ".") {
		return dnswire.CanonicalName(name)
	}
	if p.origin == "." {
		return dnswire.CanonicalName(name)
	}
	return dnswire.CanonicalName(name + "." + p.origin)
}

func (p *zoneParser) parseRData(t dnswire.Type, f []string) (dnswire.RData, error) {
	need := func(n int) error {
		if len(f) != n {
			return fmt.Errorf("want %d field(s), have %d", n, len(f))
		}
		return nil
	}
	switch t {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(f[0])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad IPv4 %q", f[0])
		}
		return &dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(f[0])
		if err != nil || !addr.Is6() || addr.Is4In6() {
			return nil, fmt.Errorf("bad IPv6 %q", f[0])
		}
		return &dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		return &dnswire.NS{Host: p.absName(f[0])}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		return &dnswire.CNAME{Target: p.absName(f[0])}, nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		return &dnswire.PTR{Target: p.absName(f[0])}, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(f[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", f[0])
		}
		return &dnswire.MX{Preference: uint16(pref), Host: p.absName(f[1])}, nil
	case dnswire.TypeTXT:
		if len(f) == 0 {
			return nil, fmt.Errorf("TXT wants at least one string")
		}
		return &dnswire.TXT{Strings: f}, nil
	case dnswire.TypeSRV:
		if err := need(4); err != nil {
			return nil, err
		}
		var nums [3]uint16
		for i := 0; i < 3; i++ {
			n, err := strconv.ParseUint(f[i], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("bad SRV field %q", f[i])
			}
			nums[i] = uint16(n)
		}
		return &dnswire.SRV{Priority: nums[0], Weight: nums[1], Port: nums[2], Target: p.absName(f[3])}, nil
	case dnswire.TypeCAA:
		if err := need(3); err != nil {
			return nil, err
		}
		flags, err := strconv.ParseUint(f[0], 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad CAA flags %q", f[0])
		}
		return &dnswire.CAA{Flags: uint8(flags), Tag: f[1], Value: f[2]}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			n, err := strconv.ParseUint(f[2+i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SOA number %q", f[2+i])
			}
			nums[i] = uint32(n)
		}
		return &dnswire.SOA{
			MName: p.absName(f[0]), RName: p.absName(f[1]),
			Serial: nums[0], Refresh: nums[1], Retry: nums[2],
			Expire: nums[3], Minimum: nums[4],
		}, nil
	default:
		return nil, fmt.Errorf("type %s not supported in zone files", t)
	}
}

// tokenize splits an entry into fields, honouring double-quoted strings
// (for TXT payloads containing whitespace).
func tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			if inQuote {
				// Closing quote: emit even when empty.
				out = append(out, cur.String())
				cur.Reset()
			}
			inQuote = !inQuote
		case !inQuote && (c == ' ' || c == '\t'):
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}
