package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// RData is the typed payload of a resource record.
type RData interface {
	// appendRData encodes the RDATA, appending to buf. comp is the message
	// compression state; implementations for the RFC 1035 types whose names
	// are compressible pass it through, others must not.
	appendRData(buf []byte, comp *compressor) ([]byte, error)
	// String renders the RDATA in presentation format.
	String() string
}

// ErrBadRData reports malformed RDATA for the record type.
var ErrBadRData = errors.New("dnswire: malformed RDATA")

// parseRData decodes rdlen octets at off as the RDATA of type t. Every
// type without a case here decodes to Raw, the DNSSEC and SVCB/HTTPS types
// included: nothing in the stack reads their fields, and none of them may
// compress a name in its RDATA (RFC 3597 §4, RFC 4034, RFC 9460 §2.2), so
// they travel byte for byte. d, when non-nil, supplies reusable RData structs
// and interned names for the common types (see decode.go); a nil d
// allocates fresh values.
func parseRData(t Type, msg []byte, off, rdlen int, d *decoder) (RData, error) {
	rd := msg[off : off+rdlen]
	switch t {
	case TypeA:
		if rdlen != 4 {
			return nil, fmt.Errorf("%w: A length %d", ErrBadRData, rdlen)
		}
		a := d.newA()
		a.Addr = netip.AddrFrom4([4]byte(rd))
		return a, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, fmt.Errorf("%w: AAAA length %d", ErrBadRData, rdlen)
		}
		a := d.newAAAA()
		a.Addr = netip.AddrFrom16([16]byte(rd))
		return a, nil
	case TypeNS, TypeCNAME, TypePTR:
		name, end, err := readNameDec(msg, off, d)
		if err != nil {
			return nil, err
		}
		if end != off+rdlen {
			return nil, fmt.Errorf("%w: %s name length", ErrBadRData, t)
		}
		switch t {
		case TypeNS:
			ns := d.newNS()
			ns.Host = name
			return ns, nil
		case TypeCNAME:
			cn := d.newCNAME()
			cn.Target = name
			return cn, nil
		default:
			p := d.newPTR()
			p.Target = name
			return p, nil
		}
	case TypeSOA:
		return parseSOA(msg, off, rdlen, d)
	case TypeMX:
		if rdlen < 3 {
			return nil, fmt.Errorf("%w: MX too short", ErrBadRData)
		}
		pref := binary.BigEndian.Uint16(rd)
		host, end, err := readNameDec(msg, off+2, d)
		if err != nil {
			return nil, err
		}
		if end != off+rdlen {
			return nil, fmt.Errorf("%w: MX name length", ErrBadRData)
		}
		mx := d.newMX()
		mx.Preference, mx.Host = pref, host
		return mx, nil
	case TypeTXT:
		return parseTXT(rd, d)
	case TypeSRV:
		if rdlen < 7 {
			return nil, fmt.Errorf("%w: SRV too short", ErrBadRData)
		}
		target, end, err := readNameDec(msg, off+6, d)
		if err != nil {
			return nil, err
		}
		if end != off+rdlen {
			return nil, fmt.Errorf("%w: SRV name length", ErrBadRData)
		}
		srv := d.newSRV()
		srv.Priority = binary.BigEndian.Uint16(rd)
		srv.Weight = binary.BigEndian.Uint16(rd[2:])
		srv.Port = binary.BigEndian.Uint16(rd[4:])
		srv.Target = target
		return srv, nil
	case TypeOPT:
		return parseOPT(rd, d)
	case TypeCAA:
		return parseCAA(rd)
	default:
		r := d.newRaw()
		r.Data = append(r.Data, rd...)
		return r, nil
	}
}

// A is an IPv4 address record (RFC 1035 §3.4.1).
type A struct{ Addr netip.Addr }

func (a *A) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is4() {
		return nil, fmt.Errorf("%w: A with non-IPv4 address %s", ErrBadRData, a.Addr)
	}
	b := a.Addr.As4()
	return append(buf, b[:]...), nil
}

func (a *A) String() string { return a.Addr.String() }

// AAAA is an IPv6 address record (RFC 3596).
type AAAA struct{ Addr netip.Addr }

func (a *AAAA) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return nil, fmt.Errorf("%w: AAAA with non-IPv6 address %s", ErrBadRData, a.Addr)
	}
	b := a.Addr.As16()
	return append(buf, b[:]...), nil
}

func (a *AAAA) String() string { return a.Addr.String() }

// NS is a delegation record (RFC 1035 §3.3.11).
type NS struct{ Host string }

func (n *NS) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	return appendName(buf, n.Host, comp)
}

func (n *NS) String() string { return CanonicalName(n.Host) }

// CNAME is an alias record (RFC 1035 §3.3.1).
type CNAME struct{ Target string }

func (c *CNAME) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	return appendName(buf, c.Target, comp)
}

func (c *CNAME) String() string { return CanonicalName(c.Target) }

// PTR is a reverse-mapping record (RFC 1035 §3.3.12).
type PTR struct{ Target string }

func (p *PTR) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	return appendName(buf, p.Target, comp)
}

func (p *PTR) String() string { return CanonicalName(p.Target) }

// SOA is a start-of-authority record (RFC 1035 §3.3.13).
type SOA struct {
	MName   string // primary name server
	RName   string // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // negative-caching TTL per RFC 2308
}

func (s *SOA) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, s.MName, comp); err != nil {
		return nil, err
	}
	if buf, err = appendName(buf, s.RName, comp); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint32(buf, s.Serial)
	buf = binary.BigEndian.AppendUint32(buf, s.Refresh)
	buf = binary.BigEndian.AppendUint32(buf, s.Retry)
	buf = binary.BigEndian.AppendUint32(buf, s.Expire)
	buf = binary.BigEndian.AppendUint32(buf, s.Minimum)
	return buf, nil
}

func (s *SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		CanonicalName(s.MName), CanonicalName(s.RName),
		s.Serial, s.Refresh, s.Retry, s.Expire, s.Minimum)
}

func parseSOA(msg []byte, off, rdlen int, d *decoder) (*SOA, error) {
	s := d.newSOA()
	var err error
	end := off + rdlen
	if s.MName, off, err = readNameDec(msg, off, d); err != nil {
		return nil, err
	}
	if s.RName, off, err = readNameDec(msg, off, d); err != nil {
		return nil, err
	}
	if off+20 != end {
		return nil, fmt.Errorf("%w: SOA fixed fields", ErrBadRData)
	}
	s.Serial = binary.BigEndian.Uint32(msg[off:])
	s.Refresh = binary.BigEndian.Uint32(msg[off+4:])
	s.Retry = binary.BigEndian.Uint32(msg[off+8:])
	s.Expire = binary.BigEndian.Uint32(msg[off+12:])
	s.Minimum = binary.BigEndian.Uint32(msg[off+16:])
	return s, nil
}

// MX is a mail-exchange record (RFC 1035 §3.3.9).
type MX struct {
	Preference uint16
	Host       string
}

func (m *MX) appendRData(buf []byte, comp *compressor) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, m.Preference)
	return appendName(buf, m.Host, comp)
}

func (m *MX) String() string {
	return fmt.Sprintf("%d %s", m.Preference, CanonicalName(m.Host))
}

// TXT is a text record (RFC 1035 §3.3.14): one or more character-strings.
type TXT struct{ Strings []string }

func (t *TXT) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	if len(t.Strings) == 0 {
		return nil, fmt.Errorf("%w: TXT needs at least one string", ErrBadRData)
	}
	for _, s := range t.Strings {
		if len(s) > 255 {
			return nil, fmt.Errorf("%w: TXT string exceeds 255 octets", ErrBadRData)
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

func (t *TXT) String() string {
	parts := make([]string, len(t.Strings))
	for i, s := range t.Strings {
		parts[i] = fmt.Sprintf("%q", s)
	}
	return strings.Join(parts, " ")
}

func parseTXT(rd []byte, d *decoder) (*TXT, error) {
	t := d.newTXT()
	for len(rd) > 0 {
		l := int(rd[0])
		if 1+l > len(rd) {
			return nil, fmt.Errorf("%w: TXT string overruns RDATA", ErrBadRData)
		}
		t.Strings = append(t.Strings, string(rd[1:1+l]))
		rd = rd[1+l:]
	}
	if len(t.Strings) == 0 {
		return nil, fmt.Errorf("%w: empty TXT", ErrBadRData)
	}
	return t, nil
}

// SRV is a service-location record (RFC 2782). Its target name is not
// compressible per the RFC.
type SRV struct {
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   string
}

func (s *SRV) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, s.Priority)
	buf = binary.BigEndian.AppendUint16(buf, s.Weight)
	buf = binary.BigEndian.AppendUint16(buf, s.Port)
	return appendName(buf, s.Target, nil)
}

func (s *SRV) String() string {
	return fmt.Sprintf("%d %d %d %s", s.Priority, s.Weight, s.Port, CanonicalName(s.Target))
}

// CAA is a certification-authority-authorization record (RFC 8659).
type CAA struct {
	Flags uint8
	Tag   string
	Value string
}

func (c *CAA) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	if len(c.Tag) == 0 || len(c.Tag) > 255 {
		return nil, fmt.Errorf("%w: CAA tag length", ErrBadRData)
	}
	buf = append(buf, c.Flags, byte(len(c.Tag)))
	buf = append(buf, c.Tag...)
	return append(buf, c.Value...), nil
}

func (c *CAA) String() string {
	return fmt.Sprintf("%d %s %q", c.Flags, c.Tag, c.Value)
}

func parseCAA(rd []byte) (*CAA, error) {
	if len(rd) < 2 {
		return nil, fmt.Errorf("%w: CAA too short", ErrBadRData)
	}
	tagLen := int(rd[1])
	if tagLen == 0 || 2+tagLen > len(rd) {
		return nil, fmt.Errorf("%w: CAA tag", ErrBadRData)
	}
	return &CAA{
		Flags: rd[0],
		Tag:   string(rd[2 : 2+tagLen]),
		Value: string(rd[2+tagLen:]),
	}, nil
}

// OPT is the EDNS0 pseudo-record of RFC 6891. On the wire its CLASS carries
// the requestor's UDP payload size and its TTL packs the extended RCODE,
// EDNS version, and DO bit; Pack/Unpack translate between that encoding and
// these fields.
type OPT struct {
	UDPSize  uint16
	ExtRCode uint8
	Version  uint8
	DO       bool // DNSSEC OK
	Options  []EDNSOption
}

// EDNSOption is one EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// OptionCodeClusterHop marks a query forwarded once inside a resolver
// cluster (internal/cluster): the receiving peer must answer locally and
// never forward again, which bounds any routing disagreement between
// peers' hash rings to one extra hop. The code sits in the RFC 6891
// local/experimental range (65001–65534) and never leaves a cluster's own
// peer links.
const OptionCodeClusterHop uint16 = 65021

func (o *OPT) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	for _, opt := range o.Options {
		buf = binary.BigEndian.AppendUint16(buf, opt.Code)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(opt.Data)))
		buf = append(buf, opt.Data...)
	}
	return buf, nil
}

func (o *OPT) String() string {
	return fmt.Sprintf("; EDNS: version %d; udp: %d; do: %v", o.Version, o.UDPSize, o.DO)
}

func parseOPT(rd []byte, d *decoder) (*OPT, error) {
	o := d.newOPT()
	for len(rd) > 0 {
		if len(rd) < 4 {
			return nil, fmt.Errorf("%w: OPT option header", ErrBadRData)
		}
		code := binary.BigEndian.Uint16(rd)
		vlen := int(binary.BigEndian.Uint16(rd[2:]))
		if 4+vlen > len(rd) {
			return nil, fmt.Errorf("%w: OPT option value", ErrBadRData)
		}
		v := make([]byte, vlen)
		copy(v, rd[4:4+vlen])
		o.Options = append(o.Options, EDNSOption{Code: code, Data: v})
		rd = rd[4+vlen:]
	}
	return o, nil
}

// Raw is the RDATA of every record type this codec does not model, kept
// as the octets it arrived in; the record's Type names the type.
type Raw struct {
	Data []byte
}

func (r *Raw) appendRData(buf []byte, _ *compressor) ([]byte, error) {
	return append(buf, r.Data...), nil
}

// String renders the RFC 3597 §5 generic form: \# length, then the octets
// in hex, with no hex field when there are none.
func (r *Raw) String() string {
	if len(r.Data) == 0 {
		return "\\# 0"
	}
	return fmt.Sprintf("\\# %d %x", len(r.Data), r.Data)
}
