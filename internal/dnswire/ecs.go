package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// EDNS option codes used by this codec.
const (
	// OptionCodeECS is the EDNS Client Subnet option (RFC 7871). ECS is
	// how recursive resolvers tell authoritative servers roughly where
	// the client is, so CDNs can map users to nearby caches even when
	// the resolver is far away — the failure mode Otto et al. measured
	// (§2.2) and one reason resolver choice affects page load times.
	OptionCodeECS uint16 = 8
	// OptionCodeCookie is the DNS Cookie option (RFC 7873).
	OptionCodeCookie uint16 = 10
	// OptionCodePadding is the EDNS(0) padding option (RFC 7830), used by
	// encrypted transports to blunt traffic analysis.
	OptionCodePadding uint16 = 12
	// OptionCodeClusterHop marks a query forwarded once inside a resolver
	// cluster (internal/cluster): the receiving peer must answer locally
	// and never forward again, which bounds any routing disagreement
	// between peers' hash rings to one extra hop. The code sits in the
	// RFC 6891 local/experimental range (65001–65534) and never leaves a
	// cluster's own peer links.
	OptionCodeClusterHop uint16 = 65021
)

// ECS address families (RFC 7871 §6, from the IANA address-family
// registry).
const (
	ecsFamilyIPv4 uint16 = 1
	ecsFamilyIPv6 uint16 = 2
)

// ECS is a parsed EDNS Client Subnet option.
type ECS struct {
	// Prefix is the client subnet, masked to the source prefix length
	// (e.g. 203.0.113.0/24).
	Prefix netip.Prefix
	// ScopeLen is the server-reported scope prefix length; zero on
	// queries.
	ScopeLen uint8
}

// MarshalECS encodes the option payload per RFC 7871 §6: family,
// source/scope prefix lengths, then only the significant address octets.
// The family is the prefix's own: an IPv4-mapped IPv6 prefix is sent as
// IPv6, so that every payload ParseECS accepts marshals back unchanged.
func MarshalECS(e ECS) ([]byte, error) {
	if !e.Prefix.IsValid() {
		return nil, fmt.Errorf("dnswire: invalid ECS prefix")
	}
	p := e.Prefix.Masked()
	family := ecsFamilyIPv4
	addr := p.Addr()
	if addr.Is6() {
		family = ecsFamilyIPv6
	}
	srcLen := p.Bits()
	nBytes := (srcLen + 7) / 8
	buf := make([]byte, 4, 4+nBytes)
	binary.BigEndian.PutUint16(buf, family)
	buf[2] = uint8(srcLen)
	buf[3] = e.ScopeLen
	raw := addr.AsSlice()
	return append(buf, raw[:nBytes]...), nil
}

// ParseECS decodes an ECS option payload.
func ParseECS(b []byte) (ECS, error) {
	if len(b) < 4 {
		return ECS{}, fmt.Errorf("%w: ECS header", ErrBadRData)
	}
	family := binary.BigEndian.Uint16(b)
	srcLen := int(b[2])
	scope := b[3]
	nBytes := (srcLen + 7) / 8
	if len(b) != 4+nBytes {
		return ECS{}, fmt.Errorf("%w: ECS address length %d for /%d", ErrBadRData, len(b)-4, srcLen)
	}
	var addrLen int
	switch family {
	case ecsFamilyIPv4:
		addrLen = 4
	case ecsFamilyIPv6:
		addrLen = 16
	default:
		return ECS{}, fmt.Errorf("%w: ECS family %d", ErrBadRData, family)
	}
	if srcLen > addrLen*8 {
		return ECS{}, fmt.Errorf("%w: ECS source length %d", ErrBadRData, srcLen)
	}
	full := make([]byte, addrLen)
	copy(full, b[4:])
	addr, ok := netip.AddrFromSlice(full)
	if !ok {
		return ECS{}, fmt.Errorf("%w: ECS address", ErrBadRData)
	}
	prefix, err := addr.Prefix(srcLen)
	if err != nil {
		return ECS{}, fmt.Errorf("%w: ECS prefix: %v", ErrBadRData, err)
	}
	// RFC 7871 §6: trailing bits beyond the prefix length MUST be zero.
	if prefix.Addr() != addr {
		return ECS{}, fmt.Errorf("%w: ECS has non-zero bits past /%d", ErrBadRData, srcLen)
	}
	return ECS{Prefix: prefix, ScopeLen: scope}, nil
}

// SetECS attaches (or replaces) an ECS option on the message's OPT
// record, creating the OPT with the given UDP size when absent.
func (m *Message) SetECS(e ECS, udpSize uint16) error {
	payload, err := MarshalECS(e)
	if err != nil {
		return err
	}
	opt, ok := m.EDNS()
	if !ok {
		m.SetEDNS(udpSize, false)
		opt, _ = m.EDNS()
	}
	// Replace any existing ECS option.
	kept := opt.Options[:0]
	for _, o := range opt.Options {
		if o.Code != OptionCodeECS {
			kept = append(kept, o)
		}
	}
	opt.Options = append(kept, EDNSOption{Code: OptionCodeECS, Data: payload})
	return nil
}

// GetECS extracts the ECS option from the message, if present.
func (m *Message) GetECS() (ECS, bool) {
	opt, ok := m.EDNS()
	if !ok {
		return ECS{}, false
	}
	for _, o := range opt.Options {
		if o.Code == OptionCodeECS {
			e, err := ParseECS(o.Data)
			if err != nil {
				return ECS{}, false
			}
			return e, true
		}
	}
	return ECS{}, false
}

// PadTo appends an EDNS padding option so the packed message length is a
// multiple of block (RFC 8467 recommends 128-octet blocks for encrypted
// DNS queries). The message must already carry an OPT record.
func (m *Message) PadTo(block int) error {
	if block <= 0 {
		return fmt.Errorf("dnswire: padding block must be positive")
	}
	opt, ok := m.EDNS()
	if !ok {
		return fmt.Errorf("dnswire: PadTo needs an EDNS OPT record")
	}
	// Strip any existing padding first.
	kept := opt.Options[:0]
	for _, o := range opt.Options {
		if o.Code != OptionCodePadding {
			kept = append(kept, o)
		}
	}
	opt.Options = kept
	wire, err := m.Pack()
	if err != nil {
		return err
	}
	// Adding the option costs 4 octets of TLV header plus the pad bytes.
	cur := len(wire) + 4
	pad := (block - cur%block) % block
	opt.Options = append(opt.Options, EDNSOption{
		Code: OptionCodePadding, Data: make([]byte, pad),
	})
	return nil
}
