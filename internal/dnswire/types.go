// Package dnswire implements the DNS wire format of RFC 1035 with the EDNS0
// extensions of RFC 6891: message header, domain-name encoding with
// compression pointers, question and resource-record sections, and typed
// RDATA for the record types the measurement tool and its resolver substrate
// read (A, AAAA, CNAME, NS, SOA, PTR, MX, TXT, SRV, OPT, CAA). Every other
// type, DNSSEC's and SVCB/HTTPS included, travels as opaque RDATA (Raw,
// RFC 3597).
//
// The codec is written from scratch against the RFCs — it is the stand-in
// for miekg/dns in this stdlib-only reproduction — and is deliberately
// strict when parsing: truncated messages, compression loops, and label
// overflows are errors, never panics.
package dnswire

import "fmt"

// Type is a resource-record TYPE (RFC 1035 §3.2.2 and successors).
type Type uint16

// Record types used by this repository.
const (
	TypeNone   Type = 0
	TypeA      Type = 1
	TypeNS     Type = 2
	TypeCNAME  Type = 5
	TypeSOA    Type = 6
	TypePTR    Type = 12
	TypeMX     Type = 15
	TypeTXT    Type = 16
	TypeAAAA   Type = 28
	TypeSRV    Type = 33
	TypeOPT    Type = 41 // EDNS0 pseudo-RR, RFC 6891
	TypeDS     Type = 43 // RFC 4034
	TypeRRSIG  Type = 46
	TypeNSEC   Type = 47
	TypeDNSKEY Type = 48
	TypeSVCB   Type = 64 // RFC 9460
	TypeHTTPS  Type = 65
	TypeCAA    Type = 257
	TypeANY    Type = 255
)

var typeNames = map[Type]string{
	TypeA: "A", TypeNS: "NS", TypeCNAME: "CNAME", TypeSOA: "SOA",
	TypePTR: "PTR", TypeMX: "MX", TypeTXT: "TXT", TypeAAAA: "AAAA",
	TypeSRV: "SRV", TypeOPT: "OPT", TypeDS: "DS", TypeRRSIG: "RRSIG",
	TypeNSEC: "NSEC", TypeDNSKEY: "DNSKEY", TypeSVCB: "SVCB", TypeHTTPS: "HTTPS",
	TypeCAA: "CAA", TypeANY: "ANY",
}

// String returns the conventional mnemonic, or TYPEn for unknown types.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// ParseType maps a mnemonic back to its Type. It returns TypeNone and false
// for unknown mnemonics.
func ParseType(s string) (Type, bool) {
	for t, name := range typeNames {
		if name == s {
			return t, true
		}
	}
	return TypeNone, false
}

// Class is a resource-record CLASS (RFC 1035 §3.2.4).
type Class uint16

// Classes. Only IN is used on today's Internet; the OPT pseudo-RR abuses the
// class field for the requestor's UDP payload size.
const (
	ClassIN  Class = 1
	ClassCH  Class = 3
	ClassHS  Class = 4
	ClassANY Class = 255
)

// String returns the conventional mnemonic, or CLASSn for unknown classes.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassCH:
		return "CH"
	case ClassHS:
		return "HS"
	case ClassANY:
		return "ANY"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// Opcode is the header OPCODE field.
type Opcode uint8

// Opcodes (RFC 1035 §4.1.1; NOTIFY and UPDATE from later RFCs).
const (
	OpcodeQuery  Opcode = 0
	OpcodeIQuery Opcode = 1
	OpcodeStatus Opcode = 2
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

// String returns the conventional mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpcodeQuery:
		return "QUERY"
	case OpcodeIQuery:
		return "IQUERY"
	case OpcodeStatus:
		return "STATUS"
	case OpcodeNotify:
		return "NOTIFY"
	case OpcodeUpdate:
		return "UPDATE"
	}
	return fmt.Sprintf("OPCODE%d", uint8(o))
}

// RCode is the response code (header RCODE, optionally extended by EDNS0).
type RCode uint16

// Response codes.
const (
	RCodeSuccess  RCode = 0 // NOERROR
	RCodeFormat   RCode = 1 // FORMERR
	RCodeServFail RCode = 2 // SERVFAIL
	RCodeNXDomain RCode = 3 // NXDOMAIN
	RCodeNotImpl  RCode = 4 // NOTIMP
	RCodeRefused  RCode = 5 // REFUSED
	// RCodeBadVers needs EDNS: its upper eight bits travel in the OPT
	// record (RFC 6891 §6.1.3), the header carries 0.
	RCodeBadVers RCode = 16 // BADVERS
)

var rcodeNames = map[RCode]string{
	RCodeSuccess: "NOERROR", RCodeFormat: "FORMERR", RCodeServFail: "SERVFAIL",
	RCodeNXDomain: "NXDOMAIN", RCodeNotImpl: "NOTIMP", RCodeRefused: "REFUSED",
	RCodeBadVers: "BADVERS",
}

// String returns the conventional mnemonic.
func (r RCode) String() string {
	if s, ok := rcodeNames[r]; ok {
		return s
	}
	return fmt.Sprintf("RCODE%d", uint16(r))
}

// Wire-format size limits.
const (
	// MaxUDPSize is the classic 512-byte UDP payload limit of RFC 1035.
	MaxUDPSize = 512
	// MaxEDNSSize is the de-facto standard EDNS0 buffer size advertised by
	// most modern resolvers.
	MaxEDNSSize = 1232
	// MaxMessageSize bounds any DNS message (TCP length prefix is 16-bit).
	MaxMessageSize = 65535
	// maxLabelLen and maxNameLen are the RFC 1035 §2.3.4 limits.
	maxLabelLen = 63
	maxNameLen  = 255
)
