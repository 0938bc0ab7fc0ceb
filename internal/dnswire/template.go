package dnswire

import "encoding/binary"

// Wire-surgery helpers for the answer-template fast path: a cache can
// store a response's answer section as packed bytes and serve hits by
// copying them behind a freshly written header and the client's own
// question bytes, patching the TTLs in place instead of re-packing
// records.

// Flags returns the packed 16 header flag bits (the wire form of
// everything in the header except ID and the section counts).
func (h Header) Flags() uint16 { return h.packFlags() }

// AppendRawHeader appends the 12-octet wire header with explicit flag
// bits and section counts. It is the template fast path's header writer;
// AppendPack derives the same fields from the Message instead.
func AppendRawHeader(dst []byte, id, flags, qd, an, ns, ar uint16) []byte {
	return append(dst,
		byte(id>>8), byte(id),
		byte(flags>>8), byte(flags),
		byte(qd>>8), byte(qd),
		byte(an>>8), byte(an),
		byte(ns>>8), byte(ns),
		byte(ar>>8), byte(ar),
	)
}

// TruncateToQuestion shrinks a packed response to header plus its qlen-
// byte question section, zeroes the answer/authority/additional counts,
// and sets TC — the UDP size-limit fallback for a template-served hit
// whose answers did not fit (RFC 1035 §4.1.1; the client retries over
// TCP). It returns the shrunk slice.
func TruncateToQuestion(msg []byte, qlen int) []byte {
	msg = msg[:12+qlen]
	binary.BigEndian.PutUint16(msg[2:], binary.BigEndian.Uint16(msg[2:])|1<<9) // TC
	binary.BigEndian.PutUint16(msg[6:], 0)                                     // ANCOUNT
	binary.BigEndian.PutUint16(msg[8:], 0)                                     // NSCOUNT
	binary.BigEndian.PutUint16(msg[10:], 0)                                    // ARCOUNT
	return msg
}

// QuestionBytes returns the raw wire bytes of the question section when
// msg carries exactly one question whose name is a plain uncompressed
// label sequence, and ok=false otherwise (zero or several questions, a
// compression pointer or reserved label type in the name, truncation).
//
// The returned slice aliases msg. A response can echo it verbatim after
// a fresh header — preserving the client's 0x20 mixed-case spelling —
// because an uncompressed question always re-encodes to the same wire
// length, which is what keeps a template's compression pointers (packed
// against the canonical spelling at the same offsets) valid.
func QuestionBytes(msg []byte) ([]byte, bool) {
	if len(msg) < 12 || binary.BigEndian.Uint16(msg[4:]) != 1 {
		return nil, false
	}
	off := 12
	for {
		if off >= len(msg) {
			return nil, false
		}
		b := msg[off]
		if b == 0 {
			off++
			break
		}
		if b&0xC0 != 0 {
			// Compression pointer or reserved label type: the name would
			// re-encode to a different length, so it cannot be echoed.
			return nil, false
		}
		off += int(b) + 1
		if off-12 > maxNameLen {
			return nil, false
		}
	}
	if off+4 > len(msg) {
		return nil, false
	}
	return msg[12 : off+4], true
}
