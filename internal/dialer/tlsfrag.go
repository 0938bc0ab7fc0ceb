package dialer

import (
	"encoding/binary"
	"net"
)

// TLS constants used by the fragmenter and the segment inspectors.
const (
	recordHeaderLen      = 5
	recordTypeHandshake  = 0x16
	handshakeClientHello = 0x01
	extServerName        = 0x0000
)

// fragConn rewrites the connection's first TLS record (the ClientHello)
// into two smaller TLS records split at splitAt, or in the middle of the
// SNI hostname when splitAt is 0 (the payload midpoint when no SNI is
// present). It buffers the first write(s) until the record is complete.
// Record-level fragmentation is legal TLS — every compliant peer
// reassembles handshake messages across records (RFC 8446 §5.1) — but a
// middlebox that matches the SNI against a blocklist without reassembling
// records never sees the full name. Everything after the first record,
// and any non-TLS stream, passes through untouched, so a misapplied
// tlsfrag layer degrades to a no-op.
type fragConn struct {
	net.Conn
	splitAt int
	buf     []byte
	done    bool
}

func (c *fragConn) Write(b []byte) (int, error) {
	if c.done {
		return c.Conn.Write(b)
	}
	c.buf = append(c.buf, b...)
	if len(c.buf) == 0 {
		return 0, nil
	}
	// Not a TLS handshake record: flush and get out of the way.
	if c.buf[0] != recordTypeHandshake {
		return c.flush(len(b))
	}
	if len(c.buf) < recordHeaderLen {
		return len(b), nil // header still arriving
	}
	recLen := int(binary.BigEndian.Uint16(c.buf[3:5]))
	if recLen < 2 {
		return c.flush(len(b))
	}
	if len(c.buf) < recordHeaderLen+recLen {
		return len(b), nil // record payload still arriving
	}
	payload := c.buf[recordHeaderLen : recordHeaderLen+recLen]
	rest := c.buf[recordHeaderLen+recLen:]
	split := c.splitPoint(payload)

	// Two records, written as two segments so neither carries a
	// parseable ClientHello on its own.
	out := make([]byte, 0, recordHeaderLen+split)
	out = append(out, c.buf[0], c.buf[1], c.buf[2], byte(split>>8), byte(split))
	out = append(out, payload[:split]...)
	if _, err := c.Conn.Write(out); err != nil {
		return 0, layerErr("tlsfrag", err)
	}
	out = out[:0]
	tail := len(payload) - split
	out = append(out, c.buf[0], c.buf[1], c.buf[2], byte(tail>>8), byte(tail))
	out = append(out, payload[split:]...)
	out = append(out, rest...)
	if _, err := c.Conn.Write(out); err != nil {
		return 0, layerErr("tlsfrag", err)
	}
	c.buf, c.done = nil, true
	return len(b), nil
}

// flush writes the buffer through unmodified and disables fragmentation.
func (c *fragConn) flush(consumed int) (int, error) {
	_, err := c.Conn.Write(c.buf)
	c.buf, c.done = nil, true
	if err != nil {
		return 0, layerErr("tlsfrag", err)
	}
	return consumed, nil
}

// splitPoint picks the in-payload split index: the configured byte, the
// middle of the SNI hostname, or the payload midpoint.
func (c *fragConn) splitPoint(payload []byte) int {
	split := c.splitAt
	if split <= 0 {
		if off, n, ok := sniRange(payload); ok && n > 1 {
			split = off + n/2
		} else {
			split = len(payload) / 2
		}
	}
	if split < 1 {
		split = 1
	}
	if split >= len(payload) {
		split = len(payload) - 1
	}
	return split
}

// parseSNI extracts the server_name from a client→server segment that
// begins a complete TLS ClientHello record. ok is false when the segment
// is not TLS, the record or handshake message is incomplete within the
// segment (fragmented — exactly what evasion chains arrange), or no SNI
// extension is present. RSTOnSNI, the SNI-filtering middlebox, uses it
// the way real single-segment DPI does: no cross-segment reassembly.
func parseSNI(segment []byte) (sni string, ok bool) {
	payload, ok := completeHandshakeRecord(segment)
	if !ok {
		return "", false
	}
	off, n, ok := sniRange(payload)
	if !ok {
		return "", false
	}
	return string(payload[off : off+n]), true
}

// firstRecordLen reports the declared length (header included) of the
// TLS record a segment begins with. ok is false for non-TLS bytes.
func firstRecordLen(segment []byte) (n int, ok bool) {
	if len(segment) < recordHeaderLen || segment[0] != recordTypeHandshake {
		return 0, false
	}
	return recordHeaderLen + int(binary.BigEndian.Uint16(segment[3:5])), true
}

// completeHandshakeRecord returns the payload of the segment's first TLS
// record iff the record is complete in the segment and carries a full
// ClientHello handshake message.
func completeHandshakeRecord(segment []byte) ([]byte, bool) {
	if len(segment) < recordHeaderLen || segment[0] != recordTypeHandshake {
		return nil, false
	}
	recLen := int(binary.BigEndian.Uint16(segment[3:5]))
	if len(segment) < recordHeaderLen+recLen || recLen < 4 {
		return nil, false
	}
	payload := segment[recordHeaderLen : recordHeaderLen+recLen]
	if payload[0] != handshakeClientHello {
		return nil, false
	}
	hsLen := int(payload[1])<<16 | int(payload[2])<<8 | int(payload[3])
	if hsLen+4 > recLen {
		return nil, false // handshake message spans records: fragmented
	}
	return payload[:hsLen+4], true
}

// sniRange locates the SNI hostname bytes inside a ClientHello handshake
// message (record payload starting at the handshake header). It returns
// the offset and length of the hostname relative to the payload start.
func sniRange(payload []byte) (off, n int, ok bool) {
	// handshake header(4) + version(2) + random(32)
	p := 4 + 2 + 32
	if len(payload) < p+1 {
		return 0, 0, false
	}
	p += 1 + int(payload[p]) // session id
	if len(payload) < p+2 {
		return 0, 0, false
	}
	p += 2 + int(binary.BigEndian.Uint16(payload[p:])) // cipher suites
	if len(payload) < p+1 {
		return 0, 0, false
	}
	p += 1 + int(payload[p]) // compression methods
	if len(payload) < p+2 {
		return 0, 0, false
	}
	extEnd := p + 2 + int(binary.BigEndian.Uint16(payload[p:]))
	p += 2
	if extEnd > len(payload) {
		return 0, 0, false
	}
	for p+4 <= extEnd {
		extType := int(binary.BigEndian.Uint16(payload[p:]))
		extLen := int(binary.BigEndian.Uint16(payload[p+2:]))
		p += 4
		if p+extLen > extEnd {
			return 0, 0, false
		}
		if extType == extServerName {
			// server_name_list: len(2), then entries of type(1)+len(2)+name.
			q := p
			if extLen < 5 {
				return 0, 0, false
			}
			q += 2 // list length
			if payload[q] != 0 {
				return 0, 0, false // not host_name
			}
			nameLen := int(binary.BigEndian.Uint16(payload[q+1:]))
			q += 3
			if q+nameLen > p+extLen {
				return 0, 0, false
			}
			return q, nameLen, true
		}
		p += extLen
	}
	return 0, 0, false
}
