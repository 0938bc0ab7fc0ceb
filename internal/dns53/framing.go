package dns53

import (
	"encoding/binary"
	"fmt"
	"io"

	"encdns/internal/bufpool"
	"encdns/internal/dnswire"
)

// WriteTCPMsg writes one DNS message with the RFC 1035 §4.2.2 two-octet
// length prefix. It is used by the TCP and DoT transports. The frame is
// assembled in a pooled buffer and written in one call so the message
// cannot be split across a slow-start boundary by a second write.
func WriteTCPMsg(w io.Writer, msg []byte) error {
	if len(msg) > dnswire.MaxMessageSize {
		return dnswire.ErrMessageTooLarge
	}
	bp := bufpool.Get()
	defer bufpool.Put(bp)
	buf := append(append((*bp)[:0], byte(len(msg)>>8), byte(len(msg))), msg...)
	*bp = buf
	_, err := w.Write(buf)
	return err
}

// ReadTCPMsg reads one length-prefixed DNS message. A zero-length frame is
// rejected as malformed.
func ReadTCPMsg(r io.Reader) ([]byte, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(l[:]))
	if n == 0 {
		return nil, fmt.Errorf("dns53: zero-length TCP frame")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
