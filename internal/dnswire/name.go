package dnswire

import (
	"errors"
	"fmt"
	"strings"
)

// Errors returned by name encoding and decoding.
var (
	ErrNameTooLong     = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong    = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel      = errors.New("dnswire: empty label")
	ErrCompressionLoop = errors.New("dnswire: compression pointer loop")
	ErrTruncatedName   = errors.New("dnswire: truncated name")
	ErrBadPointer      = errors.New("dnswire: compression pointer out of range")
)

// Presentation-format escaping (RFC 4343 §2.1): wire labels are 8-bit
// clean, so a label byte that is a dot, a backslash, or non-printable is
// rendered as "\." / "\\" / "\DDD" in the string form. The codec escapes
// on decode (appendPresentationLabel) and unescapes on encode (appendName
// through nextNameByte), keeping string ↔ wire unambiguous even for
// hostile labels (a property the fuzzer checks).

// CanonicalName lowercases a domain name and ensures it ends with a single
// trailing dot, turning "" into ".". DNS names are case-insensitive
// (RFC 1035 §2.3.3) and the codec canonicalises on decode so lookups and
// comparisons are byte-equal. Escapes are preserved.
func CanonicalName(name string) string {
	if isCanonical(name) {
		return name // already canonical: no rewrite, no allocation
	}
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	return name + "."
}

// SplitLabels returns the labels of a canonical name, without the root,
// splitting only at unescaped dots. Labels stay in presentation
// (escaped) form. "www.example.com." → ["www", "example", "com"];
// "." → nil.
func SplitLabels(name string) []string {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '\\':
			i++ // skip the escaped byte
		case '.':
			out = append(out, name[start:i])
			start = i + 1
		}
	}
	return append(out, name[start:])
}

// ParentName strips the leftmost label: "www.example.com." → "example.com.";
// the root's parent is the root.
func ParentName(name string) string {
	name = CanonicalName(name)
	if name == "." {
		return "."
	}
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '\\':
			i++
		case '.':
			if i+1 == len(name) {
				return "."
			}
			return name[i+1:]
		}
	}
	return "."
}

// IsSubdomain reports whether child is equal to or below parent (both are
// canonicalised first). Every name is a subdomain of the root.
func IsSubdomain(child, parent string) bool {
	child, parent = CanonicalName(child), CanonicalName(parent)
	if parent == "." {
		return true
	}
	return child == parent || strings.HasSuffix(child, "."+parent)
}

// isCanonical reports whether name is already in canonical form (ends
// with a dot, no uppercase ASCII), letting the encode hot path skip the
// allocating CanonicalName rewrite.
func isCanonical(name string) bool {
	if len(name) == 0 || name[len(name)-1] != '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; c >= 'A' && c <= 'Z' {
			return false
		}
	}
	return true
}

// appendName encodes a domain name into wire format, appending to buf.
// When comp is non-nil it performs RFC 1035 §4.1.4 compression against
// the wire bytes already written. The name is canonicalised first; the
// common already-canonical case encodes without allocating.
func appendName(buf []byte, name string, comp *compressor) ([]byte, error) {
	if !isCanonical(name) {
		if endsInEscape(name) {
			// The root dot CanonicalName appends would complete it.
			return buf, fmt.Errorf("dnswire: dangling escape in name %q", name)
		}
		name = CanonicalName(name)
	}
	if name == "." {
		return append(buf, 0), nil
	}
	wireLen := 1 // the terminating root byte
	pos := 0
	for pos < len(name) {
		if comp != nil {
			if off := comp.find(buf, name, pos); off >= 0 {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			comp.add(len(buf))
		}
		// Encode one label: reserve the length octet, stream data bytes
		// (decoding escapes in place), then backfill the length.
		lenAt := len(buf)
		buf = append(buf, 0)
		ll := 0
		for pos < len(name) && name[pos] != '.' {
			b, next, ok := nextNameByte(name, pos)
			if !ok {
				return buf, fmt.Errorf("dnswire: bad escape in name %q", name)
			}
			if b >= 'A' && b <= 'Z' {
				// Canonical wire form (RFC 4034 §6.2) lowercases label
				// bytes; CanonicalName above misses bytes hidden in \DDD
				// escapes, so normalise here too.
				b += 'a' - 'A'
			}
			buf = append(buf, b)
			pos = next
			ll++
		}
		if ll == 0 {
			return buf, ErrEmptyLabel
		}
		if ll > maxLabelLen {
			return buf, ErrLabelTooLong
		}
		if wireLen += ll + 1; wireLen > maxNameLen {
			return buf, ErrNameTooLong
		}
		buf[lenAt] = byte(ll)
		pos++ // the separator (or trailing) dot
	}
	return append(buf, 0), nil
}

// endsInEscape reports whether name ends in a backslash that escapes
// nothing.
func endsInEscape(name string) bool {
	n := 0
	for i := len(name) - 1; i >= 0 && name[i] == '\\'; i-- {
		n++
	}
	return n%2 == 1
}

// appendPresentationLabel appends one raw wire label to dst in canonical
// presentation form: escaped per RFC 4343 and with ASCII uppercase
// lowered, so the result needs no ToLower pass.
func appendPresentationLabel(dst []byte, raw []byte) []byte {
	for _, b := range raw {
		switch {
		case b == '.' || b == '\\':
			dst = append(dst, '\\', b)
		case b >= 'A' && b <= 'Z':
			dst = append(dst, b+('a'-'A'))
		case b < '!' || b > '~':
			dst = append(dst, '\\', '0'+b/100, '0'+b/10%10, '0'+b%10)
		default:
			dst = append(dst, b)
		}
	}
	return dst
}

// readNameDec decodes a domain name starting at off, following compression
// pointers. It returns the canonical name and the offset just past the name
// in the original (non-pointer) byte stream. Pointer chains are bounded to
// reject loops; names that exceed RFC limits are rejected. When d is
// non-nil the name is assembled in d's reusable scratch buffer and
// interned, so steady-state decoding of recurring names does not allocate.
func readNameDec(msg []byte, off int, d *decoder) (string, int, error) {
	var nb []byte // nil-decoder path lets append allocate; it returns a fresh string anyway
	if d != nil {
		nb = d.nameBuf[:0]
	}
	ptrBudget := 32 // far more than any legitimate message nests
	nameLen := 0
	end := -1 // offset after the name in the top-level stream
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedName
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			if len(nb) == 0 {
				return ".", end, nil
			}
			if d != nil {
				d.nameBuf = nb
				return d.internName(nb), end, nil
			}
			return string(nb), end, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedName
			}
			if ptrBudget--; ptrBudget < 0 {
				return "", 0, ErrCompressionLoop
			}
			target := int(b&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if target >= off {
				// Forward (or self) pointers enable loops; RFC compression
				// only ever points backwards.
				return "", 0, ErrBadPointer
			}
			off = target
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", b&0xC0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncatedName
			}
			nameLen += l + 1
			if nameLen > maxNameLen {
				return "", 0, ErrNameTooLong
			}
			nb = appendPresentationLabel(nb, msg[off+1:off+1+l])
			nb = append(nb, '.')
			off += 1 + l
		}
	}
}

// ValidateName checks that a presentation-format name can be encoded:
// labels non-empty and <= 63 octets, total wire length <= 255.
func ValidateName(name string) error {
	_, err := appendName(nil, name, nil)
	return err
}
