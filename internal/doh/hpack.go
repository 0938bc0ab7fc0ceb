package doh

import "errors"

// The receive half of HPACK (RFC 7541): what a server needs to read the
// header blocks a client sends. The send half does not exist — responses
// are encoded statelessly (static-table names, literal values), so only
// the peer's encoder and this decoder share a dynamic table.

// hpackTableSize is the dynamic table size this decoder allows the peer's
// encoder: SETTINGS_HEADER_TABLE_SIZE at its default, which is therefore
// never sent.
const hpackTableSize = 4096

// hpackEntryOverhead is what RFC 7541 §4.1 adds to the octets of a field
// when it sizes one, in the dynamic table and in a header list alike.
const hpackEntryOverhead = 32

var errHPACK = errors.New("doh: invalid HPACK header block")

// hpackDecoder holds one connection's dynamic table; maxSize starts at
// hpackTableSize. Evicted entries keep their buffers for the next
// insertion, so a connection in steady state decodes without allocating.
type hpackDecoder struct {
	ents    []hpackEntry // ents[:n] live, oldest first; ents[n:] spare buffers
	n       int
	size    int // RFC 7541 §4.1 size of the live entries
	maxSize int // the limit the peer's encoder last announced
}

type hpackEntry struct {
	buf     []byte // name, then value
	nameLen int
}

// A decoded header list is flat: per field two big-endian uint16 lengths,
// then the name and the value. The bytes are copies, so a list stays valid
// whatever later blocks do to the dynamic table.

// nextField returns the first field of a flat header list and the rest.
func nextField(list []byte) (name, value, rest []byte) {
	n, v := int(list[0])<<8|int(list[1]), int(list[2])<<8|int(list[3])
	return list[4 : 4+n], list[4+n : 4+n+v], list[4+n+v:]
}

// decode appends the header list of one complete header block onto list.
// Once the decoded fields, sized as SETTINGS_MAX_HEADER_LIST_SIZE sizes
// them, pass limit (below 64 KiB, so every length fits the flat format),
// the rest is still decoded — the dynamic table must follow the peer's —
// but dropped, and tooLarge is set. An error is a COMPRESSION_ERROR: the
// table can no longer be trusted and the connection must end.
func (d *hpackDecoder) decode(list, block []byte, limit int) (out []byte, tooLarge bool, err error) {
	total, fields := 0, false
	for len(block) > 0 {
		b := block[0]
		if b&0xe0 == 0x20 { // dynamic table size update
			var size int
			if size, block, err = hpackInt(block, 5); err != nil || fields || size > hpackTableSize {
				return list, tooLarge, errHPACK // §4.2: only at the start of a block, never above the setting
			}
			d.maxSize = size
			d.evict(0)
			continue
		}
		fields = true
		var index int
		indexed, insert := false, false
		switch {
		case b&0x80 != 0: // indexed field
			indexed = true
			if index, block, err = hpackInt(block, 7); index == 0 {
				return list, tooLarge, errHPACK
			}
		case b&0xc0 == 0x40: // literal, inserted into the table
			insert = true
			index, block, err = hpackInt(block, 6)
		default: // literal, not inserted (0000) or never to be (0001)
			index, block, err = hpackInt(block, 4)
		}
		if err != nil {
			return list, tooLarge, errHPACK
		}
		at := len(list)
		list = append(list, 0, 0, 0, 0)
		nameLen := 0
		if index != 0 {
			var ok bool
			if list, nameLen, ok = d.appendEntry(list, index, indexed); !ok {
				return list[:at], tooLarge, errHPACK
			}
		}
		if !indexed {
			if index == 0 {
				if list, block, err = hpackString(list, block); err != nil {
					return list[:at], tooLarge, err
				}
				nameLen = len(list) - at - 4
			}
			if list, block, err = hpackString(list, block); err != nil {
				return list[:at], tooLarge, err
			}
			if insert {
				d.insert(list[at+4:at+4+nameLen], list[at+4+nameLen:])
			}
		}
		valueLen := len(list) - at - 4 - nameLen
		total += nameLen + valueLen + hpackEntryOverhead
		if total > limit {
			list, tooLarge = list[:at], true
			continue
		}
		list[at], list[at+1], list[at+2], list[at+3] = byte(nameLen>>8), byte(nameLen), byte(valueLen>>8), byte(valueLen)
	}
	return list, tooLarge, nil
}

// appendEntry appends the name, and with value also the value, of an entry
// of the combined address space of §2.3.3: 1-61 the static table, from 62
// the dynamic table, newest first.
func (d *hpackDecoder) appendEntry(list []byte, index int, value bool) (out []byte, nameLen int, ok bool) {
	if index < len(hpackStatic) {
		list = append(list, hpackStatic[index][0]...)
		if value {
			list = append(list, hpackStatic[index][1]...)
		}
		return list, len(hpackStatic[index][0]), true
	}
	index -= len(hpackStatic)
	if index >= d.n {
		return list, 0, false
	}
	e := &d.ents[d.n-1-index]
	if value {
		return append(list, e.buf...), e.nameLen, true
	}
	return append(list, e.buf[:e.nameLen]...), e.nameLen, true
}

// insert adds an entry, evicting from the old end until it fits; an entry
// larger than the whole table empties it (§4.4).
func (d *hpackDecoder) insert(name, value []byte) {
	need := len(name) + len(value) + hpackEntryOverhead
	d.evict(need)
	if need > d.maxSize {
		return
	}
	if d.n == len(d.ents) {
		d.ents = append(d.ents, hpackEntry{})
	}
	e := &d.ents[d.n]
	e.buf = append(append(e.buf[:0], name...), value...)
	e.nameLen = len(name)
	d.n++
	d.size += need
}

// evict drops the oldest entries until room more octets fit under maxSize.
// A dropped entry moves behind the live ones, where its buffer is the spare
// the next insertion fills.
func (d *hpackDecoder) evict(room int) {
	for d.n > 0 && d.size+room > d.maxSize {
		e := d.ents[0]
		d.size -= len(e.buf) + hpackEntryOverhead
		copy(d.ents, d.ents[1:d.n])
		d.n--
		d.ents[d.n] = e
	}
}

// hpackInt reads the prefix-bit integer of §5.1 that starts in block[0].
func hpackInt(block []byte, prefix uint) (int, []byte, error) {
	if len(block) == 0 {
		return 0, nil, errHPACK
	}
	mask := 1<<prefix - 1
	v := int(block[0]) & mask
	block = block[1:]
	if v < mask {
		return v, block, nil
	}
	for shift := uint(0); shift <= 21; shift += 7 { // 2^28 is beyond any length a frame can carry
		if len(block) == 0 {
			return 0, nil, errHPACK
		}
		b := block[0]
		block = block[1:]
		v += int(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, block, nil
		}
	}
	return 0, nil, errHPACK
}

// hpackString appends the string literal of §5.2 at the front of block,
// Huffman-decoded when it says so.
func hpackString(dst, block []byte) ([]byte, []byte, error) {
	if len(block) == 0 {
		return dst, nil, errHPACK
	}
	huffman := block[0]&0x80 != 0
	n, block, err := hpackInt(block, 7)
	if err != nil || n > len(block) {
		return dst, nil, errHPACK
	}
	if !huffman {
		return append(dst, block[:n]...), block[n:], nil
	}
	dst, ok := appendHuffman(dst, block[:n])
	if !ok {
		return dst, nil, errHPACK
	}
	return dst, block[n:], nil
}

// huffEntry is one slot of a 256-way decoding table, indexed by the next
// eight bits of input. A code that ends inside those bits fills every slot
// that starts with it (sym, and bits of the eight consumed); a longer code
// continues in table next. A slot with neither is on the path of EOS, which
// must not appear in a string.
type huffEntry struct {
	next uint8
	sym  uint8
	bits uint8
}

// huffTables[0] is the root.
var huffTables = buildHuffTables()

func buildHuffTables() [][256]huffEntry {
	tables := make([][256]huffEntry, 1)
	for sym, code := range huffCodes {
		n, t := uint(huffLens[sym]), 0
		for n > 8 {
			n -= 8
			slot := &tables[t][byte(code>>n)]
			if slot.next == 0 {
				slot.next = uint8(len(tables))
				tables = append(tables, [256]huffEntry{})
				slot = &tables[t][byte(code>>n)]
			}
			t = int(slot.next)
		}
		first := int(byte(code << (8 - n)))
		for i := first; i < first+1<<(8-n); i++ {
			tables[t][i] = huffEntry{sym: uint8(sym), bits: uint8(n)}
		}
	}
	return tables
}

// appendHuffman appends the decoding of src. It fails on EOS inside the
// string, on padding longer than seven bits and on padding that is not
// the front of EOS, i.e. all ones (§5.2).
func appendHuffman(dst, src []byte) ([]byte, bool) {
	var cur uint   // the low have bits are input not yet decoded
	var have uint  // at most 15
	var since uint // bits taken in since the last symbol ended
	t := 0
	for _, b := range src {
		cur = cur<<8 | uint(b)
		have += 8
		since += 8
		for have >= 8 {
			e := huffTables[t][byte(cur>>(have-8))]
			switch {
			case e.next != 0:
				t = int(e.next)
				have -= 8
			case e.bits == 0:
				return dst, false
			default:
				dst = append(dst, e.sym)
				have -= uint(e.bits)
				since = have
				t = 0
			}
		}
	}
	for have > 0 {
		e := huffTables[t][byte(cur<<(8-have))]
		if e.next != 0 || e.bits == 0 || uint(e.bits) > have {
			break
		}
		dst = append(dst, e.sym)
		have -= uint(e.bits)
		since = have
		t = 0
	}
	ones := uint(1)<<have - 1
	return dst, since <= 7 && cur&ones == ones
}
