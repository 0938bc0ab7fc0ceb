package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Errors returned by message encoding and decoding.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrMessageTooLarge  = errors.New("dnswire: message exceeds 65535 octets")
	ErrTrailingGarbage  = errors.New("dnswire: trailing bytes after message")
)

// Header is the 12-octet DNS message header (RFC 1035 §4.1.1).
type Header struct {
	ID     uint16
	QR     bool // response flag
	Opcode Opcode
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	AD     bool // authentic data (RFC 4035)
	CD     bool // checking disabled (RFC 4035)
	RCode  RCode
}

// Question is one entry of the question section (RFC 1035 §4.1.2).
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like presentation format.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", CanonicalName(q.Name), q.Class, q.Type)
}

// Record is one resource record: common fields plus typed RDATA.
type Record struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the record in zone-file-like presentation format.
func (r Record) String() string {
	return fmt.Sprintf("%s %d %s %s %s",
		CanonicalName(r.Name), r.TTL, r.Class, r.Type, r.Data)
}

// Message is a full DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []Record
	Authority  []Record
	Additional []Record

	// dec is the reusable decode state of pooled messages (AcquireMessage);
	// nil for ordinary messages.
	dec *decoder
}

// Reset clears the message for reuse, keeping section capacity (and, for
// pooled messages, the decoder arenas' capacity).
func (m *Message) Reset() {
	m.Header = Header{}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]
	if m.dec != nil {
		m.dec.reset()
	}
}

// NewQuery builds a standard recursive query for one question with the
// given message ID. The message and its question are one allocation.
func NewQuery(id uint16, name string, t Type) *Message {
	q := &struct {
		msg      Message
		question [1]Question
	}{
		msg:      Message{Header: Header{ID: id, RD: true}},
		question: [1]Question{{Name: CanonicalName(name), Type: t, Class: ClassIN}},
	}
	q.msg.Questions = q.question[:]
	return &q.msg
}

// Reply builds a response skeleton for the message: same ID, opcode, and
// question, QR set, RD copied. The question section is deep-copied into a
// fresh slice so the reply stays valid even when m is a pooled message
// that is later reused.
func (m *Message) Reply() *Message {
	r := &Message{
		Header: Header{
			ID:     m.Header.ID,
			QR:     true,
			Opcode: m.Header.Opcode,
			RD:     m.Header.RD,
		},
	}
	if len(m.Questions) > 0 {
		r.Questions = make([]Question, len(m.Questions))
		copy(r.Questions, m.Questions)
	}
	return r
}

// Question0 returns the first question, or a zero Question when absent.
// Virtually all real-world messages carry exactly one question.
func (m *Message) Question0() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// EDNS returns the OPT pseudo-record from the additional section, if any.
func (m *Message) EDNS() (*OPT, bool) {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			if o, ok := m.Additional[i].Data.(*OPT); ok {
				return o, true
			}
		}
	}
	return nil, false
}

// SetEDNS attaches (or replaces) an OPT pseudo-record advertising the given
// UDP payload size and DO bit. Every existing OPT is removed first, so a
// malformed message carrying several cannot keep a stray one.
func (m *Message) SetEDNS(udpSize uint16, do bool) {
	kept := m.Additional[:0]
	for _, rr := range m.Additional {
		if rr.Type != TypeOPT {
			kept = append(kept, rr)
		}
	}
	m.Additional = kept
	opt := &OPT{UDPSize: udpSize, DO: do}
	m.Additional = append(m.Additional, Record{
		Name: ".", Type: TypeOPT, Class: Class(udpSize), Data: opt,
	})
}

// packFlags assembles the 16 header flag bits.
func (h Header) packFlags() uint16 {
	var f uint16
	if h.QR {
		f |= 1 << 15
	}
	f |= uint16(h.Opcode&0xF) << 11
	if h.AA {
		f |= 1 << 10
	}
	if h.TC {
		f |= 1 << 9
	}
	if h.RD {
		f |= 1 << 8
	}
	if h.RA {
		f |= 1 << 7
	}
	if h.AD {
		f |= 1 << 5
	}
	if h.CD {
		f |= 1 << 4
	}
	f |= uint16(h.RCode & 0xF)
	return f
}

// unpackFlags splits the 16 header flag bits.
func unpackFlags(f uint16) Header {
	return Header{
		QR:     f&(1<<15) != 0,
		Opcode: Opcode(f >> 11 & 0xF),
		AA:     f&(1<<10) != 0,
		TC:     f&(1<<9) != 0,
		RD:     f&(1<<8) != 0,
		RA:     f&(1<<7) != 0,
		AD:     f&(1<<5) != 0,
		CD:     f&(1<<4) != 0,
		RCode:  RCode(f & 0xF),
	}
}

// Pack encodes the message into wire format with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack encodes the message into wire format with name compression,
// appending to buf and returning the extended slice. Compression pointers
// are relative to the message start (len(buf) at call time), so callers
// may pack after a prefix — e.g. directly behind a 2-octet TCP length.
// Packing into a reused buffer is allocation-free in the steady state.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	return m.appendPack(buf, nil)
}

// AppendPackTTLOffsets is AppendPack plus the byte offsets, relative to
// the message start, of every record TTL it wrote (OPT pseudo-records
// excluded — their TTL field carries EDNS flags, not a lifetime). The
// offsets append to offs. It exists for answer templates: a cached packed
// response can be aged in place by patching the recorded offsets.
func (m *Message) AppendPackTTLOffsets(buf []byte, offs []int) ([]byte, []int, error) {
	buf, err := m.appendPack(buf, &offs)
	return buf, offs, err
}

func (m *Message) appendPack(buf []byte, ttlOffs *[]int) ([]byte, error) {
	base := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint16(buf[base:], m.Header.ID)
	binary.BigEndian.PutUint16(buf[base+2:], m.Header.packFlags())
	binary.BigEndian.PutUint16(buf[base+4:], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(buf[base+6:], uint16(len(m.Answers)))
	binary.BigEndian.PutUint16(buf[base+8:], uint16(len(m.Authority)))
	binary.BigEndian.PutUint16(buf[base+10:], uint16(len(m.Additional)))

	comp := compressors.Get().(*compressor)
	comp.reset(base)
	defer compressors.Put(comp)
	var err error
	for i := range m.Questions {
		q := &m.Questions[i]
		if buf, err = appendName(buf, q.Name, comp); err != nil {
			return nil, fmt.Errorf("question %q: %w", q.Name, err)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [3][]Record{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			var ttlAt int
			if buf, ttlAt, err = appendRecord(buf, rr, comp); err != nil {
				return nil, fmt.Errorf("record %q %s: %w", rr.Name, rr.Type, err)
			}
			if ttlOffs != nil && rr.Type != TypeOPT {
				*ttlOffs = append(*ttlOffs, ttlAt-base)
			}
		}
	}
	if len(buf)-base > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	return buf, nil
}

// appendRecord encodes one resource record, including its RDATA. It also
// returns the absolute buf offset of the 4-octet TTL it wrote, so packers
// building answer templates can record where to patch aged TTLs.
func appendRecord(buf []byte, rr Record, comp *compressor) ([]byte, int, error) {
	var err error
	if buf, err = appendName(buf, rr.Name, comp); err != nil {
		return nil, 0, err
	}
	// The OPT pseudo-RR (RFC 6891 §6.1.2) repurposes CLASS as the UDP
	// payload size and TTL as extended-RCODE/version/flags; derive both
	// from the typed payload so callers only fill in the OPT struct.
	if opt, ok := rr.Data.(*OPT); ok && rr.Type == TypeOPT {
		rr.Class = Class(opt.UDPSize)
		rr.TTL = uint32(opt.ExtRCode)<<24 | uint32(opt.Version)<<16
		if opt.DO {
			rr.TTL |= 1 << 15
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	ttlAt := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	// Reserve RDLENGTH, encode RDATA, then backfill the length.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	if rr.Data == nil {
		return nil, 0, errors.New("dnswire: record has nil RDATA")
	}
	// RDATA names are compressible for the types RFC 1035 defines as such
	// (NS, CNAME, SOA, PTR, MX); appendRData passes comp selectively.
	buf, err = rr.Data.appendRData(buf, comp)
	if err != nil {
		return nil, 0, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xFFFF {
		return nil, 0, errors.New("dnswire: RDATA exceeds 65535 octets")
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, ttlAt, nil
}

// Unpack decodes a wire-format message into a fresh Message. It is
// strict: short sections, malformed names, and RDATA length mismatches
// are errors. Trailing bytes after the counted sections are rejected.
// Hot paths that parse many messages should use AcquireMessage and
// (*Message).Unpack instead, which reuse decode state.
func Unpack(msg []byte) (*Message, error) {
	m := new(Message)
	if err := m.Unpack(msg); err != nil {
		return nil, err
	}
	return m, nil
}

// Unpack decodes a wire-format message into m, replacing its contents.
// Section slices are reused; on a pooled Message (AcquireMessage) the
// RDATA structs and name strings are reused too, so steady-state decoding
// allocates nothing. On error m is left partially filled and must be
// Reset (or released) before reuse.
func (m *Message) Unpack(msg []byte) error {
	m.Reset()
	if len(msg) < 12 {
		return ErrTruncatedMessage
	}
	d := m.dec
	m.Header = unpackFlags(binary.BigEndian.Uint16(msg[2:]))
	m.Header.ID = binary.BigEndian.Uint16(msg[0:])
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))

	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = readNameDec(msg, off, d); err != nil {
			return err
		}
		if off+4 > len(msg) {
			return ErrTruncatedMessage
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	if m.Answers, off, err = unpackSection(msg, off, an, m.Answers, d); err != nil {
		return err
	}
	if m.Authority, off, err = unpackSection(msg, off, ns, m.Authority, d); err != nil {
		return err
	}
	if m.Additional, off, err = unpackSection(msg, off, ar, m.Additional, d); err != nil {
		return err
	}
	// An EDNS OPT record extends the RCODE with 8 more high bits.
	if opt, ok := m.EDNS(); ok {
		m.Header.RCode |= RCode(opt.ExtRCode) << 4
	}
	if off != len(msg) {
		return ErrTrailingGarbage
	}
	return nil
}

// unpackSection decodes n records at off, appending to dst.
func unpackSection(msg []byte, off, n int, dst []Record, d *decoder) ([]Record, int, error) {
	var err error
	for i := 0; i < n; i++ {
		var rr Record
		if rr, off, err = readRecord(msg, off, d); err != nil {
			return dst, 0, err
		}
		dst = append(dst, rr)
	}
	return dst, off, nil
}

// readRecord decodes one resource record at off.
func readRecord(msg []byte, off int, d *decoder) (Record, int, error) {
	var rr Record
	var err error
	if rr.Name, off, err = readNameDec(msg, off, d); err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, ErrTruncatedMessage
	}
	rr.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	rr.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	rr.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return rr, 0, ErrTruncatedMessage
	}
	rr.Data, err = parseRData(rr.Type, msg, off, rdlen, d)
	if err != nil {
		return rr, 0, err
	}
	// Reverse the OPT pseudo-RR field packing (see appendRecord).
	if opt, ok := rr.Data.(*OPT); ok {
		opt.UDPSize = uint16(rr.Class)
		opt.ExtRCode = uint8(rr.TTL >> 24)
		opt.Version = uint8(rr.TTL >> 16)
		opt.DO = rr.TTL&(1<<15) != 0
	}
	return rr, off + rdlen, nil
}

// String renders the message in a dig-like multi-section format, useful for
// logs and the CLI's verbose mode.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; opcode: %s, status: %s, id: %d\n",
		m.Header.Opcode, m.Header.RCode, m.Header.ID)
	fmt.Fprintf(&sb, ";; flags:%s; QUERY: %d, ANSWER: %d, AUTHORITY: %d, ADDITIONAL: %d\n",
		m.flagString(), len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional))
	if len(m.Questions) > 0 {
		sb.WriteString(";; QUESTION SECTION:\n")
		for _, q := range m.Questions {
			fmt.Fprintf(&sb, ";%s\n", q)
		}
	}
	for _, sec := range []struct {
		name string
		rrs  []Record
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authority}, {"ADDITIONAL", m.Additional}} {
		if len(sec.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";; %s SECTION:\n", sec.name)
		for _, rr := range sec.rrs {
			fmt.Fprintf(&sb, "%s\n", rr)
		}
	}
	return sb.String()
}

func (m *Message) flagString() string {
	var parts []string
	h := m.Header
	for _, f := range []struct {
		on   bool
		name string
	}{{h.QR, "qr"}, {h.AA, "aa"}, {h.TC, "tc"}, {h.RD, "rd"}, {h.RA, "ra"}, {h.AD, "ad"}, {h.CD, "cd"}} {
		if f.on {
			parts = append(parts, f.name)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return " " + strings.Join(parts, " ")
}
