package resolver

import (
	"encoding/binary"
	"time"

	"encdns/internal/dnswire"
)

// answerTemplate is a cache entry's precomputed wire-format answer: the
// packed answer section as it would appear in a response whose question
// is the entry's canonical name, plus the offsets of every answer TTL so
// a serve can age them by patching bytes in place. Templates are built
// once at put time and immutable afterwards, which is what lets hits be
// served straight from them after the shard lock is dropped. An entry
// holds its template by value; the zero template means "none" (qlen 0
// matches no request, a question being at least five octets).
//
// Layout invariant: the template's bytes were packed into a message of
// the form header(12) + question(qlen) + answers, so its RFC 1035 §4.1.4
// compression pointers (absolute, message-start-relative) resolve
// correctly in any response with the same layout. Serving therefore
// requires the request's raw question to have exactly qlen bytes — true
// for every uncompressed spelling of the name, including 0x20 mixed
// case, since case changes never change label lengths.
type answerTemplate struct {
	// wire is the packed answer section (empty for negative entries).
	wire []byte
	// ttlOffs are the byte offsets of each answer TTL within wire.
	ttlOffs []uint16
	// qlen is the wire length of the question section the template was
	// packed against (name + type + class).
	qlen uint16
	// ancount is the number of answer records in wire.
	ancount uint16
}

// buildTemplate packs rrs (nil for a negative entry) into an answer
// template for key. It returns the zero template — meaning "serve this
// entry via the materialize path" — when the RRset does not pack
// (oversized message, unencodable RDATA).
func buildTemplate(key cacheKey, rrs []dnswire.Record) answerTemplate {
	m := dnswire.Message{
		Header:    dnswire.Header{QR: true, RA: true},
		Questions: []dnswire.Question{{Name: key.name, Type: key.typ, Class: dnswire.ClassIN}},
		Answers:   rrs,
	}
	packed, offs, err := m.AppendPackTTLOffsets(make([]byte, 0, 128+32*len(rrs)), nil)
	if err != nil {
		return answerTemplate{}
	}
	rawQ, ok := dnswire.QuestionBytes(packed)
	if !ok {
		return answerTemplate{}
	}
	ansBase := 12 + len(rawQ)
	t := answerTemplate{
		wire:    packed[ansBase:],
		qlen:    uint16(len(rawQ)),
		ancount: uint16(len(rrs)),
	}
	if len(offs) > 0 {
		t.ttlOffs = make([]uint16, len(offs))
		for i, off := range offs {
			t.ttlOffs[i] = uint16(off - ansBase)
		}
	}
	return t
}

// negativeTemplate is the template of a negative entry: no answer bytes,
// so all it holds is the length of the question it answers. For a name
// whose presentation form maps one to one onto wire octets that length is
// arithmetic and nothing is packed; escapes, and names the codec would
// reject, take the pack.
func negativeTemplate(key cacheKey) answerTemplate {
	if n, ok := plainWireLen(key.name); ok {
		return answerTemplate{qlen: uint16(n + 4)}
	}
	return buildTemplate(key, nil)
}

// plainWireLen is the wire length of a canonical name written without
// escapes: every label's dot becomes its length octet and the trailing
// dot the root, one octet more than the string. ok is false for a name
// with an escape or one the codec would not encode (an empty or over-long
// label, more than 255 octets).
func plainWireLen(name string) (n int, ok bool) {
	if name == "." {
		return 1, true
	}
	label := 0
	for i := 0; i < len(name); i++ {
		switch name[i] {
		case '\\':
			return 0, false
		case '.':
			if label == 0 || label > 63 {
				return 0, false
			}
			label = 0
		default:
			label++
		}
	}
	return len(name) + 1, label == 0 && len(name) < 255
}

// questionKey is the cache key of q's one question. ok is false for any
// other shape, and for an empty name, which the materialize path answers
// with FORMERR.
func questionKey(q *dnswire.Message) (cacheKey, bool) {
	if len(q.Questions) != 1 || q.Questions[0].Name == "" {
		return cacheKey{}, false
	}
	return cacheKey{name: dnswire.CanonicalName(q.Questions[0].Name), typ: q.Questions[0].Type}, true
}

// AppendResponse serves a cache hit for q's question straight from the
// entry's wire template, appending the complete response message to dst:
// a fresh header (q's ID, flags derived the same way the materialize
// path's Reply does), rawQuestion echoed verbatim (preserving the
// client's 0x20 case), the template's answer bytes, and TTLs aged in
// place. No Record slice, no compressor, no AppendPack — a hit is a
// header write plus two memcpys and a few byte patches.
//
// ok is false whenever the fast path cannot answer bit-identically to
// the materialize path — miss, expired entry, no template, or a raw
// question whose wire length differs from the template's (compressed
// name spellings). The caller then falls back to the ServeDNS path,
// which owns miss accounting, so a failed fast path never double-counts.
// The lookup is an ordinary find: an expired entry it meets is evicted
// then and there, and one it declines still counts as used.
func (c *Cache) AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, LookupResult, bool) {
	key, ok := questionKey(q)
	if !ok {
		return dst, LookupResult{}, false
	}
	return c.appendResponse(dst, key, q, rawQuestion)
}

// appendResponse is AppendResponse for q's key. The entry is immutable,
// so its template is copied after find has dropped the shard lock.
func (c *Cache) appendResponse(dst []byte, key cacheKey, q *dnswire.Message, rawQuestion []byte) ([]byte, LookupResult, bool) {
	e, remaining := c.find(key, c.now())
	if e == nil || int(e.tmpl.qlen) != len(rawQuestion) {
		return dst, LookupResult{}, false
	}
	rcode := dnswire.RCodeSuccess
	if e.nxdomain {
		rcode = dnswire.RCodeNXDomain
	}
	flags := dnswire.Header{
		QR:     true,
		Opcode: q.Header.Opcode,
		RD:     q.Header.RD,
		RA:     true,
		RCode:  rcode,
	}.Flags()
	tmpl := &e.tmpl
	dst = dnswire.AppendRawHeader(dst, q.Header.ID, flags, 1, tmpl.ancount, 0, 0)
	dst = append(dst, rawQuestion...)
	ansBase := len(dst)
	dst = append(dst, tmpl.wire...)
	aged := uint32(remaining / time.Second)
	for _, off := range tmpl.ttlOffs {
		p := dst[ansBase+int(off):]
		if binary.BigEndian.Uint32(p) > aged {
			binary.BigEndian.PutUint32(p, aged)
		}
	}
	cacheHits.Inc()
	cacheHitTemplate.Inc()
	return dst, e.result(remaining), true
}

// AppendResponse implements the dns53.ResponseAppender fast path for the
// recursive resolver: direct cache hits are served from wire templates,
// still feeding refresh-ahead exactly like a materialized hit. Anything
// else — miss, CNAME chase — declines, and the server falls back to
// ServeDNS.
func (r *Recursive) AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, int64, bool) {
	key, ok := questionKey(q)
	if !ok {
		return dst, 0, false
	}
	out, res, ok := r.Cache.appendResponse(dst, key, q, rawQuestion)
	if !ok {
		return dst, 0, false
	}
	r.noteRefreshAhead(key, res)
	return out, res.MinTTL(), true
}

// AppendResponse implements the dns53.ResponseAppender fast path for the
// forwarding resolver.
func (f *Forwarder) AppendResponse(dst []byte, q *dnswire.Message, rawQuestion []byte) ([]byte, int64, bool) {
	out, res, ok := f.Cache.AppendResponse(dst, q, rawQuestion)
	if !ok {
		return dst, 0, false
	}
	return out, res.MinTTL(), true
}
