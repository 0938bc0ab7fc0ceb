// Package wire is the benchmark's own DNS client side: hand-built
// queries, the seeded query streams of the workloads, and the validator
// every answer goes through. It is shared by the black-box harness and
// the traced run, and imports nothing from the repository.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// The paper's three query Domains (§3.2) and the A rdata the built-in
// authoritative leaves hold for them. The harness never imports the
// repository's packages, so these are the golden answers a black-box
// client expects; a response carrying anything else is a wrong answer.
var Domains = []string{"google.com", "amazon.com", "wikipedia.com"}

var KnownA = [][][4]byte{
	{{142, 250, 64, 78}},
	{{205, 251, 242, 103}, {52, 94, 236, 248}, {54, 239, 28, 85}},
	{{208, 80, 154, 232}},
}

const (
	RCodeNoError  = 0
	RCodeNXDomain = 3

	TypeA   = 1
	ClassIN = 1
)

// AppendName appends name in uncompressed wire form.
func AppendName(dst []byte, name string) []byte {
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0)
}

// appendHeader appends the header of a standard query: RD set, one
// question.
func appendHeader(dst []byte, id uint16) []byte {
	return append(dst, byte(id>>8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0)
}

// AppendQuery appends a standard query for name: type A, class IN, no
// EDNS — the smallest packet a stub sends.
func AppendQuery(dst []byte, id uint16, name string) []byte {
	dst = AppendName(appendHeader(dst, id), name)
	return append(dst, 0, TypeA, 0, ClassIN)
}

// Expectation is what a correct response to one query looks like.
type Expectation struct {
	ID       uint16
	Question []byte // wire form of the question section as sent
	RCode    byte
	Answers  [][4]byte // expected A rdata set; nil means ANCOUNT must be 0
	qbuf     []byte    // backing store for Question on the miss stream
}

var errShort = errors.New("response truncated")

// Validate checks a response against exp: ID echo, QR set, TC clear,
// RCODE, the question echoed byte for byte, and the answer section
// holding exactly the expected A records (any order).
func Validate(resp []byte, exp *Expectation) error {
	if len(resp) < 12 {
		return errShort
	}
	if id := binary.BigEndian.Uint16(resp); id != exp.ID {
		return fmt.Errorf("id %d, want %d", id, exp.ID)
	}
	if resp[2]&0x80 == 0 {
		return errors.New("QR clear")
	}
	if resp[2]&0x02 != 0 {
		return errors.New("TC set")
	}
	if rc := resp[3] & 0x0f; rc != exp.RCode {
		return fmt.Errorf("rcode %d, want %d", rc, exp.RCode)
	}
	if qd := binary.BigEndian.Uint16(resp[4:]); qd != 1 {
		return fmt.Errorf("qdcount %d", qd)
	}
	an := int(binary.BigEndian.Uint16(resp[6:]))
	if an != len(exp.Answers) {
		return fmt.Errorf("ancount %d, want %d", an, len(exp.Answers))
	}
	off := 12
	if len(resp) < off+len(exp.Question) || !bytes.EqualFold(resp[off:off+len(exp.Question)], exp.Question) {
		return errors.New("question not echoed")
	}
	off += len(exp.Question)
	var seen uint32
	for i := 0; i < an; i++ {
		var err error
		if off, err = skipName(resp, off); err != nil {
			return err
		}
		if len(resp) < off+10 {
			return errShort
		}
		typ := binary.BigEndian.Uint16(resp[off:])
		class := binary.BigEndian.Uint16(resp[off+2:])
		rdlen := int(binary.BigEndian.Uint16(resp[off+8:]))
		off += 10
		if typ != TypeA || class != ClassIN || rdlen != 4 {
			return fmt.Errorf("answer %d: type %d class %d rdlen %d", i, typ, class, rdlen)
		}
		if len(resp) < off+4 {
			return errShort
		}
		var rd [4]byte
		copy(rd[:], resp[off:])
		off += 4
		found := false
		for j, want := range exp.Answers {
			if rd == want && seen&(1<<j) == 0 {
				seen |= 1 << j
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("answer %d: unexpected rdata %v", i, rd)
		}
	}
	return nil
}

// skipName steps over a possibly compressed name.
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, errShort
		}
		c := int(msg[off])
		switch {
		case c == 0:
			return off + 1, nil
		case c&0xc0 == 0xc0:
			if off+2 > len(msg) {
				return 0, errShort
			}
			return off + 2, nil
		case c&0xc0 != 0:
			return 0, errors.New("bad label")
		}
		off += 1 + c
	}
}

// QuerySource yields the seeded query stream of one workload. On hit
// workloads it cycles a seeded order of the three Domains; on the miss
// workload every name is <16 hex>.<domain> with the hex drawn from a
// bijection of a counter, so no name repeats within a run.
type QuerySource struct {
	miss  bool
	order []uint8
	pos   int
	state uint64
	hitQ  [][]byte // per-domain question section, hit workloads
}

func NewQuerySource(seed uint64, miss bool) *QuerySource {
	s := &QuerySource{miss: miss, state: seed*0x9e3779b97f4a7c15 + 1}
	s.order = make([]uint8, 4096)
	x := seed ^ 0x5851f42d4c957f2d
	for i := range s.order {
		s.order[i] = uint8(splitmix(&x) % uint64(len(Domains)))
	}
	for _, d := range Domains {
		s.hitQ = append(s.hitQ, append(AppendName(nil, d), 0, TypeA, 0, ClassIN))
	}
	return s
}

// splitmix advances *s and returns a mixed 64-bit value; the mix is a
// bijection, so distinct counters give distinct outputs.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const hexDigits = "0123456789abcdef"

// Next appends the next query (with the given ID) to dst and fills exp.
func (s *QuerySource) Next(dst []byte, id uint16, exp *Expectation) []byte {
	dom := int(s.order[s.pos])
	s.pos = (s.pos + 1) % len(s.order)
	exp.ID = id
	dst = appendHeader(dst, id)
	if !s.miss {
		exp.RCode, exp.Answers, exp.Question = RCodeNoError, KnownA[dom], s.hitQ[dom]
		return append(dst, s.hitQ[dom]...)
	}
	h := splitmix(&s.state)
	q := append(exp.qbuf[:0], 16)
	for shift := 60; shift >= 0; shift -= 4 {
		q = append(q, hexDigits[(h>>uint(shift))&0xf])
	}
	q = append(q, s.hitQ[dom]...)
	exp.RCode, exp.Answers, exp.Question, exp.qbuf = RCodeNXDomain, nil, q, q
	return append(dst, q...)
}

const DoHContentType = "application/dns-message"

// PostDoH sends one RFC 8484 POST and returns the response body, after
// checking for HTTP 200 and the DNS media type. scratch, when non-nil,
// is reused for the body. It takes the transport, not an http.Client:
// the client's per-request timer and redirect handling cost the
// generator CPU it needs to keep the server busy.
func PostDoH(rt http.RoundTripper, url string, query, scratch []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(query))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", DoHContentType)
	req.Header.Set("Accept", DoHContentType)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("doh: HTTP %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != DoHContentType {
		return nil, fmt.Errorf("doh: content type %q", ct)
	}
	if resp.ProtoMajor != 2 {
		return nil, fmt.Errorf("doh: %s, want HTTP/2", resp.Proto)
	}
	buf := bytes.NewBuffer(scratch[:0])
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 64*1024)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
