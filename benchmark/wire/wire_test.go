package wire

import (
	"bytes"
	"strings"
	"testing"
)

func TestAppendQueryGolden(t *testing.T) {
	got := AppendQuery(nil, 0xbeef, "google.com")
	want := []byte{
		0xbe, 0xef, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0, // header: RD, one question
		6, 'g', 'o', 'o', 'g', 'l', 'e', 3, 'c', 'o', 'm', 0, // qname
		0, 1, 0, 1, // A IN
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("query bytes\n got %x\nwant %x", got, want)
	}
}

// response builds an answer to query with the given flags byte pair and
// A records, owner names compressed to the question.
func response(query []byte, flags [2]byte, rdata ...[4]byte) []byte {
	r := append([]byte(nil), query...)
	r[2], r[3] = flags[0], flags[1]
	r[7] = byte(len(rdata))
	for _, rd := range rdata {
		r = append(r, 0xc0, 12, 0, 1, 0, 1, 0, 0, 1, 44, 0, 4)
		r = append(r, rd[:]...)
	}
	return r
}

func TestValidate(t *testing.T) {
	query := AppendQuery(nil, 7, "amazon.com")
	exp := &Expectation{ID: 7, Question: query[12:], RCode: RCodeNoError, Answers: KnownA[1]}
	a := KnownA[1]
	ok := [2]byte{0x81, 0x80}
	cases := []struct {
		name string
		resp []byte
		want string // substring of the error; empty means valid
	}{
		{"valid", response(query, ok, a[0], a[1], a[2]), ""},
		{"any order", response(query, ok, a[2], a[0], a[1]), ""},
		{"mixed-case echo", bytes.Replace(response(query, ok, a[0], a[1], a[2]), []byte("amazon"), []byte("aMaZoN"), 1), ""},
		{"wrong id", response(AppendQuery(nil, 8, "amazon.com"), ok, a[0], a[1], a[2]), "id 8"},
		{"not a response", response(query, [2]byte{0x01, 0x80}, a[0], a[1], a[2]), "QR"},
		{"truncated flag", response(query, [2]byte{0x83, 0x80}, a[0], a[1], a[2]), "TC"},
		{"servfail", response(query, [2]byte{0x81, 0x82}), "rcode 2"},
		{"missing record", response(query, ok, a[0], a[1]), "ancount 2"},
		{"repeated record", response(query, ok, a[0], a[0], a[1]), "unexpected rdata"},
		{"foreign rdata", response(query, ok, a[0], a[1], [4]byte{10, 0, 0, 1}), "unexpected rdata"},
		{"other question", response(AppendQuery(nil, 7, "amazon.org"), ok, a[0], a[1], a[2]), "question"},
		{"cut short", response(query, ok, a[0], a[1], a[2])[:40], "truncated"},
	}
	for _, c := range cases {
		err := Validate(c.resp, exp)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error about %q", c.name, err, c.want)
		}
	}
	nx := &Expectation{ID: 7, Question: query[12:], RCode: RCodeNXDomain}
	if err := Validate(response(query, [2]byte{0x81, 0x83}), nx); err != nil {
		t.Errorf("NXDOMAIN: %v", err)
	}
	if err := Validate(response(query, ok, a[0]), nx); err == nil {
		t.Error("NOERROR with an answer passed as NXDOMAIN")
	}
}

func TestQuerySource(t *testing.T) {
	var exp Expectation
	hit := NewQuerySource(42, false)
	q := hit.Next(nil, 9, &exp)
	if err := Validate(response(q, [2]byte{0x81, 0x80}, exp.Answers...), &exp); err != nil {
		t.Fatalf("hit stream does not validate against its own expectation: %v", err)
	}

	// Same seed, same stream; no name twice on the miss stream.
	a, b := NewQuerySource(42, true), NewQuerySource(42, true)
	other := NewQuerySource(43, true)
	seen := make(map[string]bool)
	same := true
	for i := 0; i < 5000; i++ {
		qa := a.Next(nil, uint16(i), &exp)
		if !bytes.Equal(qa, b.Next(nil, uint16(i), &Expectation{})) {
			t.Fatal("one seed gave two streams")
		}
		same = same && bytes.Equal(qa, other.Next(nil, uint16(i), &Expectation{}))
		name := string(exp.Question)
		if seen[name] {
			t.Fatalf("miss stream repeated %q", name)
		}
		seen[name] = true
		if exp.RCode != RCodeNXDomain || exp.Answers != nil || qa[12] != 16 {
			t.Fatalf("miss query %d: %+v", i, exp)
		}
	}
	if same {
		t.Error("two seeds gave one stream")
	}
}
