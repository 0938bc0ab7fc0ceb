package dnswire

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// The escaping cases run through the codec's own paths: decode through
// Unpack (appendPresentationLabel), encode through Pack and ValidateName
// (appendName).

// questionWire is a one-question query whose name is the single label raw.
func questionWire(raw []byte) []byte {
	msg := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, byte(len(raw))}
	msg = append(msg, raw...)
	return append(msg, 0, 0, 1, 0, 1) // root, type A, class IN
}

// unpackLabel decodes raw as a one-label name through Unpack.
func unpackLabel(t *testing.T, raw []byte) string {
	t.Helper()
	m, err := Unpack(questionWire(raw))
	if err != nil {
		t.Fatalf("Unpack of label %q: %v", raw, err)
	}
	return m.Questions[0].Name
}

// packLabel encodes the one-label name label+"." through Pack and returns
// the label's raw wire bytes.
func packLabel(label string) ([]byte, error) {
	wire, err := NewQuery(1, label+".", TypeA).Pack()
	if err != nil {
		return nil, err
	}
	name := wire[12 : len(wire)-4] // between the header and type/class
	if len(name) < 2 || int(name[0]) != len(name)-2 || name[len(name)-1] != 0 {
		return nil, fmt.Errorf("%q packed as %x, not one label", label, name)
	}
	return name[1 : len(name)-1], nil
}

func TestEscapeLabel(t *testing.T) {
	cases := []struct {
		raw  []byte
		want string
	}{
		{[]byte("www"), "www"},
		{[]byte("a.b"), `a\.b`},
		{[]byte(`a\b`), `a\\b`},
		{[]byte{0x00}, `\000`},
		{[]byte{0x20}, `\032`}, // space is non-printable in names
		{[]byte{0xFF}, `\255`},
		{[]byte("0a-Z"), "0a-z"}, // decoding lowers ASCII
	}
	for _, c := range cases {
		if got := unpackLabel(t, c.raw); got != c.want+"." {
			t.Errorf("label %q decodes to %q, want %q", c.raw, got, c.want+".")
		}
	}
}

func TestUnescapeLabel(t *testing.T) {
	cases := []struct {
		in   string
		want []byte
	}{
		{"www", []byte("www")},
		{`a\.b`, []byte("a.b")},
		{`a\\b`, []byte(`a\b`)},
		{`\000`, []byte{0}},
		{`\255`, []byte{255}},
		{`\.`, []byte(".")},
	}
	for _, c := range cases {
		got, err := packLabel(c.in)
		if err != nil {
			t.Errorf("pack %q: %v", c.in, err)
			continue
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("pack %q = label %q, want %q", c.in, got, c.want)
		}
	}
}

func TestUnescapeLabelErrors(t *testing.T) {
	for _, in := range []string{`a\`, `\2`, `\25`, `\999`, `\25x`} {
		if err := ValidateName(in); err == nil {
			t.Errorf("ValidateName(%q) accepted", in)
		}
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 || len(raw) > 63 {
			return true
		}
		name := unpackLabel(t, raw)
		got, err := packLabel(name[:len(name)-1])
		want := bytes.Clone(raw)
		for i, b := range want { // decoding lowers ASCII only
			if 'A' <= b && b <= 'Z' {
				want[i] = b + 'a' - 'A'
			}
		}
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotInsideWireLabel(t *testing.T) {
	// A wire label containing a dot byte must decode to an escaped
	// presentation form that re-encodes to the identical wire bytes —
	// the ambiguity the fuzzer originally caught.
	wire := []byte{4, 'a', '.', '0', '0', 3, 'c', 'o', 'm', 0}
	name, end, err := readName(wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != len(wire) {
		t.Fatalf("end = %d", end)
	}
	if name != `a\.00.com.` {
		t.Fatalf("name = %q, want escaped dot", name)
	}
	// One label "a.00" plus "com", not three labels.
	labels := SplitLabels(name)
	if len(labels) != 2 || labels[0] != `a\.00` {
		t.Fatalf("labels = %q", labels)
	}
	re, err := appendName(nil, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, wire) {
		t.Fatalf("re-encode = %x, want %x", re, wire)
	}
}

func TestNonPrintableWireLabel(t *testing.T) {
	wire := []byte{2, 0x00, 0xFF, 0}
	name, _, err := readName(wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name != `\000\255.` {
		t.Fatalf("name = %q", name)
	}
	re, err := appendName(nil, name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, wire) {
		t.Fatalf("re-encode = %x, want %x", re, wire)
	}
}

func TestParentNameSkipsEscapedDots(t *testing.T) {
	if got := ParentName(`a\.b.example.com.`); got != "example.com." {
		t.Errorf("parent = %q", got)
	}
	if got := ParentName(`a\.b.`); got != "." {
		t.Errorf("parent of single escaped label = %q", got)
	}
}

func TestWireNameFullRoundTripProperty(t *testing.T) {
	// Arbitrary raw labels survive wire → string → wire.
	f := func(l1, l2 []byte) bool {
		if len(l1) == 0 || len(l1) > 63 || len(l2) == 0 || len(l2) > 63 {
			return true
		}
		var wire []byte
		wire = append(wire, byte(len(l1)))
		wire = append(wire, l1...)
		wire = append(wire, byte(len(l2)))
		wire = append(wire, l2...)
		wire = append(wire, 0)
		name, _, err := readName(wire, 0)
		if err != nil {
			return true // e.g. name-length limits
		}
		re, err := appendName(nil, name, nil)
		if err != nil {
			return false
		}
		// Case folding: readName lowercases, so compare case-insensitively
		// by decoding again.
		name2, _, err := readName(re, 0)
		return err == nil && name2 == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
