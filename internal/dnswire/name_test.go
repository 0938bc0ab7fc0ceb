package dnswire

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// readName is readNameDec without a decoder: a fresh string per name.
func readName(msg []byte, off int) (string, int, error) {
	return readNameDec(msg, off, nil)
}

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", "."},
		{".", "."},
		{"example.com", "example.com."},
		{"Example.COM.", "example.com."},
		{"WWW.Example.Com", "www.example.com."},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCanonicalNameIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := CanonicalName(s)
		return CanonicalName(once) == once
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitLabels(t *testing.T) {
	if got := SplitLabels("."); got != nil {
		t.Errorf("SplitLabels(.) = %v", got)
	}
	got := SplitLabels("www.example.com.")
	want := []string{"www", "example", "com"}
	if len(got) != len(want) {
		t.Fatalf("labels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v", got)
		}
	}
}

func TestParentName(t *testing.T) {
	cases := []struct{ in, want string }{
		{".", "."},
		{"com.", "."},
		{"example.com.", "com."},
		{"www.example.com", "example.com."},
	}
	for _, c := range cases {
		if got := ParentName(c.in); got != c.want {
			t.Errorf("ParentName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"www.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", "com", true},
		{"anything.", ".", true},
		{"badexample.com", "example.com", false},
		{"com", "example.com", false},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []string{
		".", "com", "example.com", "www.example.com",
		"a.b.c.d.e.f.g.h", "xn--nxasmq6b.example",
		strings.Repeat("a", 63) + ".example.com",
	}
	for _, name := range names {
		buf, err := appendName(nil, name, nil)
		if err != nil {
			t.Fatalf("encode %q: %v", name, err)
		}
		got, end, err := readName(buf, 0)
		if err != nil {
			t.Fatalf("decode %q: %v", name, err)
		}
		if got != CanonicalName(name) {
			t.Errorf("round trip %q = %q", name, got)
		}
		if end != len(buf) {
			t.Errorf("end = %d, want %d", end, len(buf))
		}
	}
}

func TestNameEncodeErrors(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{strings.Repeat("a", 64) + ".com", ErrLabelTooLong},
		{"a..com", ErrEmptyLabel},
		{strings.Repeat("abcdefgh.", 32) + "com", ErrNameTooLong},
	}
	for _, c := range cases {
		if _, err := appendName(nil, c.name, nil); !errors.Is(err, c.err) {
			t.Errorf("encode %q: err = %v, want %v", c.name, err, c.err)
		}
		if err := ValidateName(c.name); !errors.Is(err, c.err) {
			t.Errorf("validate %q: err = %v, want %v", c.name, err, c.err)
		}
	}
	if err := ValidateName("ok.example.com"); err != nil {
		t.Errorf("validate good name: %v", err)
	}
}

func TestNameCompression(t *testing.T) {
	comp := new(compressor)
	comp.reset(0)
	buf, err := appendName(nil, "www.example.com", comp)
	if err != nil {
		t.Fatal(err)
	}
	full := len(buf)
	// Encoding a sibling should reuse the "example.com." suffix.
	buf, err = appendName(buf, "mail.example.com", comp)
	if err != nil {
		t.Fatal(err)
	}
	second := len(buf) - full
	if wantMax := 1 + 4 + 2; second > wantMax { // "mail" label + pointer
		t.Errorf("compressed sibling took %d bytes, want <= %d", second, wantMax)
	}
	// Both names must decode correctly.
	n1, end1, err := readName(buf, 0)
	if err != nil || n1 != "www.example.com." {
		t.Fatalf("first = %q, %v", n1, err)
	}
	n2, _, err := readName(buf, end1)
	if err != nil || n2 != "mail.example.com." {
		t.Fatalf("second = %q, %v", n2, err)
	}
	// Encoding the exact same name again should be a bare pointer.
	before := len(buf)
	buf, err = appendName(buf, "www.example.com", comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf)-before != 2 {
		t.Errorf("exact repeat took %d bytes, want 2", len(buf)-before)
	}
}

func TestReadNameRejectsLoops(t *testing.T) {
	// A pointer that points at itself.
	self := []byte{0xC0, 0x00}
	if _, _, err := readName(self, 0); err == nil {
		t.Error("self pointer accepted")
	}
	// Two pointers pointing at each other.
	pair := []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := readName(pair, 2); err == nil {
		t.Error("pointer pair accepted")
	}
	// Forward pointer.
	fwd := []byte{0xC0, 0x02, 0x00}
	if _, _, err := readName(fwd, 0); !errors.Is(err, ErrBadPointer) {
		t.Errorf("forward pointer: err = %v", err)
	}
}

func TestReadNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},       // empty
		{3, 'a'}, // label overruns
		{0xC0},   // pointer missing low byte
		{1, 'a'}, // missing terminator
		{63},     // length byte only
	}
	for i, c := range cases {
		if _, _, err := readName(c, 0); err == nil {
			t.Errorf("case %d: truncated name accepted", i)
		}
	}
}

func TestReadNameReservedLabelType(t *testing.T) {
	if _, _, err := readName([]byte{0x80, 0x01}, 0); err == nil {
		t.Error("reserved label type 0x80 accepted")
	}
	if _, _, err := readName([]byte{0x40, 0x01}, 0); err == nil {
		t.Error("reserved label type 0x40 accepted")
	}
}

func TestReadNameTooLongViaPointers(t *testing.T) {
	// Build a message where pointer chains stitch labels into a name
	// longer than 255 octets; decoding must fail rather than allocate.
	var buf []byte
	// 10 segments of a 40-byte label each, each ending with a pointer to
	// the previous segment; the first ends with root.
	var prevOff int
	label := strings.Repeat("x", 40)
	for i := 0; i < 10; i++ {
		off := len(buf)
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		if i == 0 {
			buf = append(buf, 0)
		} else {
			buf = append(buf, 0xC0|byte(prevOff>>8), byte(prevOff))
		}
		prevOff = off
	}
	_, _, err := readName(buf, prevOff)
	if !errors.Is(err, ErrNameTooLong) {
		t.Errorf("err = %v, want ErrNameTooLong", err)
	}
}

func TestAppendNameRootOnly(t *testing.T) {
	buf, err := appendName(nil, ".", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 1 || buf[0] != 0 {
		t.Errorf("root encoding = %v", buf)
	}
}
