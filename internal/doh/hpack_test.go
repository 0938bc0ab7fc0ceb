package doh

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// huffmanEncode is the test-side inverse of appendHuffman: the codes of
// RFC 7541 Appendix B packed from the high bit, padded with ones.
func huffmanEncode(s string) []byte {
	var out []byte
	var acc uint64
	var n uint
	for i := 0; i < len(s); i++ {
		acc = acc<<huffLens[s[i]] | uint64(huffCodes[s[i]])
		for n += uint(huffLens[s[i]]); n >= 8; n -= 8 {
			out = append(out, byte(acc>>(n-8)))
		}
	}
	if n > 0 {
		out = append(out, byte(acc<<(8-n))|byte(1<<(8-n)-1))
	}
	return out
}

// encodeFields is a minimal HPACK encoder: every field a literal without
// indexing under a new name, strings Huffman-coded or not.
func encodeFields(huffman bool, kv ...string) []byte {
	var block []byte
	str := func(s string) {
		if !huffman {
			block = append(appendHpackInt(block, len(s)), s...)
			return
		}
		coded := huffmanEncode(s)
		at := len(block)
		block = append(appendHpackInt(block, len(coded)), coded...)
		block[at] |= 0x80
	}
	for i := 0; i < len(kv); i += 2 {
		block = append(block, 0)
		str(kv[i])
		str(kv[i+1])
	}
	return block
}

// fieldsOf renders a flat header list as "name: value" lines.
func fieldsOf(list []byte) string {
	var b strings.Builder
	for len(list) > 0 {
		var name, value []byte
		name, value, list = nextField(list)
		b.WriteString(string(name) + ": " + string(value) + "\n")
	}
	return b.String()
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHuffmanRFCExamples(t *testing.T) {
	for plain, coded := range map[string]string{
		"www.example.com":               "f1e3 c2e5 f23a 6ba0 ab90 f4ff",
		"no-cache":                      "a8eb 1064 9cbf",
		"custom-key":                    "25a8 49e9 5ba9 7d7f",
		"custom-value":                  "25a8 49e9 5bb8 e8b4 bf",
		"302":                           "6402",
		"private":                       "aec3 771a 4b",
		"Mon, 21 Oct 2013 20:13:21 GMT": "d07a be94 1054 d444 a820 0595 040b 8166 e082 a62d 1bff",
		"https://www.example.com":       "9d29 ad17 1863 c78f 0b97 c8e9 ae82 ae43 d3",
		"":                              "",
	} {
		want := unhex(t, coded)
		if got := huffmanEncode(plain); !bytes.Equal(got, want) {
			t.Errorf("encode %q = %x, want %x", plain, got, want)
		}
		got, ok := appendHuffman([]byte("x"), want)
		if !ok || string(got) != "x"+plain {
			t.Errorf("decode %x = %q, %v; want %q", want, got, ok, plain)
		}
	}
	// Every octet survives a round trip, in one string and alone.
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
		if got, ok := appendHuffman(nil, huffmanEncode(string(all[i:i+1]))); !ok || !bytes.Equal(got, all[i:i+1]) {
			t.Errorf("octet %#x decodes to %x, %v", i, got, ok)
		}
	}
	if got, ok := appendHuffman(nil, huffmanEncode(string(all))); !ok || !bytes.Equal(got, all) {
		t.Errorf("all octets: %v, %x", ok, got)
	}
}

func TestHuffmanRejects(t *testing.T) {
	for name, coded := range map[string]string{
		"EOS in the string":         "ffff ffff",
		"padding of a whole octet":  "a8eb 1064 9cbf ff",
		"padding that is not ones":  "a8eb 1064 9cbe", // no-cache with its last pad bit cleared
		"code cut off after 8 bits": "ff",             // only codes of 10 bits and more start with eight ones
		"zero padding":              "00",             // '0' (00000) and three zero bits
	} {
		if got, ok := appendHuffman(nil, unhex(t, coded)); ok {
			t.Errorf("%s: %s decoded to %q", name, coded, got)
		}
	}
}

// TestHPACKRFCRequests decodes the request sequences of RFC 7541 C.3 and
// C.4 (the same fields, plain and Huffman-coded), which exercise indexed
// fields, insertion and lookup of dynamic entries across blocks.
func TestHPACKRFCRequests(t *testing.T) {
	for name, blocks := range map[string][3]string{
		"C.3 plain": {
			"8286 8441 0f77 7777 2e65 7861 6d70 6c65 2e63 6f6d",
			"8286 84be 5808 6e6f 2d63 6163 6865",
			"8287 85bf 400a 6375 7374 6f6d 2d6b 6579 0c63 7573 746f 6d2d 7661 6c75 65",
		},
		"C.4 Huffman": {
			"8286 8441 8cf1 e3c2 e5f2 3a6b a0ab 90f4 ff",
			"8286 84be 5886 a8eb 1064 9cbf",
			"8287 85bf 4088 25a8 49e9 5ba9 7d7f 8925 a849 e95b b8e8 b4bf",
		},
	} {
		d := hpackDecoder{maxSize: hpackTableSize}
		want := []struct {
			fields string
			size   int
		}{
			{":method: GET\n:scheme: http\n:path: /\n:authority: www.example.com\n", 57},
			{":method: GET\n:scheme: http\n:path: /\n:authority: www.example.com\ncache-control: no-cache\n", 110},
			{":method: GET\n:scheme: https\n:path: /index.html\n:authority: www.example.com\ncustom-key: custom-value\n", 164},
		}
		for i, block := range blocks {
			list, tooLarge, err := d.decode(nil, unhex(t, block), h2MaxHeaderList)
			if err != nil || tooLarge {
				t.Fatalf("%s block %d: %v, too large %v", name, i+1, err, tooLarge)
			}
			if got := fieldsOf(list); got != want[i].fields || d.size != want[i].size {
				t.Errorf("%s block %d: table size %d (want %d), fields\n%s", name, i+1, d.size, want[i].size, got)
			}
		}
	}
}

// TestHPACKRFCEviction decodes the response sequence of RFC 7541 C.6 under
// its 256-octet table, where the second and third blocks evict.
func TestHPACKRFCEviction(t *testing.T) {
	d := hpackDecoder{maxSize: 256}
	for i, tc := range []struct{ block, last string }{
		{"4882 6402 5885 aec3 771a 4b61 96d0 7abe 9410 54d4 44a8 2005 9504 0b81 66e0 82a6 2d1b ff6e 919d 29ad 1718 63c7 8f0b 97c8 e9ae 82ae 43d3",
			"location: https://www.example.com\n"},
		{"4883 640e ffc1 c0bf", "location: https://www.example.com\n"},
		{"88c1 6196 d07a be94 1054 d444 a820 0595 040b 8166 e084 a62d 1bff c05a 839b d9ab 77ad 94e7 821d d7f2 e6c7 b335 dfdf cd5b 3960 d5af 2708 7f36 72c1 ab27 0fb5 291f 9587 3160 65c0 03ed 4ee5 b106 3d50 07",
			"set-cookie: foo=ASDJKHQKBZXOQWEOPIUAXQWEOIU; max-age=3600; version=1\n"},
	} {
		list, _, err := d.decode(nil, unhex(t, tc.block), h2MaxHeaderList)
		if err != nil {
			t.Fatalf("block %d: %v", i+1, err)
		}
		if got := fieldsOf(list); !strings.HasSuffix(got, tc.last) {
			t.Errorf("block %d:\n%s", i+1, got)
		}
		if d.size > 256 {
			t.Errorf("block %d: table holds %d octets of 256", i+1, d.size)
		}
	}
	if d.n != 3 || d.size != 215 {
		t.Errorf("table ends with %d entries, %d octets; RFC 7541 C.6.3 has 3 and 215", d.n, d.size)
	}
}

func TestHPACKRejects(t *testing.T) {
	for name, block := range map[string]string{
		"index 0":                        "80",
		"index past the static table":    "be",
		"literal under an unknown index": "7f 30 00", // name index 62+... with an empty table
		"size update after a field":      "82 20",
		"size update over the setting":   "3f e2 1f", // 4097
		"string longer than the block":   "00 05 6162",
		"integer without end":            "7f ff ff ff ff ff 00",
		"truncated integer":              "7f ff",
		"bad Huffman in a value":         "00 01 61 84 ffff ffff",
		"literal with nothing after":     "00",
	} {
		d := hpackDecoder{maxSize: hpackTableSize}
		if list, _, err := d.decode(nil, unhex(t, block), h2MaxHeaderList); err == nil {
			t.Errorf("%s: decoded to\n%s", name, fieldsOf(list))
		}
	}
}

// TestHPACKHeaderListLimit: past the limit fields are dropped but still
// reach the table, so the next block decodes against the right state.
func TestHPACKHeaderListLimit(t *testing.T) {
	d := hpackDecoder{maxSize: hpackTableSize}
	// Three literals, the last one inserted; each 1+1+32 octets by §4.1.
	list, tooLarge, err := d.decode(nil, unhex(t, "00 0161 0162  00 0163 0164  40 0165 0166"), 2*34)
	if err != nil || !tooLarge || fieldsOf(list) != "a: b\nc: d\n" {
		t.Fatalf("got %v, too large %v:\n%s", err, tooLarge, fieldsOf(list))
	}
	list, tooLarge, err = d.decode(nil, []byte{0xbe}, 2*34)
	if err != nil || tooLarge || fieldsOf(list) != "e: f\n" {
		t.Fatalf("the dropped field did not enter the table: %v, %v\n%s", err, tooLarge, fieldsOf(list))
	}
	// A size update to zero empties the table; one back up allows entries again.
	if _, _, err = d.decode(nil, []byte{0x20, 0x3f, 0xe1, 0x1f}, 100); err != nil || d.n != 0 || d.maxSize != 4096 {
		t.Fatalf("size updates: %v, %d entries, max %d", err, d.n, d.maxSize)
	}
	// An entry larger than the table empties it and is not kept (§4.4).
	d.maxSize = 64
	big := append([]byte{0x40, 0x01, 'x', 0x40}, bytes.Repeat([]byte{'y'}, 64)...)
	if _, _, err = d.decode(nil, append(unhex(t, "40 0161 0162"), big...), 1000); err != nil || d.n != 0 || d.size != 0 {
		t.Fatalf("oversized entry: %v, %d entries, %d octets", err, d.n, d.size)
	}
}

// TestHPACKSteadyStateAllocs: once the table has turned over, decoding —
// indexed fields, literals, Huffman, insertions with eviction — allocates
// nothing.
func TestHPACKSteadyStateAllocs(t *testing.T) {
	d := hpackDecoder{maxSize: hpackTableSize}
	block := append([]byte{0x82, 0x87}, 0x40) // two indexed fields, then an inserted literal
	block = append(block, encodeFields(true, "x-request-id", strings.Repeat("0123456789", 40))[1:]...)
	list := make([]byte, 0, 1024)
	decode := func() {
		var err error
		if list, _, err = d.decode(list[:0], block, h2MaxHeaderList); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // 4096 / (12+400+32) entries fit: the table wraps several times
		decode()
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("%v allocations per header block in steady state", allocs)
	}
}

// FuzzHPACKDecode: arbitrary blocks never panic the decoder and never grow
// its table past the advertised size; what decodes, re-encoded as plain
// and as Huffman literals, decodes to the same list.
func FuzzHPACKDecode(f *testing.F) {
	for _, s := range []string{
		"8286 8441 8cf1 e3c2 e5f2 3a6b a0ab 90f4 ff",
		"8286 84be 5886 a8eb 1064 9cbf",
		"8287 85bf 4088 25a8 49e9 5ba9 7d7f 8925 a849 e95b b8e8 b4bf",
		"3f e1 1f 82",
		"20 40 0161 0162 be",
	} {
		f.Add(unhex(f, s))
	}
	for _, block := range goClientHeaderBlocks(f) {
		f.Add(block)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := hpackDecoder{maxSize: hpackTableSize}
		// The input is a sequence of blocks on one connection, split at 0xff 0x00.
		for _, block := range bytes.Split(data, []byte{0xff, 0x00}) {
			list, tooLarge, err := d.decode(nil, block, h2MaxHeaderList)
			if d.size > hpackTableSize || d.size > d.maxSize || d.n > hpackTableSize/hpackEntryOverhead {
				t.Fatalf("table holds %d octets in %d entries under a limit of %d", d.size, d.n, d.maxSize)
			}
			if err != nil {
				return
			}
			if tooLarge {
				continue
			}
			var kv []string
			for rest := list; len(rest) > 0; {
				var name, value []byte
				name, value, rest = nextField(rest)
				kv = append(kv, string(name), string(value))
			}
			for _, huffman := range []bool{false, true} {
				fresh := hpackDecoder{maxSize: hpackTableSize}
				again, _, err := fresh.decode(nil, encodeFields(huffman, kv...), h2MaxHeaderList)
				if err != nil || !bytes.Equal(again, list) {
					t.Fatalf("re-encoded (Huffman %v) list decodes to %v\n%s\nwant\n%s", huffman, err, fieldsOf(again), fieldsOf(list))
				}
			}
		}
	})
}
