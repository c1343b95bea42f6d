package value

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestBinaryLayout pins the encoding byte for byte: snapshot files and raft
// journals hold it, so a change here is a format change.
func TestBinaryLayout(t *testing.T) {
	cases := []struct {
		v    Value
		want string // hex
	}{
		{Value{}, "00"},
		{Int(0), "0100"},
		{Int(-1), "0101"},
		{Int(63), "017e"},
		{Int(-64), "017f"},
		{Int(64), "018001"},
		{Int(math.MinInt64), "01ffffffffffffffffff01"},
		{Str(""), "0200"},
		{Str("a/b"), "0203612f62"},
		{Bool(false), "0300"},
		{Bool(true), "0301"},
		{List(), "0400"},
		{List(Int(1), Str("x")), "040201020201" + "78"},
		{Record(nil), "0500"},
		{Record(map[string]Value{"b": Bool(true), "a": List()}), "0502" + "0161" + "0400" + "0162" + "0301"},
	}
	for _, c := range cases {
		if got := c.v.AppendBinary(nil); hex.EncodeToString(got) != c.want {
			t.Errorf("%v encodes to %x, want %s", c.v, got, c.want)
		}
	}
}

// TestBinaryRoundTripPinned runs every value of the pinned table through the
// binary encoding: what comes back must be Equal, hash and render the same,
// and re-encode to the same bytes.
func TestBinaryRoundTripPinned(t *testing.T) {
	for _, c := range pinned {
		enc := c.v.AppendBinary([]byte("prefix"))
		r := NewReader(enc[len("prefix"):])
		back := r.Value(MaxDepth)
		if err := r.End(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !back.Equal(c.v) || back.Hash() != c.hash || back.String() != c.str {
			t.Errorf("%s: decodes to %v", c.name, back)
		}
		if again := back.AppendBinary([]byte("prefix")); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encodes to %x, was %x", c.name, again, enc)
		}
	}
}

// nested returns depth lists, one inside the other, around the int 0.
func nested(depth int) []byte {
	return append(bytes.Repeat([]byte{byte(KindList), 1}, depth), byte(KindInt), 0)
}

// hostileValues are inputs the Reader must refuse, one per rejection class.
// testdata/fuzz/FuzzValueRoundTrip holds a corpus entry for each.
var hostileValues = []struct {
	name string
	in   []byte
}{
	{"empty", nil},
	{"truncated record", []byte{5, 2, 1, 'a', 1, 0}},
	{"truncated varint", []byte{1, 0x80}},
	{"unknown tag", []byte{6}},
	{"unknown high tag", []byte{0xff, 0}},
	{"trailing bytes", []byte{1, 2, 0}},
	{"list count past end", []byte{4, 0x80, 0x80, 0x40, 0}},
	{"record count past end", []byte{5, 0x80, 0x80, 0x40, 1, 'a', 0}},
	{"string length past end", []byte{2, 0x80, 0x80, 0x40, 'a'}},
	{"count overflowing 64 bits", []byte{4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
	{"nested past the bound", nested(MaxDepth + 1)},
	{"varint not shortest", []byte{1, 0x80, 0x00}},
	{"bool byte 2", []byte{3, 2}},
	{"fields out of order", []byte{5, 2, 1, 'b', 0, 1, 'a', 0}},
	{"field named twice", []byte{5, 2, 1, 'a', 0, 1, 'a', 0}},
}

func TestBinaryRejectsHostileInput(t *testing.T) {
	for _, c := range hostileValues {
		r := NewReader(c.in)
		v := r.Value(MaxDepth)
		if err := r.End(); err == nil {
			t.Errorf("%s: %x decoded to %v", c.name, c.in, v)
		}
	}
	// The bound itself is allowed, and every proper prefix of a valid
	// encoding is truncated.
	r := NewReader(nested(MaxDepth))
	if r.Value(MaxDepth); r.End() != nil {
		t.Fatalf("%d nested lists: %v", MaxDepth, r.End())
	}
	var enc []byte
	for _, c := range pinned {
		if c.name == "record nested" {
			enc = c.v.AppendBinary(nil)
		}
	}
	for n := 0; n < len(enc); n++ {
		r := NewReader(enc[:n])
		if r.Value(MaxDepth); r.End() == nil {
			t.Fatalf("prefix %x of %x decoded", enc[:n], enc)
		}
	}
}

// TestBinaryCountCheckedBeforeAllocating: a count of a million elements in
// a five-byte input must be refused before a million-element slice exists.
func TestBinaryCountCheckedBeforeAllocating(t *testing.T) {
	for _, in := range [][]byte{
		{4, 0x80, 0x80, 0x40, 0}, // list of 1<<20
		{5, 0x80, 0x80, 0x40, 0}, // record of 1<<20
	} {
		var err error
		if got := allocatedBytes(func() {
			r := NewReader(in)
			r.Value(MaxDepth)
			err = r.End()
		}); err == nil || got > 4096 {
			t.Errorf("%x: err %v after allocating %d bytes", in, err, got)
		}
	}
}

// allocatedBytes reports how many bytes the heap handed out while f ran.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBinaryAnyDepth: a row may nest far deeper than an input; it encodes,
// and reads back under a bound of half its length, but not under MaxDepth.
func TestBinaryAnyDepth(t *testing.T) {
	v := Int(0)
	for i := 0; i < 10*MaxDepth; i++ {
		v = List(v)
		if i%2 == 0 {
			v = Record(map[string]Value{"f": v})
		}
	}
	if got, want := v.Depth(), 10*MaxDepth+5*MaxDepth; got != want {
		t.Fatalf("Depth = %d, want %d", got, want)
	}
	enc := v.AppendBinary(nil)
	r := NewReader(enc)
	back := r.Value(len(enc) / 2)
	if err := r.End(); err != nil || !back.Equal(v) || back.Hash() != v.Hash() {
		t.Fatalf("%d deep: %v", v.Depth(), err)
	}
	r = NewReader(enc)
	if r.Value(MaxDepth); r.End() == nil {
		t.Fatalf("%d deep read under MaxDepth", v.Depth())
	}
}

func TestDepth(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want int
	}{
		{Value{}, 0},
		{Int(1), 0},
		{Str("s"), 0},
		{List(), 1},
		{Record(nil), 1},
		{List(Int(1), List(Bool(true)), Str("x")), 2},
		{Record(map[string]Value{"a": Int(1), "b": List(List())}), 3},
	} {
		if got := c.v.Depth(); got != c.want {
			t.Errorf("%v: Depth = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestReaderPrimitives(t *testing.T) {
	b := AppendBytes(nil, "name")
	b = AppendBytes(b, []byte{})
	b = AppendBytes(b, Encoded(strings.Repeat("k", 200)))
	r := NewReader(b)
	if s := r.Str(); s != "name" {
		t.Fatalf("Str = %q", s)
	}
	if e := r.Bytes(); e != nil {
		t.Fatalf("empty Bytes = %#v, want nil", e)
	}
	long := r.Bytes()
	if len(long) != 200 || cap(long) != 200 {
		t.Fatalf("Bytes: len %d cap %d", len(long), cap(long))
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	// After the first error every read is zero and the error stays.
	r = NewReader([]byte{0x80})
	if r.Uvarint() != 0 || r.Byte() != 0 || r.Str() != "" {
		t.Fatal("reads after an error")
	}
	first := r.End()
	r.Fail("later")
	if r.End() != first {
		t.Fatalf("error replaced: %v", r.End())
	}
}
