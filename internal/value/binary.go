package value

import (
	"encoding/binary"
	"fmt"
)

// The binary encoding is the one format in which values, and the records
// built around them, go onto the wire and to disk: the sequencer batch, the
// raft journal record and the replica snapshot are all written with
// AppendBinary, AppendBytes and binary.AppendUvarint, and read back through a
// Reader. It is canonical — equal values encode to the same bytes — and the
// Reader accepts nothing else: a decoded input re-encodes to the bytes it was
// read from.

// MaxDepth bounds how deeply lists and records nest in a batch input, the
// value a client hands in: the sequencer refuses to encode a deeper input and
// reads inputs with Reader.Value(MaxDepth), so a hostile batch cannot drive a
// decoder a million frames deep. Stored rows are not held to it. A
// transaction may put an input inside a row, and transactions may nest a row
// deeper each time they rewrite it, so AppendBinary writes any depth and a
// snapshot reads its rows with no bound but their length.
const MaxDepth = 100

// Depth returns how many lists and records v nests at its deepest: 0 for a
// scalar, 1 for a list or record of scalars.
func (v Value) Depth() int {
	if v.kind < KindList {
		return 0
	}
	d := 0
	for _, e := range v.elems() {
		d = max(d, e.Depth())
	}
	return d + 1
}

// AppendBinary appends the binary encoding of v to b: one tag byte, the
// value's Kind, then for an int its zigzag varint, for a string its length
// as a uvarint and its bytes, for a bool one byte 0 or 1, for a list its
// element count and elements, for a record its field count and then each
// field's name (as a string) and value in ascending name order. Unlike
// encoding.BinaryAppender it cannot fail: every value, however deep, has an
// encoding.
func (v Value) AppendBinary(b []byte) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindInt:
		b = binary.AppendVarint(b, v.i)
	case KindString:
		b = AppendBytes(b, v.str())
	case KindBool:
		b = append(b, byte(v.i))
	case KindList, KindRecord:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		names := v.names()
		for i, e := range v.elems() {
			if v.kind == KindRecord {
				b = AppendBytes(b, names[i])
			}
			b = e.AppendBinary(b)
		}
	}
	return b
}

// AppendBytes appends s with its length in front as a uvarint: how every
// string and byte string in the binary encoding is written.
func AppendBytes[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes the binary encoding from a byte slice. The first error
// sticks: every later read returns a zero value and consumes nothing, so a
// decoder reads a whole structure and asks End once. A Reader checks every
// length and count against the bytes that remain before anything is
// allocated for it, and refuses what the encoders would never write: a
// varint with redundant bytes, a bool byte other than 0 or 1, an unknown
// tag, record fields out of order, nesting deeper than the caller allows.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b. Bytes and what is decoded from b may
// share its memory; b must not change while they are in use.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Fail records a decode error, unless one is already recorded, and stops the
// Reader. Decoders built on a Reader report their own violations through it.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("value: decode: "+format, args...)
	}
	r.buf = nil
}

// End returns the first decode error or, if there was none, an error when
// bytes remain unread: a complete input is consumed exactly.
func (r *Reader) End() error {
	if r.err == nil && len(r.buf) > 0 {
		r.Fail("%d trailing bytes", len(r.buf))
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.buf) == 0 {
		r.Fail("truncated input")
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// Uvarint reads an unsigned varint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.Fail("truncated varint")
		return 0
	case n < 0:
		r.Fail("varint overflows 64 bits")
		return 0
	case n > 1 && r.buf[n-1] == 0:
		r.Fail("varint not in shortest form")
		return 0
	}
	r.buf = r.buf[n:]
	return x
}

// Varint reads a zigzag-encoded signed varint in its shortest form.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Count reads the number of items that follow, each of which takes at least
// each bytes (each >= 1): a count that the remaining bytes could not hold is
// an error, found before the caller allocates for it.
func (r *Reader) Count(each int) int {
	n := r.Uvarint()
	if left := uint64(len(r.buf)); n > left/uint64(each) {
		r.Fail("count %d of at least %d bytes each, %d bytes left", n, each, left)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The result aliases the input
// (capped, so appending to it copies) and is nil when empty.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	s := r.buf[:n:n]
	r.buf = r.buf[n:]
	return s
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Value reads one value written by AppendBinary, refusing lists and records
// nested more than maxDepth deep: MaxDepth for a batch input. Each level
// takes at least two bytes, so a maxDepth of half the input's length or more
// admits every value the input can hold.
func (r *Reader) Value(maxDepth int) Value { return r.value(0, maxDepth) }

func (r *Reader) value(depth, maxDepth int) Value {
	switch k := Kind(r.Byte()); k {
	case KindInvalid:
		return Value{}
	case KindInt:
		return Int(r.Varint())
	case KindString:
		return Str(r.Str())
	case KindBool:
		switch b := r.Byte(); b {
		case 0, 1:
			return Bool(b == 1)
		default:
			r.Fail("bool byte %d", b)
			return Value{}
		}
	case KindList, KindRecord:
		if depth == maxDepth {
			r.Fail("lists and records nested deeper than %d", maxDepth)
			return Value{}
		}
		if k == KindList {
			v, elems := newBlock(KindList, nil, r.Count(1)) // a tag each
			for i := range elems {
				elems[i] = r.value(depth+1, maxDepth)
			}
			return v
		}
		n := r.Count(2) // a name length and a tag each
		names := make([]string, n)
		v, elems := newBlock(KindRecord, names, n)
		for i := range names {
			names[i] = r.Str()
			if i > 0 && names[i] <= names[i-1] {
				r.Fail("record field %q after %q", names[i], names[i-1])
			}
			elems[i] = r.value(depth+1, maxDepth)
		}
		return v
	default:
		r.Fail("unknown tag %d", k)
		return Value{}
	}
}
