package value

import (
	"strconv"
	"strings"
)

// Key identifies a single data item: a table name plus a tuple of scalar key
// parts. Keys are the unit of conflict detection throughout the system
// (the paper assumes key granularity, §III-C footnote 3).
type Key struct {
	Table string
	Parts []Value
}

// NewKey builds a key from a table name and scalar parts.
func NewKey(table string, parts ...Value) Key {
	cp := make([]Value, len(parts))
	copy(cp, parts)
	return Key{Table: table, Parts: cp}
}

// Encoded is the canonical string form of a Key, usable as a map key. Two
// keys encode identically iff they identify the same data item.
type Encoded string

// Encode returns the canonical encoding of k. Table names and string parts
// are escaped so that distinct keys never collide. This sits on the hot
// path of every lock-table and overlay operation, hence the manual buffer:
// it lives on the stack for any key of ordinary length, so the returned
// string is the only allocation.
func (k Key) Encode() Encoded {
	var stack [64]byte
	buf := stack[:0]
	buf = append(buf, escape(k.Table)...)
	for _, p := range k.Parts {
		buf = append(buf, '/')
		switch p.Kind() {
		case KindInt:
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, p.i, 10)
		case KindString:
			buf = append(buf, 's')
			buf = append(buf, escape(p.s)...)
		case KindBool:
			buf = append(buf, 'b', '0'+byte(p.i))
		default:
			buf = append(buf, '?')
			buf = append(buf, escape(p.String())...)
		}
	}
	return Encoded(buf)
}

// Hash returns the FNV-1a hash of the encoding: the key's share of a state
// hash.
func (e Encoded) Hash() uint64 { return fnvString(fnvOffset64, string(e)) }

func escape(s string) string {
	if !strings.ContainsAny(s, "/%") {
		return s
	}
	s = strings.ReplaceAll(s, "%", "%25")
	return strings.ReplaceAll(s, "/", "%2F")
}

// String implements fmt.Stringer.
func (k Key) String() string { return string(k.Encode()) }

// Equal reports whether two keys identify the same item.
func (k Key) Equal(o Key) bool {
	if k.Table != o.Table || len(k.Parts) != len(o.Parts) {
		return false
	}
	for i := range k.Parts {
		if !k.Parts[i].Equal(o.Parts[i]) {
			return false
		}
	}
	return true
}

// Compare orders keys by table then parts; used for deterministic iteration.
func (k Key) Compare(o Key) int {
	if c := strings.Compare(k.Table, o.Table); c != 0 {
		return c
	}
	for i := 0; i < len(k.Parts) && i < len(o.Parts); i++ {
		if c := k.Parts[i].Compare(o.Parts[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(k.Parts)), int64(len(o.Parts)))
}
