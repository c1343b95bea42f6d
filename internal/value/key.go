package value

import (
	"strconv"
	"strings"
)

// Key identifies a single data item: a table name plus a tuple of scalar key
// parts. Keys are the unit of conflict detection throughout the system
// (the paper assumes key granularity, §III-C footnote 3).
//
// A key built by KeyOf is immutable: it was encoded when it was built and
// every later Encode — the lock table, the overlay, the store each ask —
// returns that memo, so changing its Table or Parts would leave the memo
// stale. A key without a memo (NewKey's, a Key{Table, Parts} literal, one
// decoded from JSON) encodes on demand. Equal, Compare and JSON look at Table
// and Parts only.
type Key struct {
	Table string
	Parts []Value

	enc Encoded // encodeKey(Table, Parts), or "" when not memoised
}

// NewKey builds a key from a table name and scalar parts, copying parts. It
// does not memoise: its callers (population, tools, tests) build a key to
// use it once, and with the memo it is over the inline budget, which
// populating a store (333 k keys on 100 TPC-C warehouses) shows.
func NewKey(table string, parts ...Value) Key {
	cp := make([]Value, len(parts))
	copy(cp, parts)
	return Key{Table: table, Parts: cp}
}

// KeyOf builds a key that takes ownership of parts — the caller has just
// built the slice for this key and must not write to it afterwards — and
// encodes it once, there and then. The hot paths (the interpreter's key
// expressions, profile instantiation) build their keys with it: each is
// encoded half a dozen times on its way through lock table, overlay and
// store.
func KeyOf(table string, parts []Value) Key {
	return Key{Table: table, Parts: parts, enc: encodeKey(table, parts)}
}

// CloneKeys returns a copy of keys that shares no slice with them: the parts
// of all the copies live in one new slice. It is how keys leave a buffer
// that will be reused under them (lang.Frame). The memos are kept.
func CloneKeys(keys []Key) []Key {
	if len(keys) == 0 {
		return nil
	}
	total := 0
	for _, k := range keys {
		total += len(k.Parts)
	}
	out := make([]Key, len(keys))
	parts := make([]Value, total)
	for i, k := range keys {
		n := copy(parts, k.Parts)
		out[i] = Key{Table: k.Table, Parts: parts[:n:n], enc: k.enc}
		parts = parts[n:]
	}
	return out
}

// Encoded is the canonical string form of a Key, usable as a map key. Two
// keys encode identically iff they identify the same data item.
type Encoded string

// Encode returns the canonical encoding of k. Table names and string parts
// are escaped so that distinct keys never collide. This sits on the hot
// path of every lock-table, overlay and store operation: a key built by
// KeyOf answers from its memo, without allocating.
func (k Key) Encode() Encoded {
	if k.enc != "" {
		return k.enc
	}
	return encodeKey(k.Table, k.Parts)
}

// encodeKey builds the encoding in a manual buffer that lives on the stack
// for any key of ordinary length, so the returned string is the only
// allocation.
func encodeKey(table string, parts []Value) Encoded {
	var stack [64]byte
	buf := stack[:0]
	buf = append(buf, escape(table)...)
	for _, p := range parts {
		buf = append(buf, '/')
		switch p.Kind() {
		case KindInt:
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, p.i, 10)
		case KindString:
			buf = append(buf, 's')
			buf = append(buf, escape(p.str())...)
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
