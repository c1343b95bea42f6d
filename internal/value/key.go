package value

import "strconv"

// Key identifies a single data item: a table name plus a tuple of scalar key
// parts. Keys are the unit of conflict detection throughout the system
// (the paper assumes key granularity, §III-C footnote 3).
//
// A key is its encoding and nothing else: KeyOf and NewKey encode the table
// and parts they are given, keep none of them, and every later Encode — the
// lock table, the overlay, the store each ask — returns that string. So a
// key is two words, copying one shares nothing a caller could change, and
// the parts can be built in a buffer the caller reuses at once. Keys are
// equal when their encodings are; the zero Key encodes to "".
type Key struct {
	enc Encoded
}

// NewKey builds a key from a table name and scalar parts.
func NewKey(table string, parts ...Value) Key { return KeyOf(table, parts) }

// KeyOf builds a key from a table name and a slice of parts it reads once
// and keeps nothing of, so the slice may live on the caller's stack and be
// overwritten as soon as KeyOf returns. The hot paths (the interpreter's key
// expressions, profile instantiation) build their keys with it.
func KeyOf(table string, parts []Value) Key { return Key{enc: encodeKey(table, parts)} }

// CloneKeys returns a copy of keys that shares no backing array with them:
// how keys leave a buffer that will be reused under them (lang.Frame).
func CloneKeys(keys []Key) []Key {
	if len(keys) == 0 {
		return nil
	}
	return append([]Key(nil), keys...)
}

// Encoded is the canonical string form of a Key, usable as a map key. Two
// keys encode identically iff they identify the same data item.
type Encoded string

// Encode returns the canonical encoding of k. Table names and string parts
// are escaped so that distinct keys never collide. This sits on the hot
// path of every lock-table, overlay and store operation, and allocates
// nothing: the key is the encoding.
func (k Key) Encode() Encoded { return k.enc }

// encodeKey builds the encoding in a manual buffer that lives on the stack
// for any key of ordinary length, so the returned string is the only
// allocation.
func encodeKey(table string, parts []Value) Encoded {
	var stack [64]byte
	return Encoded(AppendKey(stack[:0], table, parts))
}

// AppendKey appends to buf the encoding KeyOf(table, parts) would hold. A
// caller that builds many keys at once (profile instantiation) appends
// them all to one buffer, makes one string of it, and takes each key as a
// substring with KeyOfEncoded: one allocation for all of them.
func AppendKey(buf []byte, table string, parts []Value) []byte {
	buf = appendEscaped(buf, table)
	for _, p := range parts {
		buf = append(buf, '/')
		switch p.Kind() {
		case KindInt:
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, p.i, 10)
		case KindString:
			buf = append(buf, 's')
			buf = appendEscaped(buf, p.str())
		case KindBool:
			buf = append(buf, 'b', '0'+byte(p.i))
		default:
			buf = append(buf, '?')
			buf = appendEscaped(buf, p.String())
		}
	}
	return buf
}

// KeyOfEncoded returns the key whose encoding is e, which must be one that
// AppendKey or Encode produced. The key is e: if e is a substring of a
// larger string, the key keeps all of that string alive.
func KeyOfEncoded(e Encoded) Key { return Key{enc: e} }

// Hash returns the FNV-1a hash of the encoding: the key's share of a state
// hash.
func (e Encoded) Hash() uint64 { return fnvString(fnvOffset64, string(e)) }

// appendEscaped appends s with '%' and '/' escaped, so that a table name or
// string part never holds the separator. The byte scan comes first: almost
// no name needs escaping, and then s is appended as is.
func appendEscaped(buf []byte, s string) []byte {
	clean := true
	for i := 0; i < len(s) && clean; i++ {
		clean = s[i] != '/' && s[i] != '%'
	}
	if clean {
		return append(buf, s...)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			buf = append(buf, "%25"...)
		case '/':
			buf = append(buf, "%2F"...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// String implements fmt.Stringer.
func (k Key) String() string { return string(k.enc) }

// Equal reports whether two keys identify the same item.
func (k Key) Equal(o Key) bool { return k.enc == o.enc }
