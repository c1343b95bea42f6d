// Package value implements the dynamically typed value system shared by the
// stored-procedure language, the symbolic-execution engine and the data
// store. Values are immutable: no exported operation changes a list or
// record once it is built — WithField and Append copy, Fields and Elems
// return copies — and the package relies on that to let a record share its
// sorted field-name slice with every WithField copy of it and with every
// other record built from the same Shape.
package value

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Value kinds. KindInvalid is the zero Kind so that the zero Value is
// distinguishable from any real value.
const (
	KindInvalid Kind = iota
	KindInt
	KindString
	KindBool
	KindList
	KindRecord
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindList:
		return "list"
	case KindRecord:
		return "record"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed database value. The zero Value is invalid.
type Value struct {
	kind Kind
	i    int64     // the integer; 0 or 1 for a bool
	s    string    // the string
	c    *compound // the list or record; non-nil exactly for those kinds
}

// compound is the payload of a list (names nil) or of a record: names holds
// the field names in ascending order without duplicates and elems[i] is the
// value of names[i]. Neither slice is written after construction, which is
// what allows names to be shared between records.
type compound struct {
	names []string
	elems []Value
}

// empty is the payload of every empty list and record.
var empty = &compound{}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// List returns a list value holding the given elements. The slice is copied.
func List(elems ...Value) Value { return listOf(slices.Clone(elems)) }

// listOf wraps elems, which the caller gives up.
func listOf(elems []Value) Value {
	if len(elems) == 0 {
		return Value{kind: KindList, c: empty}
	}
	return Value{kind: KindList, c: &compound{elems: elems}}
}

// Record returns a record value with the given fields. The map is copied.
func Record(fields map[string]Value) Value {
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	slices.Sort(names)
	elems := make([]Value, len(names))
	for i, k := range names {
		elems[i] = fields[k]
	}
	return recordOf(names, elems)
}

// recordOf wraps the ascending, distinct field names and their values, which
// the caller gives up; names may be shared with other records.
func recordOf(names []string, elems []Value) Value {
	if len(elems) == 0 {
		return Value{kind: KindRecord, c: empty}
	}
	return Value{kind: KindRecord, c: &compound{names: names, elems: elems}}
}

// Shape is a fixed set of record field names. Every record built from one
// Shape shares the Shape's sorted name slice, so a table's rows cost their
// values only; it is also the way to build a record without a map.
type Shape struct {
	names []string // ascending, no duplicates
	slot  []int    // slot[i] is the index in names of the i-th declared name
}

// NewShape returns the shape with the given field names, declared in any
// order. A name may repeat; see Record.
func NewShape(names ...string) *Shape {
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	slot := make([]int, len(names))
	for i, n := range names {
		slot[i], _ = slices.BinarySearch(sorted, n)
	}
	return &Shape{names: sorted, slot: slot}
}

// Record returns the record whose i-th declared field is vals[i]; of the
// values of a repeated name the last one wins, as in a map literal built in
// order. It panics unless there is one value per declared name.
func (sh *Shape) Record(vals ...Value) Value {
	if len(vals) != len(sh.slot) {
		panic(fmt.Sprintf("value: Shape.Record: %d values for %d fields", len(vals), len(sh.slot)))
	}
	elems := make([]Value, len(sh.names))
	for i, v := range vals {
		elems[sh.slot[i]] = v
	}
	return recordOf(sh.names, elems)
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v holds a value.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload. It reports false if v is not an int.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsString returns the string payload. It reports false if v is not a string.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBool returns the boolean payload. It reports false if v is not a bool.
func (v Value) AsBool() (bool, bool) { return v.kind == KindBool && v.i != 0, v.kind == KindBool }

// MustInt returns the integer payload or panics. Intended for tests and for
// callers that have already validated the kind.
func (v Value) MustInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: MustInt on %s", v.kind))
	}
	return v.i
}

// MustString returns the string payload or panics.
func (v Value) MustString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: MustString on %s", v.kind))
	}
	return v.s
}

// MustBool returns the bool payload or panics.
func (v Value) MustBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: MustBool on %s", v.kind))
	}
	return v.i != 0
}

// list returns the elements of a list and nil for any other kind.
func (v Value) list() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.c.elems
}

// record returns the sorted field names of a record and their values, and
// nil slices for any other kind.
func (v Value) record() ([]string, []Value) {
	if v.kind != KindRecord {
		return nil, nil
	}
	return v.c.names, v.c.elems
}

// Len returns the number of elements of a list or fields of a record, and 0
// for scalars.
func (v Value) Len() int {
	if v.c == nil {
		return 0
	}
	return len(v.c.elems)
}

// Index returns element i of a list value. It reports false when v is not a
// list or i is out of range.
func (v Value) Index(i int) (Value, bool) {
	l := v.list()
	if i < 0 || i >= len(l) {
		return Value{}, false
	}
	return l[i], true
}

// Field returns the named field of a record value. It reports false when v
// is not a record or the field is absent.
func (v Value) Field(name string) (Value, bool) {
	names, elems := v.record()
	i := find(names, name)
	if i < 0 {
		return Value{}, false
	}
	return elems[i], true
}

// find returns the index of name in names, or -1. A hit needs equality only,
// and over the few names a record has, a scan that rejects most of them on
// length alone is some 2.5 times faster than a binary search.
func find(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// WithField returns a copy of record v with field name set to f. If v is not
// a record a fresh single-field record is returned. Replacing an existing
// field copies the values and keeps sharing the names.
func (v Value) WithField(name string, f Value) Value {
	names, elems := v.record()
	if i := find(names, name); i >= 0 {
		elems = slices.Clone(elems)
		elems[i] = f
	} else {
		i, _ = slices.BinarySearch(names, name)
		names = insertAt(names, i, name)
		elems = insertAt(elems, i, f)
	}
	return recordOf(names, elems)
}

// insertAt returns a copy of s with x inserted before index i.
func insertAt[T any](s []T, i int, x T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// Fields returns the field names of a record in sorted order.
func (v Value) Fields() []string {
	names, _ := v.record()
	return slices.Clone(names)
}

// Elems returns a copy of the elements of a list value.
func (v Value) Elems() []Value { return slices.Clone(v.list()) }

// Append returns a copy of list v with elems appended.
func (v Value) Append(elems ...Value) Value {
	l := v.list()
	cp := make([]Value, 0, len(l)+len(elems))
	cp = append(cp, l...)
	cp = append(cp, elems...)
	return listOf(cp)
}

// Equal reports deep equality of two values. Values of different kinds are
// never equal.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt, KindBool:
		return v.i == o.i
	case KindString:
		return v.s == o.s
	case KindList, KindRecord:
		return slices.Equal(v.c.names, o.c.names) && slices.EqualFunc(v.c.elems, o.c.elems, Value.Equal)
	default:
		return true // two invalid values are equal
	}
}

// Compare orders two values. Values order first by kind, then by payload;
// lists lexicographically; records by sorted field name then field value.
// The result is -1, 0 or +1.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		return cmpInt(int64(v.kind), int64(o.kind))
	}
	switch v.kind {
	case KindInt, KindBool:
		return cmpInt(v.i, o.i)
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindList, KindRecord:
		ve, oe := v.c.elems, o.c.elems
		for i := 0; i < len(ve) && i < len(oe); i++ {
			if v.kind == KindRecord {
				if c := strings.Compare(v.c.names[i], o.c.names[i]); c != 0 {
					return c
				}
			}
			if c := ve[i].Compare(oe[i]); c != 0 {
				return c
			}
		}
		return cmpInt(int64(len(ve)), int64(len(oe)))
	default:
		return 0
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// FNV-1a, 64 bit: the constants of hash/fnv, folded over a running state so
// that hashing neither allocates a hasher nor converts strings to bytes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Hash returns a stable 64-bit hash of the value, suitable for replica state
// comparison. It is stable across processes (FNV-1a over the canonical
// encoding).
func (v Value) Hash() uint64 { return v.hash(fnvOffset64) }

// hash folds v's canonical encoding into the FNV-1a state h: the kind byte,
// then an int in decimal, a string as is, a bool as one byte, list elements
// in order, record fields as name then value in name order.
func (v Value) hash(h uint64) uint64 {
	h = fnvByte(h, byte(v.kind))
	switch v.kind {
	case KindInt:
		var buf [20]byte // len("-9223372036854775808")
		for _, b := range strconv.AppendInt(buf[:0], v.i, 10) {
			h = fnvByte(h, b)
		}
	case KindString:
		h = fnvString(h, v.s)
	case KindBool:
		h = fnvByte(h, byte(v.i))
	case KindList:
		for _, e := range v.c.elems {
			h = e.hash(h)
		}
	case KindRecord:
		for i, e := range v.c.elems {
			h = e.hash(fnvString(h, v.c.names[i]))
		}
	}
	return h
}

// String renders the value for debugging and key encoding. The rendering is
// canonical: equal values render identically.
func (v Value) String() string {
	var sb strings.Builder
	v.render(&sb)
	return sb.String()
}

func (v Value) render(sb *strings.Builder) {
	switch v.kind {
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.i != 0))
	case KindList:
		sb.WriteByte('[')
		for i, e := range v.c.elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.render(sb)
		}
		sb.WriteByte(']')
	case KindRecord:
		sb.WriteByte('{')
		for i, e := range v.c.elems {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.c.names[i])
			sb.WriteByte(':')
			e.render(sb)
		}
		sb.WriteByte('}')
	default:
		sb.WriteString("<invalid>")
	}
}

// jsonValue is the wire representation used by MarshalJSON/UnmarshalJSON.
// The explicit kind tag keeps int/bool/string round trips unambiguous.
type jsonValue struct {
	K Kind                  `json:"k"`
	I int64                 `json:"i,omitempty"`
	S string                `json:"s,omitempty"`
	B bool                  `json:"b,omitempty"`
	L []jsonValue           `json:"l,omitempty"`
	R map[string]*jsonValue `json:"r,omitempty"`
}

func (v Value) toJSON() jsonValue {
	jv := jsonValue{K: v.kind}
	switch v.kind {
	case KindInt:
		jv.I = v.i
	case KindString:
		jv.S = v.s
	case KindBool:
		jv.B = v.i != 0
	case KindList:
		jv.L = make([]jsonValue, len(v.c.elems))
		for i, e := range v.c.elems {
			jv.L[i] = e.toJSON()
		}
	case KindRecord:
		jv.R = make(map[string]*jsonValue, len(v.c.elems))
		for i, e := range v.c.elems {
			ejv := e.toJSON()
			jv.R[v.c.names[i]] = &ejv
		}
	}
	return jv
}

func fromJSON(jv jsonValue) Value {
	switch jv.K {
	case KindInt:
		return Int(jv.I)
	case KindString:
		return Str(jv.S)
	case KindBool:
		return Bool(jv.B)
	case KindList:
		elems := make([]Value, len(jv.L))
		for i, e := range jv.L {
			elems[i] = fromJSON(e)
		}
		return listOf(elems)
	case KindRecord:
		rec := make(map[string]Value, len(jv.R))
		for k, e := range jv.R {
			rec[k] = fromJSON(*e)
		}
		return Record(rec)
	default:
		return Value{}
	}
}

// MarshalJSON implements json.Marshaler.
func (v Value) MarshalJSON() ([]byte, error) { return json.Marshal(v.toJSON()) }

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return fmt.Errorf("value: unmarshal: %w", err)
	}
	*v = fromJSON(jv)
	return nil
}
