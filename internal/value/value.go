// Package value implements the dynamically typed value system shared by the
// stored-procedure language, the symbolic-execution engine and the data
// store. A Value is 24 bytes with one pointer word, and a list or record is
// one allocation, its block: the store holds every row for the life of the
// process, so what Go's collector marks per row is kept to that block.
// Values are immutable to everyone but a record's sole holder: WithField and
// Append copy, Fields and Elems return copies, and the one operation that
// writes into a built record, SetInPlace, is for a caller that built the
// record (or copied it) and has handed it to no one — the interpreter's
// frame-owned records. It changes a field's value only, never the names, so
// a record still shares its sorted field-name slice with every WithField
// copy of it and with every other record built from the same Shape.
package value

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"
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
//
// A Value is three words and holds at most one pointer: an int or a bool
// holds none, a string points at its bytes, and a non-empty list or record
// points at its block. A block is one []Value allocation of n+1 elements:
// the header, whose i is n and, in a record, whose p points at the first of
// the n ascending, distinct field names; then the n elements, element i
// being the value of name i. An empty list or record has no block.
type Value struct {
	_    [0]func()      // no ==: it would compare string addresses, not contents
	p    unsafe.Pointer // a string's bytes, or a list's or record's block
	i    int64          // the int; 0 or 1 for a bool; a string's length
	kind Kind
}

// newBlock returns a list or record of n elements (names holds the n field
// names of a record and is nil for a list) and the elements, to be filled in
// before the value is handed out.
func newBlock(kind Kind, names []string, n int) (Value, []Value) {
	if n == 0 {
		return Value{kind: kind}, nil
	}
	b := make([]Value, n+1)
	b[0] = Value{p: unsafe.Pointer(unsafe.SliceData(names)), i: int64(n)}
	return Value{kind: kind, p: unsafe.Pointer(&b[0])}, b[1:]
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Str returns a string value.
func Str(s string) Value {
	if s == "" {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, p: unsafe.Pointer(unsafe.StringData(s)), i: int64(len(s))}
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// List returns a list value holding the given elements. The slice is copied.
func List(elems ...Value) Value {
	v, dst := newBlock(KindList, nil, len(elems))
	copy(dst, elems)
	return v
}

// Record returns a record value with the given fields. The map is copied.
func Record(fields map[string]Value) Value {
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	slices.Sort(names)
	v, elems := newBlock(KindRecord, names, len(names))
	for i, k := range names {
		elems[i] = fields[k]
	}
	return v
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
	v, elems := newBlock(KindRecord, sh.names, len(sh.names))
	for i, f := range vals {
		elems[sh.slot[i]] = f
	}
	return v
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v holds a value.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload. It reports false if v is not an int.
func (v Value) AsInt() (int64, bool) { return v.i, v.kind == KindInt }

// AsString returns the string payload. It reports false if v is not a string.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str(), true
}

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
	return v.str()
}

// MustBool returns the bool payload or panics.
func (v Value) MustBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: MustBool on %s", v.kind))
	}
	return v.i != 0
}

// str returns the string of a string value.
func (v Value) str() string { return unsafe.String((*byte)(v.p), v.i) }

// block returns the block of a non-empty list or record, header first, and
// nil for any other value.
func (v Value) block() []Value {
	if v.kind < KindList || v.p == nil {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), (*Value)(v.p).i+1)
}

// elems returns the elements of a list or record and nil for any other kind.
func (v Value) elems() []Value {
	b := v.block()
	if b == nil {
		return nil
	}
	return b[1:]
}

// names returns the sorted field names of a record and nil for any other
// kind.
func (v Value) names() []string {
	if v.kind != KindRecord || v.p == nil {
		return nil
	}
	h := (*Value)(v.p)
	return unsafe.Slice((*string)(h.p), h.i)
}

// list returns the elements of a list and nil for any other kind.
func (v Value) list() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.elems()
}

// Len returns the number of elements of a list or fields of a record, and 0
// for scalars.
func (v Value) Len() int {
	if v.kind < KindList || v.p == nil {
		return 0
	}
	return int((*Value)(v.p).i)
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
	i := find(v.names(), name)
	if i < 0 {
		return Value{}, false
	}
	return v.elems()[i], true
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
// field copies the block, header and all, and so keeps sharing the names.
func (v Value) WithField(name string, f Value) Value {
	names := v.names()
	if i := find(names, name); i >= 0 {
		b := slices.Clone(v.block())
		b[i+1] = f
		return Value{kind: KindRecord, p: unsafe.Pointer(&b[0])}
	}
	var old []Value // a list's elements are not fields
	if names != nil {
		old = v.elems()
	}
	i, _ := slices.BinarySearch(names, name)
	names = slices.Insert(slices.Clip(names), i, name) // clipped: names may be shared
	out, elems := newBlock(KindRecord, names, len(names))
	copy(elems, old[:i])
	elems[i] = f
	copy(elems[i+1:], old[i:])
	return out
}

// SetInPlace sets the existing field name of record v to f by writing into
// v's block, and reports whether it did; it does nothing and reports false
// when v is not a record or has no such field. Every holder of v sees the
// change, so it is only for a record the caller built or copied itself and
// has not handed on: anywhere else, use WithField.
func (v Value) SetInPlace(name string, f Value) bool {
	i := find(v.names(), name)
	if i < 0 {
		return false
	}
	v.elems()[i] = f
	return true
}

// Fields returns the field names of a record in sorted order.
func (v Value) Fields() []string { return slices.Clone(v.names()) }

// Elems returns a copy of the elements of a list value.
func (v Value) Elems() []Value { return slices.Clone(v.list()) }

// Append returns a copy of list v with elems appended.
func (v Value) Append(elems ...Value) Value {
	l := v.list()
	out, dst := newBlock(KindList, nil, len(l)+len(elems))
	copy(dst[copy(dst, l):], elems)
	return out
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
		return v.str() == o.str()
	case KindList, KindRecord:
		return slices.Equal(v.names(), o.names()) && slices.EqualFunc(v.elems(), o.elems(), Value.Equal)
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
		return strings.Compare(v.str(), o.str())
	case KindList, KindRecord:
		ve, oe := v.elems(), o.elems()
		vn, on := v.names(), o.names()
		for i := 0; i < len(ve) && i < len(oe); i++ {
			if v.kind == KindRecord {
				if c := strings.Compare(vn[i], on[i]); c != 0 {
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
		h = fnvString(h, v.str())
	case KindBool:
		h = fnvByte(h, byte(v.i))
	case KindList:
		for _, e := range v.elems() {
			h = e.hash(h)
		}
	case KindRecord:
		names := v.names()
		for i, e := range v.elems() {
			h = e.hash(fnvString(h, names[i]))
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
		sb.WriteString(strconv.Quote(v.str()))
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.i != 0))
	case KindList:
		sb.WriteByte('[')
		for i, e := range v.elems() {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.render(sb)
		}
		sb.WriteByte(']')
	case KindRecord:
		sb.WriteByte('{')
		names := v.names()
		for i, e := range v.elems() {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(names[i])
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
		jv.S = v.str()
	case KindBool:
		jv.B = v.i != 0
	case KindList:
		jv.L = make([]jsonValue, v.Len())
		for i, e := range v.elems() {
			jv.L[i] = e.toJSON()
		}
	case KindRecord:
		jv.R = make(map[string]*jsonValue, v.Len())
		names := v.names()
		for i, e := range v.elems() {
			ejv := e.toJSON()
			jv.R[names[i]] = &ejv
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
		v, elems := newBlock(KindList, nil, len(jv.L))
		for i, e := range jv.L {
			elems[i] = fromJSON(e)
		}
		return v
	case KindRecord:
		names := make([]string, 0, len(jv.R))
		for k := range jv.R {
			names = append(names, k)
		}
		slices.Sort(names)
		v, elems := newBlock(KindRecord, names, len(names))
		for i, k := range names {
			elems[i] = fromJSON(*jv.R[k])
		}
		return v
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
