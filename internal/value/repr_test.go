package value

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// Tests that hold for any representation of Value: what the package promises
// its callers, checked against a map[string]Value model, plus the size and
// allocation bounds the compact representation exists for.

// decodeValue builds a value from fuzz bytes: a kind byte, then the payload.
// Strings are forced to valid UTF-8 because JSON cannot carry anything else.
func decodeValue(data *[]byte, depth int) Value {
	next := func() byte {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return b
	}
	str := func() string {
		n := min(int(next()%8), len(*data))
		s := strings.ToValidUTF8(string((*data)[:n]), "?")
		*data = (*data)[n:]
		return s
	}
	k := Kind(next() % 6)
	if depth == 0 && k >= KindList {
		k = KindInt
	}
	switch k {
	case KindInt:
		var i int64
		for n := next() % 9; n > 0; n-- {
			i = i<<8 | int64(next())
		}
		return Int(i)
	case KindString:
		return Str(str())
	case KindBool:
		return Bool(next()%2 == 1)
	case KindList:
		elems := make([]Value, next()%5)
		for i := range elems {
			elems[i] = decodeValue(data, depth-1)
		}
		return List(elems...)
	case KindRecord:
		fields := map[string]Value{}
		for n := next() % 5; n > 0; n-- {
			fields[str()] = decodeValue(data, depth-1)
		}
		return Record(fields)
	default:
		return Value{}
	}
}

// FuzzValueRoundTrip drives both codecs. Structured: a value built from the
// fuzz bytes survives MarshalJSON/UnmarshalJSON and AppendBinary/Reader
// Equal, with the same Hash, String and order, and re-encodes to the same
// bytes. Raw: the same bytes read as a binary value must decode cleanly or
// error, never panic, and anything accepted must re-encode to exactly those
// bytes (the encoding is canonical).
func FuzzValueRoundTrip(f *testing.F) {
	// More seeds are checked in under testdata/fuzz/FuzzValueRoundTrip,
	// among them one per class of input the binary Reader rejects.
	f.Add([]byte{})
	f.Add([]byte{4, 3, 3, 1, 4, 0, 5, 0})
	f.Add([]byte{5, 2, 1, 'b', 1, 1, 7, 1, 'a', 5, 1, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		raw := data
		v := decodeValue(&data, 3)
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", enc, err)
		}
		if !back.Equal(v) || !v.Equal(back) {
			t.Fatalf("%v -> %s -> %v: not Equal", v, enc, back)
		}
		if back.Hash() != v.Hash() || back.String() != v.String() || back.Compare(v) != 0 {
			t.Fatalf("%v -> %s -> %v: hash, rendering or order differ", v, enc, back)
		}
		again, err := json.Marshal(back)
		if err != nil || string(again) != string(enc) {
			t.Fatalf("re-encoding %s gave %s (%v)", enc, again, err)
		}
		// The same values as key parts encode as the reference does.
		checkKey(t, v.String(), []Value{v, back})

		bin := v.AppendBinary(nil)
		r := NewReader(bin)
		bback := r.Value(MaxDepth)
		if err := r.End(); err != nil {
			t.Fatalf("binary decode %x: %v", bin, err)
		}
		if !bback.Equal(v) || bback.Hash() != v.Hash() || bback.String() != v.String() || bback.Compare(v) != 0 {
			t.Fatalf("%v -> %x -> %v: not the same value", v, bin, bback)
		}
		if again := bback.AppendBinary(nil); !bytes.Equal(again, bin) {
			t.Fatalf("binary re-encoding %x gave %x", bin, again)
		}

		r = NewReader(raw)
		if rv := r.Value(MaxDepth); r.End() == nil {
			if again := rv.AppendBinary(nil); !bytes.Equal(again, raw) {
				t.Fatalf("accepted %x re-encodes to %x", raw, again)
			}
		}
	})
}

// checkAgainstModel asserts that rec behaves as the record holding exactly
// the model's fields.
func checkAgainstModel(t *testing.T, rec Value, model map[string]Value, alphabet []string) {
	t.Helper()
	want := make([]string, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Strings(want)
	if got := rec.Fields(); !slices.Equal(got, want) {
		t.Fatalf("Fields = %v, want %v", got, want)
	}
	if rec.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", rec.Len(), len(model))
	}
	for _, name := range alphabet {
		got, ok := rec.Field(name)
		w, wok := model[name]
		if ok != wok || !got.Equal(w) {
			t.Fatalf("Field(%q) = %v,%v, want %v,%v", name, got, ok, w, wok)
		}
	}
	if same := Record(model); !rec.Equal(same) || !same.Equal(rec) || rec.Hash() != same.Hash() ||
		rec.String() != same.String() || rec.Compare(same) != 0 {
		t.Fatalf("%v differs from Record(model) %v", rec, same)
	}
}

func TestPropRecordMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	alphabet := []string{"", "a", "aa", "b", "balance", "c", "ytd", "z", "é"}
	for trial := 0; trial < 300; trial++ {
		model := map[string]Value{}
		var rec Value
		switch trial % 3 {
		case 0:
			rec = Record(nil)
		case 1:
			rec = Int(7) // WithField on a non-record starts a fresh record
		default:
			var vals []Value
			names := make([]string, r.Intn(6)) // repeats allowed: the last one wins
			for i := range names {
				names[i] = alphabet[r.Intn(len(alphabet))]
				vals = append(vals, randomValue(r, 2))
				model[names[i]] = vals[i]
			}
			rec = NewShape(names...).Record(vals...)
			checkAgainstModel(t, rec, model, alphabet)
		}
		for step := 0; step < 12; step++ {
			name, f := alphabet[r.Intn(len(alphabet))], randomValue(r, 2)
			before := rec.String()
			next := rec.WithField(name, f)
			if rec.String() != before {
				t.Fatalf("WithField(%q) changed its receiver from %s to %v", name, before, rec)
			}
			if rec.Kind() == KindRecord {
				checkAgainstModel(t, rec, model, alphabet)
			}
			model[name] = f
			checkAgainstModel(t, next, model, alphabet)

			// Scribbling over what the accessors return must not reach the value.
			for i, names := 0, next.Fields(); i < len(names); i++ {
				names[i] = "scribble"
			}
			checkAgainstModel(t, next, model, alphabet)
			rec = next
		}
		if other := rec.WithField("a", Str("only here")); other.Equal(rec) || rec.Equal(other) {
			t.Fatalf("%v Equal %v", rec, other)
		}
	}
}

func TestShape(t *testing.T) {
	sh := NewShape("ytd", "quantity", "orderCnt")
	a := sh.Record(Int(1), Int(2), Int(3))
	b := sh.Record(Int(4), Int(5), Int(6))
	if a.String() != "{orderCnt:3,quantity:2,ytd:1}" {
		t.Fatalf("a = %v", a)
	}
	c := a.WithField("quantity", Int(0))
	if &a.names()[0] != &b.names()[0] || &a.names()[0] != &c.names()[0] {
		t.Fatal("records of one shape, and their WithField copies, must share the name slice")
	}
	if d := a.WithField("new", Int(0)); &d.names()[0] == &a.names()[0] || a.Len() != 3 {
		t.Fatal("adding a field must not touch the shared name slice")
	}
	if got := NewShape().Record(); !got.Equal(Record(nil)) {
		t.Fatalf("empty shape gives %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a value count that differs from the shape's must panic")
		}
	}()
	sh.Record(Int(1))
}

func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 24", got)
	}
}

// tenFields is the shape of a row wider than any the workloads store, and
// the values of one.
func tenFields() (*Shape, []Value) {
	names := []string{"balance", "city", "credit", "deliveryCnt", "discount", "first", "last", "paymentCnt", "since", "ytdPayment"}
	vals := make([]Value, len(names))
	for i := range vals {
		vals[i] = Int(int64(i))
	}
	return NewShape(names...), vals
}

func TestRecordAllocs(t *testing.T) {
	sh, vals := tenFields()
	row := sh.Record(vals...)
	var sink Value
	if n := testing.AllocsPerRun(100, func() { sink = row.WithField("discount", Int(7)) }); n > 1 {
		t.Errorf("WithField on an existing field: %v allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = sh.Record(vals...) }); n != 1 {
		t.Errorf("Shape.Record: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink, _ = row.Field("ytdPayment") }); n != 0 {
		t.Errorf("Field: %v allocs, want 0", n)
	}
	var h uint64
	if n := testing.AllocsPerRun(100, func() { h = row.Hash() }); n != 0 {
		t.Errorf("Hash: %v allocs, want 0", n)
	}
	_, _ = sink, h
}
