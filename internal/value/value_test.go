package value

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInt: "int", KindString: "string", KindBool: "bool",
		KindList: "list", KindRecord: "record", KindInvalid: "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestScalarAccessors(t *testing.T) {
	v := Int(42)
	if i, ok := v.AsInt(); !ok || i != 42 {
		t.Fatalf("AsInt = %d,%v", i, ok)
	}
	if _, ok := v.AsString(); ok {
		t.Fatal("AsString on int should fail")
	}
	if _, ok := v.AsBool(); ok {
		t.Fatal("AsBool on int should fail")
	}
	s := Str("x")
	if got, ok := s.AsString(); !ok || got != "x" {
		t.Fatalf("AsString = %q,%v", got, ok)
	}
	b := Bool(true)
	if got, ok := b.AsBool(); !ok || !got {
		t.Fatalf("AsBool = %v,%v", got, ok)
	}
}

func TestMustAccessorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustInt on string should panic")
		}
	}()
	_ = Str("x").MustInt()
}

func TestZeroValueInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Fatal("zero Value must be invalid")
	}
	if v.Kind() != KindInvalid {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
}

func TestListOps(t *testing.T) {
	l := List(Int(1), Int(2))
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	e, ok := l.Index(1)
	if !ok || e.MustInt() != 2 {
		t.Fatalf("Index(1) = %v,%v", e, ok)
	}
	if _, ok := l.Index(2); ok {
		t.Fatal("Index out of range should fail")
	}
	if _, ok := l.Index(-1); ok {
		t.Fatal("negative index should fail")
	}
	l2 := l.Append(Int(3))
	if l.Len() != 2 || l2.Len() != 3 {
		t.Fatal("Append must not mutate the receiver")
	}
}

func TestListCopiesInput(t *testing.T) {
	src := []Value{Int(1)}
	l := List(src...)
	src[0] = Int(99)
	e, _ := l.Index(0)
	if e.MustInt() != 1 {
		t.Fatal("List must copy its input slice")
	}
	l.Elems()[0] = Int(99)
	if e, _ := l.Index(0); e.MustInt() != 1 {
		t.Fatal("Elems must return a copy")
	}
}

func TestRecordOps(t *testing.T) {
	r := Record(map[string]Value{"a": Int(1), "b": Str("x")})
	f, ok := r.Field("a")
	if !ok || f.MustInt() != 1 {
		t.Fatalf("Field(a) = %v,%v", f, ok)
	}
	if _, ok := r.Field("zz"); ok {
		t.Fatal("missing field should report false")
	}
	r2 := r.WithField("a", Int(7))
	if f, _ := r.Field("a"); f.MustInt() != 1 {
		t.Fatal("WithField must not mutate the receiver")
	}
	if f, _ := r2.Field("a"); f.MustInt() != 7 {
		t.Fatal("WithField must set the field")
	}
	fields := r.Fields()
	if len(fields) != 2 || fields[0] != "a" || fields[1] != "b" {
		t.Fatalf("Fields = %v", fields)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Str("1"), false},
		{Str("a"), Str("a"), true},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{List(Int(1)), List(Int(1)), true},
		{List(Int(1)), List(Int(1), Int(2)), false},
		{List(Int(1)), List(Int(2)), false},
		{Record(map[string]Value{"x": Int(1)}), Record(map[string]Value{"x": Int(1)}), true},
		{Record(map[string]Value{"x": Int(1)}), Record(map[string]Value{"x": Int(2)}), false},
		{Record(map[string]Value{"x": Int(1)}), Record(map[string]Value{"y": Int(1)}), false},
		{Value{}, Value{}, true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: %v.Equal(%v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	ordered := []Value{
		Int(-5), Int(0), Int(7),
		Str("a"), Str("b"),
		Bool(false), Bool(true),
		List(Int(1)), List(Int(1), Int(0)), List(Int(2)),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := cmpInt(int64(i), int64(j))
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Errorf("Compare(%v,%v) = %d, want sign %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestHashStability(t *testing.T) {
	r := Record(map[string]Value{"a": Int(1), "b": List(Str("x"), Bool(true))})
	h1 := r.Hash()
	// Same logical record built in a different order must hash identically.
	r2 := Record(map[string]Value{"b": List(Str("x"), Bool(true)), "a": Int(1)})
	if h2 := r2.Hash(); h1 != h2 {
		t.Fatalf("hash not stable across field insertion order: %x vs %x", h1, h2)
	}
	if Int(1).Hash() == Int(2).Hash() {
		t.Fatal("distinct ints should hash differently")
	}
	if Int(1).Hash() == Str("1").Hash() {
		t.Fatal("int and string must hash differently")
	}
}

func TestStringCanonical(t *testing.T) {
	r := Record(map[string]Value{"b": Int(2), "a": Int(1)})
	if got, want := r.String(), "{a:1,b:2}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	l := List(Int(1), Str(`x"y`))
	if got, want := l.String(), `[1,"x\"y"]`; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	vals := []Value{
		Int(-9), Str("hello/world"), Bool(true), Bool(false),
		List(Int(1), Str("a"), List(Bool(true))),
		Record(map[string]Value{"n": Int(3), "inner": Record(map[string]Value{"s": Str("")})}),
	}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !v.Equal(back) {
			t.Fatalf("round trip %v -> %s -> %v", v, data, back)
		}
	}
}

func TestJSONUnmarshalError(t *testing.T) {
	var v Value
	if err := v.UnmarshalJSON([]byte("{nonsense")); err == nil {
		t.Fatal("expected error on malformed JSON")
	}
}

// randomValue builds a random value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	k := r.Intn(5)
	if depth <= 0 {
		k = r.Intn(3)
	}
	switch k {
	case 0:
		return Int(r.Int63n(2000) - 1000)
	case 1:
		return Str(string(rune('a' + r.Intn(26))))
	case 2:
		return Bool(r.Intn(2) == 0)
	case 3:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return List(elems...)
	default:
		n := r.Intn(4)
		rec := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			rec[string(rune('a'+i))] = randomValue(r, depth-1)
		}
		return Record(rec)
	}
}

func TestPropEqualImpliesSameHashAndString(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 3)
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !v.Equal(back) {
			t.Fatalf("round trip changed value: %v vs %v", v, back)
		}
		if v.Hash() != back.Hash() {
			t.Fatalf("equal values with different hashes: %v", v)
		}
		if v.String() != back.String() {
			t.Fatalf("equal values with different renderings: %v", v)
		}
		if v.Compare(back) != 0 {
			t.Fatalf("equal values with nonzero Compare: %v", v)
		}
	}
}

func TestPropCompareAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		a, b := randomValue(r, 2), randomValue(r, 2)
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("Compare not antisymmetric for %v, %v", a, b)
		}
		if (a.Compare(b) == 0) != a.Equal(b) {
			t.Fatalf("Compare==0 disagrees with Equal for %v, %v", a, b)
		}
	}
}

func TestPropCompareTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		vs := []Value{randomValue(r, 2), randomValue(r, 2), randomValue(r, 2)}
		// sort the three and check pairwise consistency
		for x := 0; x < 3; x++ {
			for y := 0; y < 3; y++ {
				for z := 0; z < 3; z++ {
					if vs[x].Compare(vs[y]) <= 0 && vs[y].Compare(vs[z]) <= 0 {
						if vs[x].Compare(vs[z]) > 0 {
							t.Fatalf("transitivity violated: %v %v %v", vs[x], vs[y], vs[z])
						}
					}
				}
			}
		}
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		v := Int(i)
		got, ok := v.AsInt()
		return ok && got == i && v.Equal(Int(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		v := Str(s)
		got, ok := v.AsString()
		if !ok || got != s {
			return false
		}
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		var back Value
		return json.Unmarshal(data, &back) == nil && back.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetInPlace: SetInPlace overwrites an existing field in the record's own
// block — every holder sees it, nothing is allocated, the shared names are
// untouched — and refuses a missing field or a value that is not a record.
func TestSetInPlace(t *testing.T) {
	sh := NewShape("a", "b")
	rec, sibling := sh.Record(Int(1), Int(2)), sh.Record(Int(1), Int(2))
	alias := rec
	if n := testing.AllocsPerRun(10, func() {
		if !rec.SetInPlace("b", Int(9)) {
			t.Fatal("SetInPlace refused an existing field")
		}
	}); n != 0 {
		t.Errorf("SetInPlace allocates %v times", n)
	}
	if alias.String() != "{a:1,b:9}" || sibling.String() != "{a:1,b:2}" {
		t.Fatalf("after SetInPlace: holder %v, record of the same shape %v", alias, sibling)
	}
	for _, v := range []Value{rec, Record(nil), List(Int(1)), Int(3)} {
		if v.SetInPlace("c", Int(0)) {
			t.Errorf("SetInPlace of a missing field succeeded on %v", v)
		}
	}
	if rec.String() != "{a:1,b:9}" {
		t.Fatalf("a refused SetInPlace changed the record: %v", rec)
	}
}
