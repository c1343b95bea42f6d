package value

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyEncodeBasic(t *testing.T) {
	k := NewKey("STOCK", Int(3), Int(17))
	if got, want := string(k.Encode()), "STOCK/i3/i17"; got != want {
		t.Fatalf("Encode = %q, want %q", got, want)
	}
	if k.String() != "STOCK/i3/i17" {
		t.Fatalf("String = %q", k.String())
	}
}

func TestKeyEncodeKinds(t *testing.T) {
	k := NewKey("T", Str("ab"), Bool(true), Bool(false))
	if got, want := string(k.Encode()), "T/sab/b1/b0"; got != want {
		t.Fatalf("Encode = %q, want %q", got, want)
	}
}

func TestKeyEncodeEscaping(t *testing.T) {
	// A string part containing the separator must not collide with a
	// two-part key.
	a := NewKey("T", Str("x/i1"))
	b := NewKey("T", Str("x"), Int(1))
	if a.Encode() == b.Encode() {
		t.Fatalf("escaping failure: %q == %q", a.Encode(), b.Encode())
	}
	c := NewKey("T", Str("x%2Fi1"))
	if a.Encode() == c.Encode() {
		t.Fatalf("percent escaping failure: %q == %q", a.Encode(), c.Encode())
	}
}

func TestKeyEqual(t *testing.T) {
	a := NewKey("T", Int(1), Str("x"))
	b := NewKey("T", Int(1), Str("x"))
	if !a.Equal(b) {
		t.Fatal("identical keys must be equal")
	}
	if a.Equal(NewKey("U", Int(1), Str("x"))) {
		t.Fatal("different tables must differ")
	}
	if a.Equal(NewKey("T", Int(1))) {
		t.Fatal("different arity must differ")
	}
	if a.Equal(NewKey("T", Int(2), Str("x"))) {
		t.Fatal("different parts must differ")
	}
}

func randomKey(r *rand.Rand) Key {
	table, parts := randomParts(r)
	return NewKey(table, parts...)
}

func randomParts(r *rand.Rand) (string, []Value) {
	tables := []string{"A", "B", "ORDER/LINE", "C%"}
	n := r.Intn(3)
	parts := make([]Value, n)
	for i := range parts {
		if r.Intn(2) == 0 {
			parts[i] = Int(r.Int63n(50))
		} else {
			parts[i] = Str(string(rune('a' + r.Intn(4))))
		}
	}
	return tables[r.Intn(len(tables))], parts
}

func TestPropKeyEncodeInjective(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a, b := randomKey(r), randomKey(r)
		if (a.Encode() == b.Encode()) != a.Equal(b) {
			t.Fatalf("Encode injectivity violated: %v=%q vs %v=%q", a, a.Encode(), b, b.Encode())
		}
	}
}

func TestQuickKeyStringParts(t *testing.T) {
	f := func(table, part string) bool {
		a := NewKey(table, Str(part))
		b := NewKey(table, Str(part))
		return a.Encode() == b.Encode() && a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refKey is the key encoding written out plainly, as the parts would be
// printed: the reference every constructor's encoding is held to.
func refKey(table string, parts []Value) Encoded {
	esc := strings.NewReplacer("%", "%25", "/", "%2F").Replace
	var b strings.Builder
	b.WriteString(esc(table))
	for _, p := range parts {
		b.WriteByte('/')
		switch p.Kind() {
		case KindInt:
			fmt.Fprintf(&b, "i%d", p.MustInt())
		case KindString:
			b.WriteString("s" + esc(p.MustString()))
		case KindBool:
			if p.MustBool() {
				b.WriteString("b1")
			} else {
				b.WriteString("b0")
			}
		default:
			b.WriteString("?" + esc(p.String()))
		}
	}
	return Encoded(b.String())
}

// checkKey asserts that every way of building a key encodes it as refKey
// does, that the key is its encoding (String, Hash, Equal all read it), and
// that nothing of the caller's parts is kept: overwriting them after KeyOf
// returns leaves the key as it was.
func checkKey(t *testing.T, table string, parts []Value) {
	t.Helper()
	want := refKey(table, parts)
	scratch := slices.Clone(parts)
	viaKeyOf := KeyOf(table, scratch)
	for i := range scratch {
		scratch[i] = Str("overwritten/%")
	}
	for name, k := range map[string]Key{
		"KeyOf":     viaKeyOf,
		"NewKey":    NewKey(table, parts...),
		"CloneKeys": CloneKeys([]Key{KeyOf(table, parts)})[0],
	} {
		if got := k.Encode(); got != want || k.String() != string(want) || got.Hash() != want.Hash() {
			t.Fatalf("%s(%q, %v) encodes to %q, want %q", name, table, parts, got, want)
		}
		if !k.Equal(NewKey(table, parts...)) {
			t.Fatalf("%s(%q, %v) is not Equal to NewKey's", name, table, parts)
		}
	}
}

func TestKeyConstructorsAgree(t *testing.T) {
	if got := (Key{}).Encode(); got != "" {
		t.Fatalf("zero key encodes to %q", got)
	}
	checkKey(t, "", nil)
	checkKey(t, "t/%", []Value{{}})
	for _, c := range pinned {
		checkKey(t, "t/%", []Value{c.v})
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		table, parts := randomParts(r)
		checkKey(t, table, parts)
	}
	f := func(table string, s string, i int64, b bool) bool {
		checkKey(t, table, []Value{Str(s), Int(i), Bool(b), List(Str(s), Int(i))})
		return !t.Failed()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// CloneKeys shares no backing array with its input.
	in := []Key{NewKey("T", Int(1)), NewKey("T", Int(2))}
	out := CloneKeys(in)
	in[0] = NewKey("U")
	if !out[0].Equal(NewKey("T", Int(1))) || CloneKeys(nil) != nil {
		t.Fatalf("CloneKeys shares its input: %v", out)
	}
}

// TestKeyEncodeAllocs: a key is encoded once, when it is built, into its one
// allocation; the parts may sit on the caller's stack, and Encode and Equal
// allocate nothing.
func TestKeyEncodeAllocs(t *testing.T) {
	var k Key
	if n := testing.AllocsPerRun(100, func() {
		parts := [2]Value{Int(3), Int(17)}
		k = KeyOf("STOCK", parts[:])
	}); n != 1 {
		t.Errorf("KeyOf from stack parts allocates %v times, want only the encoding", n)
	}
	var e Encoded
	if n := testing.AllocsPerRun(100, func() { e = k.Encode() }); n != 0 || e != "STOCK/i3/i17" {
		t.Errorf("Encode: %v allocations, %q", n, e)
	}
	same := NewKey("STOCK", Int(3), Int(17))
	eq := false
	if n := testing.AllocsPerRun(100, func() { eq = k.Equal(same) }); n != 0 || !eq {
		t.Errorf("Equal: %v allocations, %v", n, eq)
	}
	if n := testing.AllocsPerRun(100, func() { k = NewKey("ORDER/LINE", Int(3)) }); n > 1 {
		t.Errorf("NewKey allocates %v times, want only the encoding", n)
	}
}
