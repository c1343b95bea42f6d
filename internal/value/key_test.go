package value

import (
	"encoding/json"
	"math/rand"
	"slices"
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

func TestKeyCompare(t *testing.T) {
	ks := []Key{
		NewKey("A", Int(1)),
		NewKey("A", Int(2)),
		NewKey("A", Int(2), Int(0)),
		NewKey("B"),
	}
	for i := range ks {
		for j := range ks {
			got := ks[i].Compare(ks[j])
			if (got < 0) != (i < j) || (got > 0) != (i > j) {
				t.Errorf("Compare(%v,%v) = %d", ks[i], ks[j], got)
			}
		}
	}
}

func randomKey(r *rand.Rand) Key {
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
	return NewKey(tables[r.Intn(len(tables))], parts...)
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

// checkKeyMemo asserts that a memoised key cannot be told from the plain
// Key{Table, Parts} literal, which encodes on demand, nor either from NewKey's: same
// Encode, String and hash, Equal and Compare blind to the memo, same JSON.
func checkKeyMemo(t *testing.T, table string, parts []Value) {
	t.Helper()
	plain := Key{Table: table, Parts: parts}
	want := plain.Encode()
	for name, k := range map[string]Key{
		"KeyOf":     KeyOf(table, slices.Clone(parts)),
		"NewKey":    NewKey(table, parts...),
		"CloneKeys": CloneKeys([]Key{KeyOf(table, slices.Clone(parts))})[0],
	} {
		if got := k.Encode(); got != want || k.String() != string(want) || got.Hash() != want.Hash() {
			t.Fatalf("%s(%q, %v) encodes to %q, the literal to %q", name, table, parts, got, want)
		}
		if !k.Equal(plain) || !plain.Equal(k) || k.Compare(plain) != 0 || plain.Compare(k) != 0 {
			t.Fatalf("%s(%q, %v) is not Equal/Compare-identical to the literal", name, table, parts)
		}
		// JSON carries Table and Parts and nothing of the memo; a decoded
		// key has none and encodes on demand.
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %s(%q, %v): %v", name, table, parts, err)
		}
		var fields map[string]json.RawMessage
		var back Key
		if err := json.Unmarshal(data, &fields); err != nil || len(fields) != 2 {
			t.Fatalf("%s(%q, %v) marshals to %s", name, table, parts, data)
		}
		if err := json.Unmarshal(data, &back); err != nil || !back.Equal(plain) || back.Encode() != want {
			t.Fatalf("%s decodes to %v (%v), want %v", data, back, err, plain)
		}
	}
}

func TestKeyMemoMatchesLiteral(t *testing.T) {
	// The zero key still encodes, memoised or not.
	if got := (Key{}).Encode(); got != "" {
		t.Fatalf("zero key encodes to %q", got)
	}
	checkKeyMemo(t, "", nil)
	checkKeyMemo(t, "t/%", []Value{{}})
	for _, c := range pinned {
		checkKeyMemo(t, "t/%", []Value{c.v})
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		k := randomKey(r)
		checkKeyMemo(t, k.Table, k.Parts)
	}
	f := func(table string, s string, i int64, b bool) bool {
		checkKeyMemo(t, table, []Value{Str(s), Int(i), Bool(b), List(Str(s), Int(i))})
		return !t.Failed()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Keys that differ only in having a memo order and compare alike, and
	// differing keys are told apart whichever side carries one.
	a, b := KeyOf("T", []Value{Int(1)}), Key{Table: "T", Parts: []Value{Int(2)}}
	if a.Equal(b) || b.Equal(a) || a.Compare(b) >= 0 || b.Compare(a) <= 0 {
		t.Fatalf("%v and %v must differ and order by parts", a, b)
	}
}

// TestKeyEncodeAllocs: a key built by KeyOf is encoded once, when it is built.
func TestKeyEncodeAllocs(t *testing.T) {
	parts := []Value{Int(3), Int(17)}
	k := KeyOf("STOCK", parts)
	var e Encoded
	if n := testing.AllocsPerRun(100, func() { e = k.Encode() }); n != 0 || e != "STOCK/i3/i17" {
		t.Errorf("Encode of a key built by KeyOf: %v allocations, %q", n, e)
	}
	if n := testing.AllocsPerRun(100, func() { k = KeyOf("STOCK", parts) }); n > 1 {
		t.Errorf("KeyOf allocates %v times, want only the encoding", n)
	}
	plain := Key{Table: "STOCK", Parts: parts}
	if n := testing.AllocsPerRun(100, func() { e = plain.Encode() }); n > 1 {
		t.Errorf("Encode of a literal key allocates %v times, want 1", n)
	}
}
