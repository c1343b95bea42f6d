package profile

import (
	"slices"
	"testing"

	"prognosticator/internal/lang"
	"prognosticator/internal/sym"
	"prognosticator/internal/value"
)

func iv(name string, lo, hi int64) *sym.Var { return sym.NewInput(name, value.KindInt, lo, hi) }
func ic(i int64) sym.Term                   { return sym.Const{V: value.Int(i)} }

// fakePivots is a PivotReader backed by a map from "key.field" to values.
type fakePivots struct {
	vals  map[string]value.Value
	reads int
}

func (f *fakePivots) ReadPivot(k value.Key, field string) (value.Value, bool) {
	f.reads++
	v, ok := f.vals[string(k.Encode())+"."+field]
	return v, ok
}

// directProfile: read ACC/a, write ACC/a and ACC/(a+1). Pure IT.
func directProfile() *Profile {
	a := iv("a", 0, 9)
	return &Profile{
		TxName: "direct",
		Root: &Node{Seg: []Access{
			{Table: "ACC", Key: []sym.Term{a}},
			{Table: "ACC", Key: []sym.Term{a}, Write: true},
			{Table: "ACC", Key: []sym.Term{sym.Bin{Op: lang.OpAdd, L: a, R: ic(1)}}, Write: true},
		}},
	}
}

// pivotProfile: read DIST/d, then write ORDER/(pivot lastOrderId + 1). DT.
func pivotProfile() *Profile {
	d := iv("d", 1, 10)
	pv := sym.NewPivot("DIST", []sym.Term{d}, "lastOrderId")
	return &Profile{
		TxName: "neworder",
		Root: &Node{Seg: []Access{
			{Table: "DIST", Key: []sym.Term{d}},
			{Table: "ORDER", Key: []sym.Term{sym.Bin{Op: lang.OpAdd, L: pv, R: ic(1)}}, Write: true},
		}},
	}
}

// branchProfile: condition on input chooses between two write keys.
func branchProfile() *Profile {
	sel := iv("sel", 0, 1)
	return &Profile{
		TxName: "branchy",
		Root: &Node{
			Seg:  []Access{{Table: "T", Key: []sym.Term{ic(0)}}},
			Cond: sym.Bin{Op: lang.OpEq, L: sel, R: ic(0)},
			True: &Node{Seg: []Access{{Table: "T", Key: []sym.Term{ic(1)}, Write: true}}},
			False: &Node{
				Seg: []Access{{Table: "T", Key: []sym.Term{ic(2)}, Write: true}},
			},
		},
	}
}

func TestClassification(t *testing.T) {
	if got := directProfile().Class(); got != ClassIT {
		t.Fatalf("direct profile class = %v", got)
	}
	if got := pivotProfile().Class(); got != ClassDT {
		t.Fatalf("pivot profile class = %v", got)
	}
	rot := &Profile{TxName: "ro", Root: &Node{Seg: []Access{{Table: "T", Key: []sym.Term{ic(1)}}}}}
	if got := rot.Class(); got != ClassROT {
		t.Fatalf("read-only profile class = %v", got)
	}
	// A DT whose pivot appears only in a condition (not a key).
	pv := sym.NewPivot("T", []sym.Term{ic(1)}, "f")
	condDT := &Profile{TxName: "cdt", Root: &Node{
		Cond:  sym.Bin{Op: lang.OpGt, L: pv, R: ic(0)},
		True:  &Node{Seg: []Access{{Table: "T", Key: []sym.Term{ic(1)}, Write: true}}},
		False: &Node{},
	}}
	if got := condDT.Class(); got != ClassDT {
		t.Fatalf("condition-pivot profile class = %v", got)
	}
	if condDT.PivotFreeTraversal() {
		t.Fatal("condition pivot must disable pivot-free traversal")
	}
	if !pivotProfile().PivotFreeTraversal() {
		t.Fatal("key-only pivots should allow pivot-free traversal")
	}
}

func TestClassStrings(t *testing.T) {
	if ClassROT.String() != "ROT" || ClassIT.String() != "IT" || ClassDT.String() != "DT" {
		t.Fatal("class strings")
	}
	if Class(0).String() != "?" {
		t.Fatal("unknown class string")
	}
}

func TestInstantiateDirect(t *testing.T) {
	ks, err := directProfile().Instantiate(map[string]value.Value{"a": value.Int(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Reads) != 1 || ks.Reads[0].String() != "ACC/i4" {
		t.Fatalf("reads = %v", ks.Reads)
	}
	if len(ks.Writes) != 2 || ks.Writes[1].String() != "ACC/i5" {
		t.Fatalf("writes = %v", ks.Writes)
	}
	if len(ks.Pivots) != 0 {
		t.Fatalf("direct profile should observe no pivots: %v", ks.Pivots)
	}
	keys := ks.Keys()
	if len(keys) != 2 { // ACC/i4 deduped between read and write
		t.Fatalf("Keys = %v", keys)
	}
}

func TestInstantiatePivot(t *testing.T) {
	pr := &fakePivots{vals: map[string]value.Value{
		"DIST/i3.lastOrderId": value.Int(41),
	}}
	ks, err := pivotProfile().Instantiate(map[string]value.Value{"d": value.Int(3)}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.Writes) != 1 || ks.Writes[0].String() != "ORDER/i42" {
		t.Fatalf("writes = %v", ks.Writes)
	}
	if len(ks.Pivots) != 1 {
		t.Fatalf("pivots = %v", ks.Pivots)
	}
	obs := ks.Pivots[0]
	if obs.Key.String() != "DIST/i3" || obs.Field != "lastOrderId" || obs.Value.MustInt() != 41 {
		t.Fatalf("observation = %+v", obs)
	}
}

func TestInstantiatePivotMissingItem(t *testing.T) {
	pr := &fakePivots{vals: map[string]value.Value{}}
	ks, err := pivotProfile().Instantiate(map[string]value.Value{"d": value.Int(3)}, pr)
	if err != nil {
		t.Fatal(err)
	}
	// Missing pivot reads as 0 ⇒ write key ORDER/i1.
	if ks.Writes[0].String() != "ORDER/i1" {
		t.Fatalf("writes = %v", ks.Writes)
	}
	if ks.Pivots[0].Value.MustInt() != 0 {
		t.Fatalf("missing pivot must observe 0, got %v", ks.Pivots[0].Value)
	}
}

func TestInstantiatePivotCached(t *testing.T) {
	// The same pivot used twice must be read once and observed once.
	d := iv("d", 1, 10)
	pv := sym.NewPivot("DIST", []sym.Term{d}, "seq")
	p := &Profile{TxName: "twice", Root: &Node{Seg: []Access{
		{Table: "A", Key: []sym.Term{pv}, Write: true},
		{Table: "B", Key: []sym.Term{pv}, Write: true},
	}}}
	pr := &fakePivots{vals: map[string]value.Value{"DIST/i1.seq": value.Int(9)}}
	ks, err := p.Instantiate(map[string]value.Value{"d": value.Int(1)}, pr)
	if err != nil {
		t.Fatal(err)
	}
	if pr.reads != 1 {
		t.Fatalf("pivot read %d times, want 1", pr.reads)
	}
	if len(ks.Pivots) != 1 {
		t.Fatalf("observations = %v", ks.Pivots)
	}
}

func TestInstantiateBranch(t *testing.T) {
	for sel, wantKey := range map[int64]string{0: "T/i1", 1: "T/i2"} {
		ks, err := branchProfile().Instantiate(map[string]value.Value{"sel": value.Int(sel)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ks.Writes) != 1 || ks.Writes[0].String() != wantKey {
			t.Fatalf("sel=%d writes = %v, want %s", sel, ks.Writes, wantKey)
		}
	}
}

func TestInstantiateListElement(t *testing.T) {
	el := sym.NewListElem("ids", 2, value.KindInt, 0, 99)
	p := &Profile{TxName: "lst", Root: &Node{Seg: []Access{
		{Table: "T", Key: []sym.Term{el}, Write: true},
	}}}
	ks, err := p.Instantiate(map[string]value.Value{
		"ids": value.List(value.Int(5), value.Int(6), value.Int(7)),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Writes[0].String() != "T/i7" {
		t.Fatalf("writes = %v", ks.Writes)
	}
}

func TestInstantiateErrors(t *testing.T) {
	if _, err := directProfile().Instantiate(map[string]value.Value{}, nil); err == nil {
		t.Fatal("missing input must error")
	}
	// DT without a pivot reader must error.
	if _, err := pivotProfile().Instantiate(map[string]value.Value{"d": value.Int(1)}, nil); err == nil {
		t.Fatal("missing pivot reader must error")
	}
	// Non-boolean condition.
	bad := &Profile{TxName: "bad", Root: &Node{
		Cond: ic(7), True: &Node{}, False: &Node{},
	}}
	if _, err := bad.Instantiate(map[string]value.Value{}, nil); err == nil {
		t.Fatal("non-bool condition must error")
	}
}

func TestNumLeaves(t *testing.T) {
	if got := directProfile().NumLeaves(); got != 1 {
		t.Fatalf("direct leaves = %d", got)
	}
	if got := branchProfile().NumLeaves(); got != 2 {
		t.Fatalf("branch leaves = %d", got)
	}
	var empty *Node
	if countLeaves(empty) != 0 {
		t.Fatal("nil node leaves")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, p := range []*Profile{directProfile(), pivotProfile(), branchProfile()} {
		p.Stats = Stats{StatesExplored: 3, TotalStates: 8, Depth: 1, DepthMax: 3, UniqueKeySets: 2, IndirectKeys: 1}
		data, err := Marshal(p)
		if err != nil {
			t.Fatalf("%s: marshal: %v", p.TxName, err)
		}
		back, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", p.TxName, err)
		}
		if back.TxName != p.TxName {
			t.Fatalf("name lost: %q", back.TxName)
		}
		if back.Class() != p.Class() {
			t.Fatalf("%s: class changed across codec", p.TxName)
		}
		if back.NumLeaves() != p.NumLeaves() {
			t.Fatalf("%s: leaves changed across codec", p.TxName)
		}
		if back.Stats != p.Stats {
			t.Fatalf("%s: stats changed: %+v", p.TxName, back.Stats)
		}
		// Instantiation must agree.
		inputs := map[string]value.Value{
			"a": value.Int(1), "d": value.Int(2), "sel": value.Int(1),
		}
		pr := &fakePivots{vals: map[string]value.Value{"DIST/i2.lastOrderId": value.Int(5)}}
		ks1, err1 := p.Instantiate(inputs, pr)
		ks2, err2 := back.Instantiate(inputs, pr)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: errors differ: %v vs %v", p.TxName, err1, err2)
		}
		if err1 == nil {
			if len(ks1.Writes) != len(ks2.Writes) {
				t.Fatalf("%s: writes differ across codec", p.TxName)
			}
			for i := range ks1.Writes {
				if !ks1.Writes[i].Equal(ks2.Writes[i]) {
					t.Fatalf("%s: write %d differs", p.TxName, i)
				}
			}
		}
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{bad")); err == nil {
		t.Fatal("malformed profile JSON must error")
	}
	if _, err := Unmarshal([]byte(`{"tx":"x","root":{"cond":{"t":"mystery"}}}`)); err == nil {
		t.Fatal("bad term must error")
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Table: "T", Key: []sym.Term{ic(1)}, Write: true}
	if a.String() != "W T/1" {
		t.Fatalf("Access.String = %q", a.String())
	}
	r := Access{Table: "T", Key: []sym.Term{ic(2)}}
	if r.String() != "R T/2" {
		t.Fatalf("Access.String = %q", r.String())
	}
}

// splitProfile interleaves direct and pivot-dependent accesses on both sides
// of an input-only branch, so the split layout has something to reorder:
//
//	R DIST/d (direct)   W ORDER/(pv+1)   W STOCK/d (direct)
//	if sel == 0: R ITEM/pv   W LOG/d (direct)   else: W LOG/(pv+2)
func splitProfile() *Profile {
	d, sel := iv("d", 1, 10), iv("sel", 0, 1)
	pv := sym.NewPivot("DIST", []sym.Term{d}, "next")
	plus := func(n int64) sym.Term { return sym.Bin{Op: lang.OpAdd, L: pv, R: ic(n)} }
	return &Profile{TxName: "split", Root: &Node{
		Seg: []Access{
			{Table: "DIST", Key: []sym.Term{d}, Direct: true},
			{Table: "ORDER", Key: []sym.Term{d, plus(1)}, Write: true},
			{Table: "STOCK", Key: []sym.Term{d}, Write: true, Direct: true},
		},
		Cond: sym.Bin{Op: lang.OpEq, L: sel, R: ic(0)},
		True: &Node{Seg: []Access{
			{Table: "ITEM", Key: []sym.Term{pv}},
			{Table: "LOG", Key: []sym.Term{d}, Write: true, Direct: true},
		}},
		False: &Node{Seg: []Access{{Table: "LOG", Key: []sym.Term{plus(2)}, Write: true}}},
	}}
}

func keyStrings(keys []value.Key) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}

// TestInstantiateSplit: one traversal yields the full key-set with the direct
// accesses first, exactly sized, the same whether the direct part is
// evaluated or handed in, and reads each pivot once.
func TestInstantiateSplit(t *testing.T) {
	p := splitProfile()
	if p.Class() != ClassDT || !p.PivotFreeTraversal() {
		t.Fatalf("split profile: class %v, pivot-free %v", p.Class(), p.PivotFreeTraversal())
	}
	inputs := map[string]value.Value{"d": value.Int(3), "sel": value.Int(0)}
	pivots := map[string]value.Value{"DIST/i3.next": value.Int(40)}

	full, err := p.Instantiate(inputs, &fakePivots{vals: pivots})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keyStrings(full.Reads), []string{"DIST/i3", "ITEM/i40"}; !slices.Equal(got, want) {
		t.Fatalf("full reads = %v, want %v", got, want)
	}
	if got, want := keyStrings(full.Writes), []string{"ORDER/i3/i41", "STOCK/i3", "LOG/i3"}; !slices.Equal(got, want) {
		t.Fatalf("full writes = %v, want %v (program order)", got, want)
	}
	if full.DirectReads != 0 || full.DirectWrites != 0 {
		t.Fatalf("Instantiate marks %d+%d keys direct", full.DirectReads, full.DirectWrites)
	}

	direct, err := p.InstantiateDirect(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keyStrings(direct.Writes), []string{"STOCK/i3", "LOG/i3"}; !slices.Equal(got, want) ||
		len(direct.Reads) != 1 || direct.DirectReads != 1 || direct.DirectWrites != 2 || len(direct.Pivots) != 0 {
		t.Fatalf("direct = %+v", direct)
	}

	for name, given := range map[string]*KeySet{"evaluated": nil, "handed in": direct} {
		pr := &fakePivots{vals: pivots}
		ks, err := p.InstantiateSplit(inputs, pr, given)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := keyStrings(ks.Reads), []string{"DIST/i3", "ITEM/i40"}; !slices.Equal(got, want) {
			t.Errorf("%s: reads = %v, want %v", name, got, want)
		}
		if got, want := keyStrings(ks.Writes), []string{"STOCK/i3", "LOG/i3", "ORDER/i3/i41"}; !slices.Equal(got, want) {
			t.Errorf("%s: writes = %v, want %v (direct first)", name, got, want)
		}
		if ks.DirectReads != 1 || ks.DirectWrites != 2 {
			t.Errorf("%s: %d+%d keys marked direct, want 1+2", name, ks.DirectReads, ks.DirectWrites)
		}
		if cap(ks.Reads) != len(ks.Reads) || cap(ks.Writes) != len(ks.Writes) {
			t.Errorf("%s: key-set not exactly sized: reads %d/%d, writes %d/%d",
				name, len(ks.Reads), cap(ks.Reads), len(ks.Writes), cap(ks.Writes))
		}
		if pr.reads != 1 || len(ks.Pivots) != 1 || ks.Pivots[0].Key.String() != "DIST/i3" {
			t.Errorf("%s: %d pivot reads, observations %v", name, pr.reads, ks.Pivots)
		}
		// The direct prefix, handed back in by a re-preparation.
		direct := &KeySet{Reads: ks.Reads[:ks.DirectReads], Writes: ks.Writes[:ks.DirectWrites]}
		again, err := p.InstantiateSplit(inputs, &fakePivots{vals: map[string]value.Value{"DIST/i3.next": value.Int(50)}}, direct)
		if err != nil {
			t.Fatalf("%s: re-preparation: %v", name, err)
		}
		if got, want := keyStrings(again.Writes), []string{"STOCK/i3", "LOG/i3", "ORDER/i3/i51"}; !slices.Equal(got, want) {
			t.Errorf("%s: re-prepared writes = %v, want %v", name, got, want)
		}
	}

	// The other branch has no direct write after the condition.
	inputs["sel"] = value.Int(1)
	ks, err := p.InstantiateSplit(inputs, &fakePivots{vals: pivots}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keyStrings(ks.Writes), []string{"STOCK/i3", "ORDER/i3/i41", "LOG/i42"}; !slices.Equal(got, want) || ks.DirectWrites != 1 {
		t.Errorf("sel=1 writes = %v (%d direct), want %v", got, ks.DirectWrites, want)
	}

	// A pivot in a condition rules the split out, like InstantiateDirect.
	pv := sym.NewPivot("T", []sym.Term{ic(1)}, "f")
	condDT := &Profile{TxName: "cdt", Root: &Node{
		Cond: sym.Bin{Op: lang.OpGt, L: pv, R: ic(0)},
		True: &Node{Seg: []Access{{Table: "T", Key: []sym.Term{ic(1)}, Write: true}}}, False: &Node{},
	}}
	if _, err := condDT.InstantiateSplit(nil, &fakePivots{}, nil); err == nil {
		t.Fatal("InstantiateSplit on a pivot-dependent traversal must error")
	}
}
