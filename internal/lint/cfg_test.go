package lint

import (
	"reflect"
	"testing"

	"prognosticator/internal/lang"
)

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestBuildCFGStraightLine(t *testing.T) {
	p := mustParse(t, `
transaction straight(x int[0..9]) {
    a = x + 1
    b = a * 2
    emit out = b
}`)
	cfg := BuildCFG(p)
	// entry, 3 statements, exit
	if len(cfg.Nodes) != 5 {
		t.Fatalf("got %d nodes, want 5", len(cfg.Nodes))
	}
	for i := 0; i < 4; i++ {
		if !reflect.DeepEqual(cfg.Nodes[i].Succs, []int{i + 1}) {
			t.Errorf("node %d succs = %v, want [%d]", i, cfg.Nodes[i].Succs, i+1)
		}
	}
	if got := cfg.Nodes[2].Defs; !reflect.DeepEqual(got, []string{"b"}) {
		t.Errorf("node 2 defs = %v, want [b]", got)
	}
	if got := cfg.Nodes[2].Uses; !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("node 2 uses = %v, want [a]", got)
	}
	if cfg.Nodes[1].Path != "body[0]" || cfg.Nodes[2].Path != "body[1]" {
		t.Errorf("unexpected paths %q %q", cfg.Nodes[1].Path, cfg.Nodes[2].Path)
	}
	if !cfg.Nodes[1].Pos.IsValid() {
		t.Errorf("parsed statement has no position")
	}
}

func TestBuildCFGIfJoin(t *testing.T) {
	p := mustParse(t, `
transaction branches(x int[0..9]) {
    if x > 4 {
        a = 1
    } else {
        a = 2
    }
    emit out = a
}`)
	cfg := BuildCFG(p)
	// entry(0), if(1), then a=1(2), else a=2(3), emit(4), exit(5)
	ifNode := cfg.Nodes[1]
	if !reflect.DeepEqual(ifNode.Succs, []int{2, 3}) {
		t.Fatalf("if succs = %v, want [2 3]", ifNode.Succs)
	}
	emit := cfg.Nodes[4]
	if !reflect.DeepEqual(emit.Preds, []int{2, 3}) {
		t.Fatalf("join preds = %v, want [2 3]", emit.Preds)
	}
	if !reflect.DeepEqual(ifNode.Heads, []int{2, 3}) {
		t.Fatalf("if arm heads = %v, want [2 3]", ifNode.Heads)
	}
	if id, ok := cfg.NodeAt("body[0].else[0]"); !ok || id != 3 {
		t.Fatalf("NodeAt(body[0].else[0]) = %d, %v; want 3", id, ok)
	}
}

func TestBuildCFGEmptyArmNoDuplicateEdges(t *testing.T) {
	p := mustParse(t, `
transaction halfif(x int[0..9]) {
    a = 0
    if x > 4 {
    }
    emit out = a
}`)
	cfg := BuildCFG(p)
	// entry(0), a=0(1), if(2), emit(3), exit(4): both arms empty, so the If
	// frontier is {if} once, not twice.
	if !reflect.DeepEqual(cfg.Nodes[3].Preds, []int{2}) {
		t.Fatalf("emit preds = %v, want [2]", cfg.Nodes[3].Preds)
	}
	if !reflect.DeepEqual(cfg.Nodes[2].Heads, []int{-1, -1}) {
		t.Fatalf("empty arm heads = %v, want [-1 -1]", cfg.Nodes[2].Heads)
	}
}

func TestBuildCFGForBackEdge(t *testing.T) {
	p := mustParse(t, `
transaction looped(n int[1..5]) {
    s = 0
    for i = 0 .. n {
        s = s + i
    }
    emit out = s
}`)
	cfg := BuildCFG(p)
	// entry(0), s=0(1), for(2), body s=s+i(3), emit(4), exit(5)
	forNode := cfg.Nodes[2]
	if !reflect.DeepEqual(forNode.Succs, []int{3, 4}) {
		t.Fatalf("for succs = %v, want [3 4]", forNode.Succs)
	}
	body := cfg.Nodes[3]
	if !reflect.DeepEqual(body.Succs, []int{2}) {
		t.Fatalf("body succs = %v, want back edge [2]", body.Succs)
	}
	if !reflect.DeepEqual(forNode.Heads, []int{3}) {
		t.Fatalf("for body head = %v, want [3]", forNode.Heads)
	}
	if !reflect.DeepEqual(forNode.Defs, []string{"i"}) {
		t.Fatalf("for defs = %v, want [i]", forNode.Defs)
	}
}

func TestReachingDefsBranch(t *testing.T) {
	p := mustParse(t, `
transaction partial(x int[0..9]) {
    if x > 4 {
        a = 1
    }
    b = a
    emit out = b
}`)
	cfg := BuildCFG(p)
	r := SolveReachingDefs(cfg)
	// Node layout: entry(0), if(1), a=1(2), b=a(3), emit(4), exit(5).
	if !r.MaybeUndefined(3, "a") {
		t.Errorf("a should be maybe-undefined at b = a")
	}
	if r.MaybeUndefined(4, "b") {
		t.Errorf("b is defined on every path to emit")
	}
	defs := r.DefsReaching(3, "a")
	if len(defs) != 2 || defs[0].Node != UndefNode || defs[1].Node != 2 {
		t.Errorf("defs reaching = %v, want [{-1 a} {2 a}]", defs)
	}
}

func TestReachingDefsBothArms(t *testing.T) {
	p := mustParse(t, `
transaction total(x int[0..9]) {
    if x > 4 {
        a = 1
    } else {
        a = 2
    }
    b = a
}`)
	cfg := BuildCFG(p)
	r := SolveReachingDefs(cfg)
	// b = a is node 4 (entry, if, then, else, assign, exit).
	if r.MaybeUndefined(4, "a") {
		t.Errorf("a is assigned in both arms; must not be maybe-undefined")
	}
}

func TestReachingDefsLoopCarried(t *testing.T) {
	// A variable first assigned inside a loop body may be undefined when the
	// loop runs zero iterations.
	p := mustParse(t, `
transaction carry(n int[0..5]) {
    for i = 0 .. n {
        last = i
    }
    emit out = last
}`)
	cfg := BuildCFG(p)
	r := SolveReachingDefs(cfg)
	// entry(0), for(1), body last=i(2), emit(3), exit(4)
	if !r.MaybeUndefined(3, "last") {
		t.Errorf("last escapes a possibly-zero-trip loop; should be maybe-undefined")
	}
	// Inside the body on the second iteration the loop-carried def reaches.
	defs := r.DefsReaching(2, "last")
	found := false
	for _, d := range defs {
		if d.Node == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("loop-carried def should reach the body via the back edge; got %v", defs)
	}
}
