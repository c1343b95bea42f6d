package profile

import (
	"fmt"

	"prognosticator/internal/value"
)

// The tree-walking oracle (treewalk_test.go) at each entry point, for the
// external tests that pit it against the compiled form.

func TreeInstantiate(p *Profile, inputs map[string]value.Value, pr PivotReader) (*KeySet, error) {
	return treeWalk(p, inputs, pr, selection{direct: true, indirect: true}, nil)
}

func TreeInstantiateDirect(p *Profile, inputs map[string]value.Value) (*KeySet, error) {
	if !p.PivotFreeTraversal() {
		return nil, fmt.Errorf("profile %s: InstantiateDirect on a profile with pivot-dependent conditions", p.TxName)
	}
	return treeWalk(p, inputs, nil, selection{direct: true, split: true}, nil)
}

func TreeInstantiateSplit(p *Profile, inputs map[string]value.Value, pr PivotReader, direct *KeySet) (*KeySet, error) {
	if !p.PivotFreeTraversal() {
		return nil, fmt.Errorf("profile %s: InstantiateSplit on a profile with pivot-dependent conditions", p.TxName)
	}
	return treeWalk(p, inputs, pr, selection{direct: direct == nil, indirect: true, split: true}, direct)
}
