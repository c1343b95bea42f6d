package profile

import (
	"fmt"

	"prognosticator/internal/sym"
	"prognosticator/internal/value"
)

// This file keeps the tree-walking instantiation the compiled form
// replaced: it evaluates the profile's terms with sym.Eval through a lookup
// that reads the input map by name and records pivots in a growing list,
// sharing nothing with compile.go but the selection's layout. It is the
// oracle the compiled form is tested against (FuzzCompiledProfileMatchesTree).

// treeWalk is instantiate by walking the tree: Instantiate, InstantiateDirect
// and InstantiateSplit as they were before profiles were compiled.
func treeWalk(p *Profile, inputs map[string]value.Value, pr PivotReader, sel selection, direct *KeySet) (*KeySet, error) {
	inst := instantiator{inputs: inputs, pr: pr}
	var path []*Node
	var n [4]int // selected accesses per group
	if direct != nil {
		n[0], n[2] = len(direct.Reads), len(direct.Writes)
	}
	for nd := p.Root; nd != nil; {
		path = append(path, nd)
		for i := range nd.Seg {
			if k := accessKind(&nd.Seg[i]); sel.includes(k) {
				n[sel.group(k)]++
			}
		}
		if nd.Cond == nil {
			break
		}
		cv, err := inst.eval(nd.Cond)
		if err != nil {
			return nil, fmt.Errorf("profile %s: condition %s: %w", p.TxName, nd.Cond, err)
		}
		b, ok := cv.AsBool()
		if !ok {
			return nil, fmt.Errorf("profile %s: condition %s evaluated to %s", p.TxName, nd.Cond, cv.Kind())
		}
		if b {
			nd = nd.True
		} else {
			nd = nd.False
		}
	}

	at := [4]int{0, n[0], n[0] + n[1], n[0] + n[1] + n[2]}
	ks := &KeySet{DirectReads: n[0], DirectWrites: n[2]}
	keys := make([]value.Key, at[3]+n[3])
	ks.Reads, ks.Writes = keys[:at[2]:at[2]], keys[at[2]:]
	if direct != nil {
		copy(ks.Reads, direct.Reads)
		copy(ks.Writes, direct.Writes)
	}
	for _, nd := range path {
		for i := range nd.Seg {
			a := &nd.Seg[i]
			k := accessKind(a)
			if !sel.includes(k) {
				continue
			}
			key, err := inst.keyOf(a.Table, a.Key)
			if err != nil {
				return nil, fmt.Errorf("profile %s: %w", p.TxName, err)
			}
			g := sel.group(k)
			keys[at[g]] = key
			at[g]++
		}
	}
	ks.Pivots = inst.observations
	return ks, nil
}

type instantiator struct {
	inputs map[string]value.Value
	pr     PivotReader
	// observations are the pivot reads so far, in first-use order; a pivot
	// variable read again takes its value from here.
	observations []PivotObservation
	pivotVars    []string // pivotVars[i] is the variable observations[i] bound
}

func (in *instantiator) keyOf(table string, terms []sym.Term) (value.Key, error) {
	parts := make([]value.Value, 0, len(terms))
	for _, kt := range terms {
		v, err := in.eval(kt)
		if err != nil {
			return value.Key{}, err
		}
		parts = append(parts, v)
	}
	return value.KeyOf(table, parts), nil
}

func (in *instantiator) eval(t sym.Term) (value.Value, error) {
	return sym.Eval(t, in.lookup)
}

// lookup resolves input variables from the concrete inputs and pivot
// variables through the PivotReader, caching and recording each pivot read.
func (in *instantiator) lookup(v *sym.Var) (value.Value, bool) {
	if v.Pivot != nil {
		for i, name := range in.pivotVars {
			if name == v.Name {
				return in.observations[i].Value, true
			}
		}
		if in.pr == nil {
			return value.Value{}, false
		}
		k, err := in.keyOf(v.Pivot.Table, v.Pivot.Key)
		if err != nil {
			return value.Value{}, false
		}
		pv, found := in.pr.ReadPivot(k, v.Pivot.Field)
		if !found {
			pv = value.Int(0)
		}
		in.pivotVars = append(in.pivotVars, v.Name)
		in.observations = append(in.observations, PivotObservation{Key: k, Field: v.Pivot.Field, Value: pv})
		return pv, true
	}
	if v.List != "" {
		lst, ok := in.inputs[v.List]
		if !ok {
			return value.Value{}, false
		}
		return lst.Index(v.Idx)
	}
	val, ok := in.inputs[v.Name]
	return val, ok
}
