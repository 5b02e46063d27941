package schema

import "fmt"

// Atom is one column comparison inside a constraint expression. The
// semantic rule checker (internal/analysis/sem) lowers conjunctions of
// atoms into per-column abstract domains and tests membership with Holds.
type Atom struct {
	// Column is the constrained column name.
	Column string
	// Op is one of =, !=, <, <=, >, >=, LIKE, IN.
	Op string
	// Values are the comparison operands (one element except for IN),
	// with '?' placeholders already substituted from the args list.
	Values []string
}

// ConjunctiveAtoms parses a constraint expression and, when it is a pure
// conjunction of column comparisons (no OR, no NOT), returns its atoms in
// order. The boolean result reports whether the expression had that
// shape; expressions with disjunction or negation parse fine but return
// (nil, false, nil) because they cannot be decomposed column-by-column.
func ConjunctiveAtoms(constraints string, args []string) ([]Atom, bool, error) {
	p := &constraintParser{input: constraints, args: args}
	expr, err := p.parse()
	if err != nil {
		return nil, false, fmt.Errorf("schema: %w", err)
	}
	if p.argPos < len(args) {
		return nil, false, fmt.Errorf("schema: %d placeholder values supplied, %d used", len(args), p.argPos)
	}
	var atoms []Atom
	if !collectAtoms(expr, &atoms) {
		return nil, false, nil
	}
	return atoms, true, nil
}

// collectAtoms flattens an AND tree of comparisons; it reports false on
// any OR or NOT node.
func collectAtoms(e boolExpr, out *[]Atom) bool {
	switch v := e.(type) {
	case *Atom:
		*out = append(*out, *v)
		return true
	case *binaryBool:
		if v.op != "AND" {
			return false
		}
		return collectAtoms(v.left, out) && collectAtoms(v.right, out)
	default:
		return false
	}
}
