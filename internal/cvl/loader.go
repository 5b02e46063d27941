package cvl

import "fmt"

// FileReader resolves a rule-file path to its content. Implementations map
// to the local filesystem, an embedded rule library, or test fixtures.
type FileReader func(path string) ([]byte, error)

// ResolveRules loads the rule file at path and resolves its inheritance
// chain (§3.2 "Inheritance"): parent rules load first, child rules with the
// same type+name replace them, and rules marked disabled are removed from
// the effective set. Cycles in parent references are detected.
func ResolveRules(read FileReader, path string) ([]*Rule, error) {
	return resolveRules(read, path, map[string]bool{})
}

func resolveRules(read FileReader, path string, visiting map[string]bool) ([]*Rule, error) {
	if visiting[path] {
		return nil, fmt.Errorf("cvl: inheritance cycle through %q", path)
	}
	visiting[path] = true
	defer delete(visiting, path)

	content, err := read(path)
	if err != nil {
		return nil, fmt.Errorf("cvl: read rule file %s: %w", path, err)
	}
	rf, err := ParseRuleFile(path, content)
	if err != nil {
		return nil, err
	}
	var effective []*Rule
	if rf.Parent != "" {
		parentRules, err := resolveRules(read, rf.Parent, visiting)
		if err != nil {
			return nil, err
		}
		effective = parentRules
	}
	return MergeRules(effective, rf.Rules), nil
}

// MergeRules applies a rule file's own rules over its parent's effective
// set, as inheritance resolves them: a rule with the same Key replaces the
// inherited one in place, a new rule appends, and a disabled rule removes
// the rule it matches (a disabled rule that matches none is dropped).
func MergeRules(parent, child []*Rule) []*Rule {
	out := make([]*Rule, 0, len(parent)+len(child))
	index := make(map[string]int, len(parent))
	for _, r := range parent {
		index[r.Key()] = len(out)
		out = append(out, r)
	}
	for _, r := range child {
		if pos, exists := index[r.Key()]; exists {
			if r.Disabled {
				out[pos] = nil
				continue
			}
			out[pos] = r
			continue
		}
		if r.Disabled {
			// Disabling a rule that doesn't exist in the parent: drop it.
			continue
		}
		index[r.Key()] = len(out)
		out = append(out, r)
	}
	compact := out[:0]
	for _, r := range out {
		if r != nil {
			compact = append(compact, r)
		}
	}
	return compact
}
