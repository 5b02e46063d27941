package cvl

import (
	"fmt"
)

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
	return mergeRules(effective, rf.Rules), nil
}

// mergeRules applies child rules over a parent's effective set: same-key
// rules replace in place, new rules append, disabled rules are removed.
func mergeRules(parent, child []*Rule) []*Rule {
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

// FilterByTags returns the rules carrying at least one of the given tags.
// An empty tag list returns all rules.
func FilterByTags(rules []*Rule, tags []string) []*Rule {
	if len(tags) == 0 {
		return rules
	}
	out := make([]*Rule, 0, len(rules))
	for _, r := range rules {
		if r.MatchesTags(tags) {
			out = append(out, r)
		}
	}
	return out
}

// FilterByEntityType returns the rules applicable to the given entity type
// name. Rules with no applies_to restriction always apply.
func FilterByEntityType(rules []*Rule, entityType string) []*Rule {
	out := make([]*Rule, 0, len(rules))
	for _, r := range rules {
		if r.AppliesToType(entityType) {
			out = append(out, r)
		}
	}
	return out
}
