// Package remediate turns failing validation results into concrete fix
// proposals: edited configuration files that would make the rule pass.
// It extends the paper's Output Processing stage (which attaches "a
// possible suggestive action" to each failure) from advice to an actual
// candidate edit, using the lenses' write-back direction.
//
// Remediation is deliberately conservative: only config-tree rules with an
// unambiguous correct value (exactly one preferred value, or an exact-match
// preferred list) and a renderer-capable lens produce proposals; everything
// else returns ErrNotRemediable with a reason.
package remediate

import (
	"errors"
	"fmt"

	"configvalidator/internal/configtree"
	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
	"configvalidator/internal/lens"
)

// ErrNotRemediable reports a failure this package cannot propose an edit
// for.
var ErrNotRemediable = errors.New("remediate: not remediable")

// Proposal is one suggested configuration edit.
type Proposal struct {
	// File is the configuration file to change.
	File string
	// Original is the file's current content.
	Original []byte
	// Fixed is the proposed content.
	Fixed []byte
	// Description explains the edit.
	Description string
	// Rule is the rule the edit satisfies.
	Rule *cvl.Rule
}

// Remediator builds proposals from results.
type Remediator struct {
	registry *lens.Registry
}

// New creates a Remediator; a nil registry uses lens.Default().
func New(registry *lens.Registry) *Remediator {
	if registry == nil {
		registry = lens.Default()
	}
	return &Remediator{registry: registry}
}

// Propose builds a fix for one failing result against the entity the scan
// ran on. It returns ErrNotRemediable (wrapped with the reason) when no
// safe automatic edit exists.
func (r *Remediator) Propose(ent entity.Entity, res *engine.Result) (*Proposal, error) {
	if res.Status != engine.StatusFail {
		return nil, fmt.Errorf("%w: result is %v, not FAIL", ErrNotRemediable, res.Status)
	}
	rule := res.Rule
	if rule == nil {
		return nil, fmt.Errorf("%w: no rule attached (config parse error)", ErrNotRemediable)
	}
	if rule.Type != cvl.TypeTree {
		return nil, fmt.Errorf("%w: only config-tree rules are remediable, got %s", ErrNotRemediable, rule.Type)
	}
	fix, err := fixValue(rule)
	if err != nil {
		return nil, err
	}
	file := res.File
	if file == "" {
		return nil, fmt.Errorf("%w: result does not identify a configuration file", ErrNotRemediable)
	}
	l, ok := r.registry.ForFile(file)
	if !ok {
		return nil, fmt.Errorf("%w: no lens for %s", ErrNotRemediable, file)
	}
	renderer, ok := l.(lens.Renderer)
	if !ok {
		return nil, fmt.Errorf("%w: lens %s cannot write back", ErrNotRemediable, l.Name())
	}
	original, err := ent.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("remediate: read %s: %w", file, err)
	}
	parsed, err := l.Parse(file, original)
	if err != nil {
		return nil, fmt.Errorf("remediate: parse %s: %w", file, err)
	}
	if parsed.Kind != lens.KindTree {
		return nil, fmt.Errorf("%w: %s normalizes to a %s, not a tree", ErrNotRemediable, file, parsed.Kind)
	}
	tree := parsed.Tree

	edited, err := applyFix(tree, rule, fix)
	if err != nil {
		return nil, err
	}
	if !edited {
		return nil, fmt.Errorf("%w: no matching node to edit in %s", ErrNotRemediable, file)
	}
	fixed, err := renderer.Render(tree)
	if err != nil {
		return nil, fmt.Errorf("remediate: render %s: %w", file, err)
	}
	return &Proposal{
		File:        file,
		Original:    original,
		Fixed:       fixed,
		Description: fmt.Sprintf("set %s to %q in %s", rule.Name, fix, file),
		Rule:        rule,
	}, nil
}

// ProposeAll builds proposals for every remediable failure in the report;
// non-remediable failures are skipped.
func (r *Remediator) ProposeAll(ent entity.Entity, rep *engine.Report) []*Proposal {
	var out []*Proposal
	for _, res := range rep.Failed() {
		p, err := r.Propose(ent, res)
		if err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

// fixValue determines the unambiguous correct value for a rule.
func fixValue(rule *cvl.Rule) (string, error) {
	if len(rule.PreferredValue) == 0 {
		return "", fmt.Errorf("%w: rule %s has no preferred value to set", ErrNotRemediable, rule.Name)
	}
	kind := rule.PreferredMatch.Kind
	if kind == cvl.MatchRegex {
		return "", fmt.Errorf("%w: rule %s matches by regex; no canonical value", ErrNotRemediable, rule.Name)
	}
	if len(rule.PreferredValue) > 1 && rule.PreferredMatch.Quant != cvl.QuantAll {
		// Several acceptable alternatives: pick the first, which rule
		// authors conventionally order most-preferred-first.
		return rule.PreferredValue[0], nil
	}
	if len(rule.PreferredValue) > 1 {
		if kind == cvl.MatchExact {
			// exact,all over several values cannot be satisfied by any
			// single assignment.
			return "", fmt.Errorf("%w: rule %s requires several exact values simultaneously", ErrNotRemediable, rule.Name)
		}
		// substr,all style lists (e.g. TLSv1.2 + TLSv1.3) join into one
		// value assignment.
		joined := rule.PreferredValue[0]
		for _, v := range rule.PreferredValue[1:] {
			joined += " " + v
		}
		return joined, nil
	}
	return rule.PreferredValue[0], nil
}

// applyFix sets the fix value on every node the rule addresses; when the
// key is absent it is inserted at the first config path.
func applyFix(tree *configtree.Node, rule *cvl.Rule, fix string) (bool, error) {
	paths := rule.ConfigPath
	if len(paths) == 0 {
		paths = []string{""}
	}
	edited := false
	for _, p := range paths {
		query := rule.Name
		if trimmed := trimSlashes(p); trimmed != "" {
			query = trimmed + "/" + rule.Name
		}
		for _, node := range tree.AppendFind(nil, configtree.Compile(query)) {
			node.Value = fix
			edited = true
		}
	}
	if edited {
		return true, nil
	}
	// Key absent: insert under the first path that exists in the tree.
	for _, p := range paths {
		trimmed := trimSlashes(p)
		if trimmed == "" {
			tree.Add(rule.Name, fix)
			return true, nil
		}
		if containsPattern(trimmed) {
			continue // cannot insert along a glob path
		}
		if parents := tree.AppendFind(nil, configtree.Compile(trimmed)); len(parents) > 0 {
			parents[0].Add(rule.Name, fix)
			return true, nil
		}
	}
	return false, nil
}

func trimSlashes(s string) string {
	for len(s) > 0 && s[0] == '/' {
		s = s[1:]
	}
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

func containsPattern(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '*' || s[i] == '[' {
			return true
		}
	}
	return false
}
