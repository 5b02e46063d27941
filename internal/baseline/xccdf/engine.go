package xccdf

import (
	"errors"
	"fmt"
	"regexp"
	"strings"

	"configvalidator/internal/entity"
)

// RuleResult is the outcome of one XCCDF rule.
type RuleResult struct {
	// RuleID is the XCCDF rule identifier.
	RuleID string
	// Title is the rule title.
	Title string
	// Passed reports compliance.
	Passed bool
	// Err is set when the rule could not be evaluated.
	Err error
}

// Engine evaluates an XCCDF benchmark whose checks reference OVAL
// textfilecontent54 definitions.
type Engine struct {
	docs  *Documents
	regex map[string]*regexp.Regexp
}

// Load parses the benchmark and OVAL documents and indexes them.
func Load(benchXML, ovalXML []byte) (*Engine, error) {
	docs, err := Parse(benchXML, ovalXML)
	if err != nil {
		return nil, err
	}
	return &Engine{docs: docs, regex: make(map[string]*regexp.Regexp)}, nil
}

// Evaluate runs every selected rule against the entity.
func (e *Engine) Evaluate(ent entity.Entity) []RuleResult {
	out := make([]RuleResult, 0, len(e.docs.Benchmark.Rules))
	for _, rule := range e.docs.Benchmark.Rules {
		if !rule.Selected {
			continue
		}
		res := RuleResult{RuleID: rule.ID, Title: rule.Title}
		def, ok := e.docs.Definition(rule.Check.ContentRef.Name)
		if !ok {
			res.Err = fmt.Errorf("xccdf: rule %s: missing OVAL definition %q", rule.ID, rule.Check.ContentRef.Name)
			out = append(out, res)
			continue
		}
		passed, err := e.evalCriteria(ent, &def.Criteria)
		res.Passed = passed
		res.Err = err
		out = append(out, res)
	}
	return out
}

func (e *Engine) evalCriteria(ent entity.Entity, c *Criteria) (bool, error) {
	op := strings.ToUpper(c.Operator)
	if op == "" {
		op = "AND"
	}
	var values []bool
	for i := range c.Criterias {
		v, err := e.evalCriteria(ent, &c.Criterias[i])
		if err != nil {
			return false, err
		}
		values = append(values, v)
	}
	for _, crit := range c.Criterions {
		v, err := e.evalTest(ent, crit.TestRef)
		if err != nil {
			return false, err
		}
		if crit.Negate {
			v = !v
		}
		values = append(values, v)
	}
	if len(values) == 0 {
		return false, errors.New("xccdf: empty criteria")
	}
	result := op == "AND"
	for _, v := range values {
		if op == "AND" {
			result = result && v
		} else {
			result = result || v
		}
	}
	if c.Negate {
		result = !result
	}
	return result, nil
}

// evalTest evaluates a textfilecontent54 test: collect items via the
// object's pattern, apply existence semantics, then state checks.
func (e *Engine) evalTest(ent entity.Entity, testRef string) (bool, error) {
	test, ok := e.docs.Test(testRef)
	if !ok {
		return false, fmt.Errorf("xccdf: missing test %q", testRef)
	}
	obj, ok := e.docs.Object(test.Object.Ref)
	if !ok {
		return false, fmt.Errorf("xccdf: test %s: missing object %q", test.ID, test.Object.Ref)
	}
	items, err := e.collect(ent, obj)
	if err != nil {
		return false, err
	}
	switch test.CheckExistence {
	case "none_exist":
		return len(items) == 0, nil
	case "", "at_least_one_exists":
		if len(items) == 0 {
			return false, nil
		}
	case "any_exist":
		// No existence requirement.
	default:
		return false, fmt.Errorf("xccdf: test %s: unsupported check_existence %q", test.ID, test.CheckExistence)
	}
	if len(test.States) == 0 {
		return true, nil
	}
	mode := strings.ToLower(test.Check)
	if mode == "" {
		mode = "all"
	}
	satisfied := 0
	for _, item := range items {
		ok, err := e.itemSatisfiesStates(item, test.States)
		if err != nil {
			return false, err
		}
		if ok {
			satisfied++
		}
	}
	switch mode {
	case "all":
		return satisfied == len(items), nil
	case "at least one":
		return satisfied > 0, nil
	default:
		return false, fmt.Errorf("xccdf: test %s: unsupported check %q", test.ID, test.Check)
	}
}

// collect gathers the first-capture-group values of every line matching
// the object's pattern.
func (e *Engine) collect(ent entity.Entity, obj *TFC54Object) ([]string, error) {
	if op := obj.Pattern.Operation; op != "" && op != "pattern match" {
		return nil, fmt.Errorf("xccdf: object %s: unsupported pattern operation %q", obj.ID, op)
	}
	re, err := e.compile(strings.TrimSpace(obj.Pattern.Value))
	if err != nil {
		return nil, fmt.Errorf("xccdf: object %s: %w", obj.ID, err)
	}
	content, err := ent.ReadFile(obj.Filepath)
	if err != nil {
		if errors.Is(err, entity.ErrNotExist) {
			return nil, nil // no file, no items
		}
		return nil, err
	}
	var items []string
	for _, line := range strings.Split(string(content), "\n") {
		m := re.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if len(m) > 1 {
			items = append(items, m[1])
		} else {
			items = append(items, m[0])
		}
	}
	return items, nil
}

func (e *Engine) itemSatisfiesStates(item string, refs []StateRef) (bool, error) {
	for _, ref := range refs {
		state, ok := e.docs.State(ref.Ref)
		if !ok {
			return false, fmt.Errorf("xccdf: missing state %q", ref.Ref)
		}
		if state.Subexpression == nil {
			continue
		}
		want := strings.TrimSpace(state.Subexpression.Value)
		switch op := state.Subexpression.Operation; op {
		case "", "equals":
			if item != want {
				return false, nil
			}
		case "not equal":
			if item == want {
				return false, nil
			}
		case "pattern match":
			re, err := e.compile(want)
			if err != nil {
				return false, fmt.Errorf("xccdf: state %s: %w", state.ID, err)
			}
			if !re.MatchString(item) {
				return false, nil
			}
		default:
			return false, fmt.Errorf("xccdf: state %s: unsupported operation %q", state.ID, op)
		}
	}
	return true, nil
}

func (e *Engine) compile(pattern string) (*regexp.Regexp, error) {
	if re, ok := e.regex[pattern]; ok {
		return re, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	e.regex[pattern] = re
	return re, nil
}
