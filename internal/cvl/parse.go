package cvl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"configvalidator/internal/yaml"
)

// ParseRuleFile parses a CVL rule file. The file may be a single YAML
// mapping (one rule), a sequence of mappings, or a multi-document stream of
// mappings — the paper's listings use one mapping per rule. A top-level
// "parent_cvl_file" key (in its own document or as the first sequence
// element with only common keys) declares inheritance.
func ParseRuleFile(path string, content []byte) (*RuleFile, error) {
	docs, err := yaml.DecodeAll(content)
	if err != nil {
		return nil, fmt.Errorf("cvl: %s: %w", path, err)
	}
	rf := &RuleFile{Path: path}
	var ruleMaps []*yaml.Map
	for _, doc := range docs {
		switch v := doc.(type) {
		case nil:
			continue
		case *yaml.Map:
			ruleMaps = append(ruleMaps, v)
		case []any:
			for i, item := range v {
				m, ok := item.(*yaml.Map)
				if !ok {
					return nil, fmt.Errorf("cvl: %s: rule %d is %T, want a mapping", path, i+1, item)
				}
				ruleMaps = append(ruleMaps, m)
			}
		default:
			return nil, fmt.Errorf("cvl: %s: document is %T, want a mapping or sequence of mappings", path, doc)
		}
	}
	for i, m := range ruleMaps {
		// A map holding only parent_cvl_file is a directive, not a rule.
		if m.Len() == 1 && m.Has("parent_cvl_file") {
			parent, ok := m.String("parent_cvl_file")
			if !ok {
				return nil, fmt.Errorf("cvl: %s: %w", path, &KeyError{Map: m, Key: "parent_cvl_file",
					Err: errors.New("want a string"), msg: "parent_cvl_file must be a string"})
			}
			if rf.Parent != "" {
				return nil, fmt.Errorf("cvl: %s: %w", path, &KeyError{Map: m, Key: "parent_cvl_file",
					Err: errors.New("already declared"), msg: "duplicate parent_cvl_file"})
			}
			rf.Parent = parent
			continue
		}
		rule, err := ParseRule(m)
		if err != nil {
			return nil, fmt.Errorf("cvl: %s: rule %d: %w", path, i+1, err)
		}
		rule.Source = path
		rf.Rules = append(rf.Rules, rule)
	}
	return rf, nil
}

// KeyError is a problem the loader found at one key of a CVL mapping: a
// rule, a parent_cvl_file directive, or a manifest entity. Every problem
// ParseRule finds, and every one ParseManifest finds in the entities, is
// one; loader errors wrap it, so errors.As recovers where it sits.
type KeyError struct {
	// Map is the mapping the problem sits in: the rule, the directive, the
	// manifest root (for an entity's own key), or the entity's settings.
	Map *yaml.Map
	// Key is the offending key of Map; "" when the mapping as a whole is
	// at fault, as for a rule without a name keyword.
	Key string
	// Name is the rule or manifest entity Map defines, for attribution; ""
	// when it names none.
	Name string
	// Err is what is wrong with Key's value, or with the mapping when Key
	// is "". It is nil when Key is not in the vocabulary of Map's kind: an
	// unknown key, or a keyword of another rule type.
	Err error
	// Suggest is the key closest to an unknown Key that Map's kind may
	// hold, or "" when none is close.
	Suggest string

	msg string
}

// Error returns the problem as the loader reports it.
func (e *KeyError) Error() string { return e.msg }

// Unwrap returns Err.
func (e *KeyError) Unwrap() error { return e.Err }

// problems is every problem found in one rule mapping or manifest, in the
// order the loader meets them. It reads as the first, which is what the
// loader reports; Unwrap exposes them all to the analyzer.
type problems []error

func (p problems) Error() string   { return p[0].Error() }
func (p problems) Unwrap() []error { return p }

// ParseRule converts one YAML mapping into a Rule, validating keywords and
// type-specific requirements. Every problem it finds is a *KeyError: one
// for each key outside the rule type's vocabulary, and at most one of any
// other kind. The error reads as the first and unwraps to them all.
func ParseRule(m *yaml.Map) (*Rule, error) {
	ruleType, typeErr := detectRuleType(m)
	var probs problems
	if typeErr != nil {
		probs = append(probs, &KeyError{Map: m, Err: typeErr, msg: typeErr.Error()})
	}
	own := typeGroup(ruleType)
	r := &Rule{Type: ruleType, Permission: -1, MaxPermission: -1, Line: m.Start().Line}
	for i := 0; i < m.Len(); i++ {
		key, value := m.At(i)
		group, known := Keywords[key]
		switch {
		case !known:
			ke := &KeyError{Map: m, Key: key, Suggest: Suggest(key, keywordList),
				msg: fmt.Sprintf("unknown keyword %q", key)}
			if ke.Suggest != "" {
				ke.msg += fmt.Sprintf(" (did you mean %q?)", ke.Suggest)
			}
			probs = append(probs, ke)
		case typeErr != nil:
			// Without a type only the vocabulary as a whole is known.
		case group != GroupCommon && group != own:
			probs = append(probs, &KeyError{Map: m, Key: key,
				msg: fmt.Sprintf("keyword %q belongs to %s rules, not %s rules", key, group, ruleType)})
		case len(probs) == 0:
			if err := applyKeyword(r, key, value); err != nil {
				probs = append(probs, &KeyError{Map: m, Key: key, Err: err,
					msg: fmt.Sprintf("keyword %q: %v", key, err)})
			}
		}
	}
	if len(probs) == 0 {
		if err := validateRule(r); err != nil {
			probs = append(probs, &KeyError{Map: m, Err: err, msg: err.Error()})
		}
	}
	if len(probs) > 0 {
		name := ruleName(m)
		for _, p := range probs {
			p.(*KeyError).Name = name
		}
		return nil, probs
	}
	return r, nil
}

// ruleName returns the value of the first name keyword the mapping holds
// as a string, so a rule that fails to parse can still be named.
func ruleName(m *yaml.Map) string {
	for _, nk := range nameKeywords {
		if s, ok := m.String(nk.kw); ok {
			return s
		}
	}
	return ""
}

// detectRuleType determines a rule mapping's type: an explicit rule_type
// declaration wins, otherwise exactly one type-specific name keyword
// (config_name, config_schema_name, path_name, script_name,
// composite_rule_name) must be present.
func detectRuleType(m *yaml.Map) (RuleType, error) {
	var found RuleType
	n := 0
	for i := 0; i < m.Len(); i++ {
		key, value := m.At(i)
		if key == "rule_type" {
			if declared, ok := value.(string); ok {
				return ParseRuleType(declared)
			}
			continue
		}
		if t := nameKeywordType(key); t != 0 {
			found = t
			n++
		}
	}
	switch n {
	case 1:
		return found, nil
	case 0:
		return 0, fmt.Errorf("rule has no name keyword (one of config_name, config_schema_name, path_name, script_name, composite_rule_name) and no rule_type")
	default:
		return 0, fmt.Errorf("rule mixes name keywords of %d different rule types", n)
	}
}

func applyKeyword(r *Rule, key string, value any) error {
	switch key {
	case "config_name", "config_schema_name", "path_name", "script_name", "composite_rule_name":
		return setString(&r.Name, value)
	case "config_description", "config_schema_description", "path_description", "script_description", "composite_rule_description", "description":
		return setString(&r.Description, value)
	case "tags":
		return setStringSlice(&r.Tags, value)
	case "severity":
		return setString(&r.Severity, value)
	case "suggested_action":
		return setString(&r.SuggestedAction, value)
	case "disabled":
		return setBool(&r.Disabled, value)
	case "override":
		return setBool(&r.Override, value)
	case "applies_to":
		return setStringSlice(&r.AppliesTo, value)
	case "preferred_value":
		return setStringSlice(&r.PreferredValue, value)
	case "non_preferred_value":
		return setStringSlice(&r.NonPreferredValue, value)
	case "preferred_value_match":
		return setMatchSpec(&r.PreferredMatch, value)
	case "non_preferred_value_match":
		return setMatchSpec(&r.NonPreferredMatch, value)
	case "matched_description":
		return setString(&r.MatchedDescription, value)
	case "not_matched_preferred_value_description":
		return setString(&r.NotMatchedDescription, value)
	case "not_present_description":
		return setString(&r.NotPresentDescription, value)
	case "config_path":
		return setStringSlice(&r.ConfigPath, value)
	case "file_context":
		return setStringSlice(&r.FileContext, value)
	case "require_other_configs":
		return setStringSlice(&r.RequireOtherConfigs, value)
	case "value_separator":
		return setString(&r.ValueSeparator, value)
	case "case_insensitive":
		return setBool(&r.CaseInsensitive, value)
	case "occurrence":
		if err := setString(&r.Occurrence, value); err != nil {
			return err
		}
		switch r.Occurrence {
		case "any", "all", "first":
			return nil
		default:
			return fmt.Errorf("occurrence must be any, all, or first; got %q", r.Occurrence)
		}
	case "absent_pass":
		return setBool(&r.AbsentPass, value)
	case "query_constraints":
		return setString(&r.QueryConstraints, value)
	case "query_constraints_value":
		return setStringSlice(&r.QueryConstraintsValue, value)
	case "query_columns":
		return setStringSlice(&r.QueryColumns, value)
	case "expect_rows":
		return setString(&r.ExpectRows, value)
	case "ownership":
		return setString(&r.Ownership, value)
	case "permission":
		return setOctal(&r.Permission, value)
	case "max_permission":
		return setOctal(&r.MaxPermission, value)
	case "exists":
		var b bool
		if err := setBool(&b, value); err != nil {
			return err
		}
		r.Exists = &b
		return nil
	case "script_feature":
		return setString(&r.ScriptFeature, value)
	case "composite_rule":
		var src string
		if err := setString(&src, value); err != nil {
			return err
		}
		expr, err := ParseComposite(src)
		if err != nil {
			return err
		}
		r.CompositeExpr = expr
		return nil
	case "rule_type":
		return nil // read by detectRuleType
	case "parent_cvl_file", "enabled", "config_search_paths", "cvl_file":
		return fmt.Errorf("manifest keyword not valid inside a rule")
	default:
		return fmt.Errorf("unhandled keyword") // unreachable: Keywords gate
	}
}

func validateRule(r *Rule) error {
	if r.Name == "" {
		return fmt.Errorf("rule has an empty name")
	}
	switch r.Type {
	case TypeTree:
		// No further requirements: a tree rule with no preferred values is
		// a pure presence check.
	case TypeSchema:
		if r.QueryConstraints == "" && r.ExpectRows == "" && len(r.PreferredValue) == 0 && len(r.NonPreferredValue) == 0 {
			return fmt.Errorf("schema rule %q asserts nothing (need query_constraints, expect_rows, or value matchers)", r.Name)
		}
		if err := validateExpectRows(r.ExpectRows); err != nil {
			return err
		}
	case TypePath:
		if r.Ownership == "" && r.Permission < 0 && r.MaxPermission < 0 && r.Exists == nil {
			return fmt.Errorf("path rule %q asserts nothing (need ownership, permission, max_permission, or exists)", r.Name)
		}
		if r.Ownership != "" && !validOwnership(r.Ownership) {
			return fmt.Errorf("path rule %q: ownership %q must be 'uid:gid'", r.Name, r.Ownership)
		}
	case TypeScript:
		if r.ScriptFeature == "" {
			return fmt.Errorf("script rule %q requires script_feature", r.Name)
		}
		if len(r.PreferredValue) == 0 && len(r.NonPreferredValue) == 0 {
			return fmt.Errorf("script rule %q asserts nothing (need value matchers)", r.Name)
		}
	case TypeComposite:
		if r.CompositeExpr == nil {
			return fmt.Errorf("composite rule %q requires composite_rule", r.Name)
		}
	}
	return nil
}

func validateExpectRows(s string) error {
	if s == "" {
		return nil
	}
	trimmed := strings.TrimPrefix(strings.TrimPrefix(s, ">="), "<=")
	if _, err := strconv.Atoi(trimmed); err != nil {
		return fmt.Errorf("expect_rows %q must be N, >=N, or <=N", s)
	}
	return nil
}

func validOwnership(s string) bool {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return false
	}
	for _, p := range parts {
		if _, err := strconv.Atoi(p); err != nil {
			return false
		}
	}
	return true
}

// ParseManifest parses a manifest document (Listing 5): a mapping from
// entity name to entity settings. Every problem it finds in the entities
// is a *KeyError; the error reads as the first and unwraps to them all.
// The manifest returned with such an error holds every entity whose
// settings are a mapping, as far as they parse.
func ParseManifest(path string, content []byte) (*Manifest, error) {
	doc, err := yaml.Decode(content)
	if err != nil {
		return nil, fmt.Errorf("cvl: manifest %s: %w", path, err)
	}
	root, ok := doc.(*yaml.Map)
	if !ok {
		return nil, fmt.Errorf("cvl: manifest %s: document is %T, want a mapping of entities", path, doc)
	}
	m := &Manifest{Entries: make([]*ManifestEntry, 0, root.Len())}
	var probs problems
	for i := 0; i < root.Len(); i++ {
		name, v := root.At(i)
		body, ok := v.(*yaml.Map)
		if !ok {
			probs = append(probs, &KeyError{Map: root, Key: name, Name: name, Err: errors.New("want a mapping"),
				msg: fmt.Sprintf("entity %q must be a mapping", name)})
			continue
		}
		entry := &ManifestEntry{Name: name, Enabled: true}
		for j := 0; j < body.Len(); j++ {
			key, value := body.At(j)
			if err := entry.set(key, value); err != nil {
				probs = append(probs, manifestProblem(body, name, key, err))
			}
		}
		if entry.CVLFile == "" {
			probs = append(probs, &KeyError{Map: root, Key: name, Name: name, Err: errors.New("missing cvl_file"),
				msg: fmt.Sprintf("entity %q missing cvl_file", name)})
		}
		m.Entries = append(m.Entries, entry)
	}
	if len(probs) > 0 {
		return m, fmt.Errorf("cvl: manifest %s: %w", path, probs)
	}
	return m, nil
}

var (
	errParentInRule = errors.New("parent_cvl_file belongs in the rule file, not the manifest")
	errUnknownKey   = errors.New("unknown key")
)

// manifestKeys is the vocabulary of a manifest entity, in suggestion
// order.
var manifestKeys = []string{"enabled", "config_search_paths", "cvl_file", "rule_type", "tags"}

// set applies one setting of a manifest entity; errUnknownKey reports a
// key outside the manifest vocabulary.
func (e *ManifestEntry) set(key string, value any) error {
	switch key {
	case "enabled":
		return setBool(&e.Enabled, value)
	case "config_search_paths":
		return setStringSlice(&e.ConfigSearchPaths, value)
	case "cvl_file":
		return setString(&e.CVLFile, value)
	case "parent_cvl_file":
		return errParentInRule
	case "rule_type":
		if err := setString(&e.RuleType, value); err != nil {
			return err
		}
		_, err := ParseRuleType(e.RuleType)
		return err
	case "tags":
		return setStringSlice(&e.Tags, value)
	}
	return errUnknownKey
}

// manifestProblem words a manifest entity's bad setting as the loader
// reports it.
func manifestProblem(body *yaml.Map, entity, key string, err error) *KeyError {
	ke := &KeyError{Map: body, Key: key, Name: entity, Err: err}
	switch err {
	case errUnknownKey:
		ke.Err = nil
		ke.Suggest = Suggest(key, manifestKeys)
		ke.msg = fmt.Sprintf("entity %q: unknown key %q", entity, key)
	case errParentInRule:
		ke.msg = fmt.Sprintf("entity %q: %v", entity, err)
	default:
		ke.msg = fmt.Sprintf("entity %q: key %q: %v", entity, key, err)
	}
	return ke
}

// --- value coercion helpers ---

func setString(dst *string, value any) error {
	switch v := value.(type) {
	case string:
		*dst = v
	case int64:
		*dst = strconv.FormatInt(v, 10)
	case float64:
		*dst = strconv.FormatFloat(v, 'g', -1, 64)
	case bool:
		*dst = strconv.FormatBool(v)
	default:
		return fmt.Errorf("want a string, got %T", value)
	}
	return nil
}

func setStringSlice(dst *[]string, value any) error {
	switch v := value.(type) {
	case []any:
		out := make([]string, 0, len(v))
		for _, item := range v {
			var s string
			if err := setString(&s, item); err != nil {
				return fmt.Errorf("list element: %w", err)
			}
			out = append(out, s)
		}
		*dst = out
		return nil
	case nil:
		*dst = nil
		return nil
	case string:
		// A single string is accepted as a one-element list, matching the
		// paper's `query_columns: "*"` usage.
		*dst = []string{v}
		return nil
	default:
		return fmt.Errorf("want a list of strings, got %T", value)
	}
}

func setBool(dst *bool, value any) error {
	b, ok := value.(bool)
	if !ok {
		return fmt.Errorf("want a boolean, got %T", value)
	}
	*dst = b
	return nil
}

func setMatchSpec(dst *MatchSpec, value any) error {
	var s string
	if err := setString(&s, value); err != nil {
		return err
	}
	spec, err := ParseMatchSpec(s)
	if err != nil {
		return err
	}
	*dst = spec
	return nil
}

// setOctal accepts permissions either as integers written in octal
// convention (the paper's Listing 4 uses "permission: 644") or as strings
// ("0644", "644").
func setOctal(dst *int, value any) error {
	switch v := value.(type) {
	case int64:
		// YAML decodes 644 as decimal six hundred forty-four; reinterpret
		// its digits as octal, matching admin convention.
		n, err := strconv.ParseInt(strconv.FormatInt(v, 10), 8, 32)
		if err != nil {
			return fmt.Errorf("permission %d has non-octal digits", v)
		}
		*dst = int(n)
	case string:
		n, err := strconv.ParseInt(strings.TrimPrefix(v, "0o"), 8, 32)
		if err != nil {
			return fmt.Errorf("permission %q is not octal", v)
		}
		*dst = int(n)
	default:
		return fmt.Errorf("want a permission, got %T", value)
	}
	if *dst < 0 || *dst > 0o7777 {
		return fmt.Errorf("permission %o out of range", *dst)
	}
	return nil
}

// Suggest returns the candidate closest to word by edit distance, when
// that distance is at most 2, or "". Ties go to the earlier candidate.
func Suggest(word string, candidates []string) string {
	best := ""
	bestDist := 3 // suggest only close matches
	for _, c := range candidates {
		if d := editDistance(word, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
