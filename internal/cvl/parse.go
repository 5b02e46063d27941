package cvl

import (
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
				return nil, fmt.Errorf("cvl: %s: parent_cvl_file must be a string", path)
			}
			if rf.Parent != "" {
				return nil, fmt.Errorf("cvl: %s: duplicate parent_cvl_file", path)
			}
			rf.Parent = parent
			continue
		}
		rule, err := ParseRule(m)
		if err != nil {
			return nil, fmt.Errorf("cvl: %s: rule %d: %w", path, i+1, err)
		}
		rule.Source = path
		rule.Line = i + 1
		rf.Rules = append(rf.Rules, rule)
	}
	return rf, nil
}

// ParseRule converts one YAML mapping into a Rule, validating keywords and
// type-specific requirements.
func ParseRule(m *yaml.Map) (*Rule, error) {
	ruleType, err := DetectRuleType(m)
	if err != nil {
		return nil, err
	}
	own := typeGroup(ruleType)
	r := &Rule{Type: ruleType, Permission: -1, MaxPermission: -1}
	for i := 0; i < m.Len(); i++ {
		key, value := m.At(i)
		group, known := Keywords[key]
		if !known {
			return nil, fmt.Errorf("unknown keyword %q%s", key, keywordSuggestion(key))
		}
		if group != GroupCommon && group != own {
			return nil, fmt.Errorf("keyword %q belongs to %s rules, not %s rules", key, group, ruleType)
		}
		if err := applyKeyword(r, key, value); err != nil {
			return nil, fmt.Errorf("keyword %q: %w", key, err)
		}
	}
	if err := validateRule(r); err != nil {
		return nil, err
	}
	return r, nil
}

// DetectRuleType determines a rule mapping's type: an explicit rule_type
// declaration wins, otherwise exactly one type-specific name keyword
// (config_name, config_schema_name, path_name, script_name,
// composite_rule_name) must be present.
func DetectRuleType(m *yaml.Map) (RuleType, error) {
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
	case "rule_type", "parent_cvl_file", "enabled", "config_search_paths":
		// rule_type handled in detectRuleType; the rest are manifest-level
		// keys that are tolerated but ignored inside a rule mapping only
		// for rule_type.
		if key == "rule_type" {
			return nil
		}
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
// entity name to entity settings.
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
	for i := 0; i < root.Len(); i++ {
		name, v := root.At(i)
		body, ok := v.(*yaml.Map)
		if !ok {
			return nil, fmt.Errorf("cvl: manifest %s: entity %q must be a mapping", path, name)
		}
		entry := &ManifestEntry{Name: name, Enabled: true}
		for j := 0; j < body.Len(); j++ {
			key, value := body.At(j)
			switch key {
			case "enabled":
				if err := setBool(&entry.Enabled, value); err != nil {
					return nil, manifestErr(path, name, key, err)
				}
			case "config_search_paths":
				if err := setStringSlice(&entry.ConfigSearchPaths, value); err != nil {
					return nil, manifestErr(path, name, key, err)
				}
			case "cvl_file":
				if err := setString(&entry.CVLFile, value); err != nil {
					return nil, manifestErr(path, name, key, err)
				}
			case "parent_cvl_file":
				return nil, fmt.Errorf("cvl: manifest %s: entity %q: parent_cvl_file belongs in the rule file, not the manifest", path, name)
			case "rule_type":
				if err := setString(&entry.RuleType, value); err != nil {
					return nil, manifestErr(path, name, key, err)
				}
				if _, err := ParseRuleType(entry.RuleType); err != nil {
					return nil, manifestErr(path, name, key, err)
				}
			case "tags":
				if err := setStringSlice(&entry.Tags, value); err != nil {
					return nil, manifestErr(path, name, key, err)
				}
			default:
				return nil, fmt.Errorf("cvl: manifest %s: entity %q: unknown key %q", path, name, key)
			}
		}
		if entry.CVLFile == "" {
			return nil, fmt.Errorf("cvl: manifest %s: entity %q missing cvl_file", path, name)
		}
		m.Entries = append(m.Entries, entry)
	}
	return m, nil
}

func manifestErr(path, entity, key string, err error) error {
	return fmt.Errorf("cvl: manifest %s: entity %q: key %q: %w", path, entity, key, err)
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

// SuggestKeyword returns the known CVL keyword closest to key (edit
// distance at most 2), or "" when nothing is close enough to suggest.
func SuggestKeyword(key string) string {
	best := ""
	bestDist := 3 // suggest only close matches
	for kw := range Keywords {
		if d := editDistance(key, kw); d < bestDist {
			best, bestDist = kw, d
		}
	}
	return best
}

// keywordSuggestion proposes the closest known keyword for typo diagnostics.
func keywordSuggestion(key string) string {
	best := SuggestKeyword(key)
	if best == "" {
		return ""
	}
	return fmt.Sprintf(" (did you mean %q?)", best)
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
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(nums ...int) int {
	out := nums[0]
	for _, n := range nums[1:] {
		if n < out {
			out = n
		}
	}
	return out
}
