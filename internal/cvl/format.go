package cvl

import (
	"strconv"

	"configvalidator/internal/yaml"
)

// FormatRule renders a rule back to CVL YAML. The output parses to an
// equivalent rule (checked by property tests), with keys emitted in the
// conventional order of the paper's listings.
func FormatRule(r *Rule) ([]byte, error) {
	m := yaml.NewMap()
	nameKW := nameKeyword(r.Type)
	m.Set(nameKW, r.Name)
	if r.Description != "" {
		m.Set(descriptionKeyword(r.Type), r.Description)
	}
	if len(r.Tags) > 0 {
		m.Set("tags", toAny(r.Tags))
	}
	if r.Severity != "" {
		m.Set("severity", r.Severity)
	}
	if r.Override {
		m.Set("override", true)
	}
	if r.Disabled {
		m.Set("disabled", true)
	}
	if len(r.AppliesTo) > 0 {
		m.Set("applies_to", toAny(r.AppliesTo))
	}

	switch r.Type {
	case TypeTree:
		if len(r.ConfigPath) > 0 {
			m.Set("config_path", toAny(r.ConfigPath))
		}
		if len(r.FileContext) > 0 {
			m.Set("file_context", toAny(r.FileContext))
		}
		if len(r.RequireOtherConfigs) > 0 {
			m.Set("require_other_configs", toAny(r.RequireOtherConfigs))
		}
		if r.ValueSeparator != "" {
			m.Set("value_separator", r.ValueSeparator)
		}
		if r.CaseInsensitive {
			m.Set("case_insensitive", true)
		}
		if r.Occurrence != "" {
			m.Set("occurrence", r.Occurrence)
		}
		if r.AbsentPass {
			m.Set("absent_pass", true)
		}
	case TypeSchema:
		if r.QueryConstraints != "" {
			m.Set("query_constraints", r.QueryConstraints)
		}
		if len(r.QueryConstraintsValue) > 0 {
			m.Set("query_constraints_value", toAny(r.QueryConstraintsValue))
		}
		if len(r.QueryColumns) > 0 {
			m.Set("query_columns", toAny(r.QueryColumns))
		}
		if r.ExpectRows != "" {
			m.Set("expect_rows", r.ExpectRows)
		}
	case TypePath:
		if r.Ownership != "" {
			m.Set("ownership", r.Ownership)
		}
		if r.Permission >= 0 {
			m.Set("permission", octalString(r.Permission))
		}
		if r.MaxPermission >= 0 {
			m.Set("max_permission", octalString(r.MaxPermission))
		}
		if r.Exists != nil {
			m.Set("exists", *r.Exists)
		}
	case TypeScript:
		m.Set("script_feature", r.ScriptFeature)
	case TypeComposite:
		if r.CompositeExpr != nil {
			m.Set("composite_rule", r.CompositeExpr.String())
		}
	}

	if len(r.PreferredValue) > 0 {
		m.Set("preferred_value", toAny(r.PreferredValue))
	}
	if !r.PreferredMatch.IsZero() {
		m.Set("preferred_value_match", r.PreferredMatch.String())
	}
	if len(r.NonPreferredValue) > 0 {
		m.Set("non_preferred_value", toAny(r.NonPreferredValue))
	}
	if !r.NonPreferredMatch.IsZero() {
		m.Set("non_preferred_value_match", r.NonPreferredMatch.String())
	}
	if r.MatchedDescription != "" {
		m.Set("matched_description", r.MatchedDescription)
	}
	if r.NotMatchedDescription != "" {
		m.Set("not_matched_preferred_value_description", r.NotMatchedDescription)
	}
	if r.NotPresentDescription != "" {
		m.Set("not_present_description", r.NotPresentDescription)
	}
	if r.SuggestedAction != "" {
		m.Set("suggested_action", r.SuggestedAction)
	}
	return yaml.Encode(m)
}

// FormatRuleFile renders a rule list (and optional parent reference) as a
// multi-document CVL file.
func FormatRuleFile(parent string, rules []*Rule) ([]byte, error) {
	var out []byte
	if parent != "" {
		m := yaml.NewMap()
		m.Set("parent_cvl_file", parent)
		enc, err := yaml.Encode(m)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	for _, r := range rules {
		if len(out) > 0 {
			out = append(out, []byte("---\n")...)
		}
		enc, err := FormatRule(r)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	return out, nil
}

// descriptionKeyword returns the type-specific description keyword, so
// formatted rules read like the paper's listings.
func descriptionKeyword(t RuleType) string {
	switch t {
	case TypeTree:
		return "config_description"
	case TypeSchema:
		return "config_schema_description"
	case TypePath:
		return "path_description"
	case TypeScript:
		return "script_description"
	case TypeComposite:
		return "composite_rule_description"
	default:
		return "description"
	}
}

// octalString renders a permission in the conventional octal digits
// ("644") that setOctal parses back.
func octalString(perm int) string {
	return strconv.FormatInt(int64(perm), 8)
}

func toAny(in []string) []any {
	out := make([]any, len(in))
	for i, s := range in {
		out[i] = s
	}
	return out
}
