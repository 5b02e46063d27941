package cvl

import "sort"

// KeywordGroup classifies where a CVL keyword may appear.
type KeywordGroup int

// Keyword groups, following the paper's breakdown: 19 keywords common
// across rules and entity description, plus per-rule-type keywords
// (tree 9, schema 6, path 6, script 3, composite 3) — 46 in total.
const (
	GroupCommon KeywordGroup = iota + 1
	GroupTree
	GroupSchema
	GroupPath
	GroupScript
	GroupComposite
)

// String returns the group name.
func (g KeywordGroup) String() string {
	switch g {
	case GroupCommon:
		return "common"
	case GroupTree:
		return "config_tree"
	case GroupSchema:
		return "schema"
	case GroupPath:
		return "path"
	case GroupScript:
		return "script"
	case GroupComposite:
		return "composite"
	default:
		return "unknown"
	}
}

// Keywords is the complete CVL vocabulary. ConfigValidator interprets these
// keys during rule execution; anything else in a rule file is a lint error.
var Keywords = map[string]KeywordGroup{
	// Common across rules and entity description (19).
	"enabled":                   GroupCommon, // manifest: entity on/off switch
	"config_search_paths":       GroupCommon, // manifest: where to look for config files
	"cvl_file":                  GroupCommon, // manifest: entity rule file
	"parent_cvl_file":           GroupCommon, // rule file: inheritance parent
	"rule_type":                 GroupCommon, // explicit rule type declaration
	"tags":                      GroupCommon, // compliance/filter tags
	"preferred_value":           GroupCommon, // values to match
	"non_preferred_value":       GroupCommon, // values that must not match
	"preferred_value_match":     GroupCommon,
	"non_preferred_value_match": GroupCommon,
	"matched_description":       GroupCommon, // output on success
	"not_matched_preferred_value_description": GroupCommon, // output on failure
	"not_present_description":                 GroupCommon, // output when absent
	"description":                             GroupCommon, // generic rule description
	"severity":                                GroupCommon, // low / medium / high
	"suggested_action":                        GroupCommon, // remediation hint
	"disabled":                                GroupCommon, // per-rule disable (inheritance)
	"override":                                GroupCommon, // marks intentional parent override
	"applies_to":                              GroupCommon, // entity-type filter

	// Config tree rules (9).
	"config_name":           GroupTree,
	"config_description":    GroupTree,
	"config_path":           GroupTree,
	"file_context":          GroupTree,
	"require_other_configs": GroupTree,
	"value_separator":       GroupTree,
	"case_insensitive":      GroupTree,
	"occurrence":            GroupTree,
	"absent_pass":           GroupTree,

	// Schema rules (6).
	"config_schema_name":        GroupSchema,
	"config_schema_description": GroupSchema,
	"query_constraints":         GroupSchema,
	"query_constraints_value":   GroupSchema,
	"query_columns":             GroupSchema,
	"expect_rows":               GroupSchema,

	// Path rules (6).
	"path_name":        GroupPath,
	"path_description": GroupPath,
	"ownership":        GroupPath,
	"permission":       GroupPath,
	"max_permission":   GroupPath,
	"exists":           GroupPath,

	// Script rules (3).
	"script_name":        GroupScript,
	"script_feature":     GroupScript,
	"script_description": GroupScript,

	// Composite rules (3).
	"composite_rule_name":        GroupComposite,
	"composite_rule_description": GroupComposite,
	"composite_rule":             GroupComposite,
}

// keywordList is the vocabulary in sorted order, for suggestions.
var keywordList = func() []string {
	out := make([]string, 0, len(Keywords))
	for kw := range Keywords {
		out = append(out, kw)
	}
	sort.Strings(out)
	return out
}()

// KeywordCount returns how many keywords belong to the group; pass 0 for
// the total.
func KeywordCount(group KeywordGroup) int {
	if group == 0 {
		return len(Keywords)
	}
	n := 0
	for _, g := range Keywords {
		if g == group {
			n++
		}
	}
	return n
}

// nameKeywords pairs each rule type with its discriminating name keyword.
var nameKeywords = [...]struct {
	typ RuleType
	kw  string
}{
	{TypeTree, "config_name"},
	{TypeSchema, "config_schema_name"},
	{TypePath, "path_name"},
	{TypeScript, "script_name"},
	{TypeComposite, "composite_rule_name"},
}

// nameKeyword returns the rule type's name keyword, or "".
func nameKeyword(t RuleType) string {
	for _, nk := range nameKeywords {
		if nk.typ == t {
			return nk.kw
		}
	}
	return ""
}

// nameKeywordType returns the rule type whose name keyword is key, or 0.
func nameKeywordType(key string) RuleType {
	for _, nk := range nameKeywords {
		if nk.kw == key {
			return nk.typ
		}
	}
	return 0
}

// typeGroup returns the keyword group specific to a rule type, or 0.
func typeGroup(t RuleType) KeywordGroup {
	switch t {
	case TypeTree:
		return GroupTree
	case TypeSchema:
		return GroupSchema
	case TypePath:
		return GroupPath
	case TypeScript:
		return GroupScript
	case TypeComposite:
		return GroupComposite
	}
	return 0
}
