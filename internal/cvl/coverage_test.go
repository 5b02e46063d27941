package cvl

import (
	"strings"
	"testing"
)

func TestKeywordGroupString(t *testing.T) {
	wants := map[KeywordGroup]string{
		GroupCommon:     "common",
		GroupTree:       "config_tree",
		GroupSchema:     "schema",
		GroupPath:       "path",
		GroupScript:     "script",
		GroupComposite:  "composite",
		KeywordGroup(0): "unknown",
	}
	for g, want := range wants {
		if got := g.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", g, got, want)
		}
	}
}

func TestCompositeRefsNestedCollect(t *testing.T) {
	expr, err := ParseComposite("!(a.x && b.y) || c.z")
	if err != nil {
		t.Fatal(err)
	}
	refs := expr.Refs()
	if len(refs) != 3 || refs[0].Entity != "a" || refs[2].Key != "z" {
		t.Errorf("refs = %+v", refs)
	}
}

func TestFormatDescriptionKeywordPerType(t *testing.T) {
	srcs := map[RuleType]string{
		TypeSchema:    "config_schema_name: s\nconfig_schema_description: d\nexpect_rows: \"1\"\n",
		TypePath:      "path_name: /p\npath_description: d\nownership: \"0:0\"\n",
		TypeScript:    "script_name: sc\nscript_description: d\nscript_feature: f\npreferred_value: [x]\n",
		TypeComposite: "composite_rule_name: c\ncomposite_rule_description: d\ncomposite_rule: a.b\n",
	}
	keywords := map[RuleType]string{
		TypeSchema:    "config_schema_description",
		TypePath:      "path_description",
		TypeScript:    "script_description",
		TypeComposite: "composite_rule_description",
	}
	for typ, src := range srcs {
		rf, err := ParseRuleFile("f.yaml", []byte(src))
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		out, err := FormatRule(rf.Rules[0])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(out), keywords[typ]+": d") {
			t.Errorf("%v formatted without %s:\n%s", typ, keywords[typ], out)
		}
	}
	if got := descriptionKeyword(RuleType(99)); got != "description" {
		t.Errorf("unknown type keyword = %q", got)
	}
}

func TestSetStringCoercions(t *testing.T) {
	// Numeric and boolean scalars coerce into string-typed keywords.
	r := parseOneRule(t, "config_name: x\nvalue_separator: \",\"\npreferred_value: [\"1\"]\nseverity: 2\n")
	if r.Severity != "2" {
		t.Errorf("severity = %q", r.Severity)
	}
	r = parseOneRule(t, "config_name: x\noccurrence: all\npreferred_value: [\"y\"]\nsuggested_action: true\n")
	if r.SuggestedAction != "true" {
		t.Errorf("suggested_action = %q", r.SuggestedAction)
	}
	// Float scalar.
	r = parseOneRule(t, "config_name: x\nseverity: 1.5\n")
	if r.Severity != "1.5" {
		t.Errorf("severity = %q", r.Severity)
	}
	// Mapping where a string is required errors.
	if _, err := ParseRuleFile("f.yaml", []byte("config_name: x\nseverity:\n  a: 1\n")); err == nil {
		t.Error("mapping severity accepted")
	}
	// Numeric list elements coerce too.
	r = parseOneRule(t, "config_name: x\npreferred_value: [1, 2.5, true]\n")
	if len(r.PreferredValue) != 3 || r.PreferredValue[0] != "1" || r.PreferredValue[1] != "2.5" || r.PreferredValue[2] != "true" {
		t.Errorf("coerced list = %v", r.PreferredValue)
	}
}

func TestManifestEntryLookupMiss(t *testing.T) {
	m := &Manifest{Entries: []*ManifestEntry{{Name: "a"}}}
	if _, ok := m.Entry("b"); ok {
		t.Error("missing entry found")
	}
}

func TestManifestNullEntityAndTags(t *testing.T) {
	if _, err := ParseManifest("m.yaml", []byte("nginx: null\n")); err == nil {
		t.Error("null entity accepted")
	}
	m, err := ParseManifest("m.yaml", []byte("nginx:\n  cvl_file: x\n  tags: [\"#a\"]\n  rule_type: config_tree\n"))
	if err != nil {
		t.Fatal(err)
	}
	e := m.Entries[0]
	if len(e.Tags) != 1 || e.RuleType != "config_tree" {
		t.Errorf("entry = %+v", e)
	}
	// No scan reads a manifest-level parent; the directive belongs in the
	// rule file, so the manifest rejects it rather than ignore it.
	_, err = ParseManifest("m.yaml", []byte("nginx:\n  cvl_file: x\n  parent_cvl_file: p.yaml\n"))
	if err == nil || !strings.Contains(err.Error(), "belongs in the rule file") {
		t.Errorf("manifest parent_cvl_file: err = %v", err)
	}
	if _, err := ParseManifest("m.yaml", []byte("nginx:\n  cvl_file: x\n  tags: 5\n")); err == nil {
		t.Error("bad tags accepted")
	}
}
