package analysis

import (
	"strings"
	"testing"
)

// cleanRule is a fully decorated tree rule that produces no diagnostics.
const cleanRule = `config_name: ssl_protocols
description: "TLS versions."
tags: ["#cis"]
config_path: [""]
preferred_value: ["TLSv1.2"]
preferred_value_match: exact,any
matched_description: "ok"
not_matched_preferred_value_description: "bad"
not_present_description: "missing"
`

func analyzeOne(t *testing.T, content string) *Result {
	t.Helper()
	p := NewProject()
	p.AddRuleFile("f.yaml", []byte(content))
	return Analyze(p, Options{})
}

func codes(res *Result) []string {
	out := make([]string, 0, len(res.Diagnostics))
	for _, d := range res.Diagnostics {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(res *Result, code string) bool {
	for _, d := range res.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

func findCode(t *testing.T, res *Result, code string) Diagnostic {
	t.Helper()
	for _, d := range res.Diagnostics {
		if d.Code == code {
			return d
		}
	}
	t.Fatalf("no %s diagnostic in %v", code, res.Diagnostics)
	return Diagnostic{}
}

func TestCleanFileNoDiagnostics(t *testing.T) {
	res := analyzeOne(t, cleanRule)
	if len(res.Diagnostics) != 0 {
		t.Errorf("clean file diagnostics: %v", res.Diagnostics)
	}
	if res.FilesChecked != 1 {
		t.Errorf("files checked = %d", res.FilesChecked)
	}
}

// TestEndToEndProject is the acceptance pin: a fixture project with an
// inheritance cycle, an undefined composite reference, and a shadowed
// rule yields exactly the expected diagnostic codes at the expected
// file:line positions.
func TestEndToEndProject(t *testing.T) {
	p := NewProject()
	p.AddRuleFile("base.yaml", []byte(cleanRule))
	p.AddRuleFile("child.yaml", []byte(`parent_cvl_file: base.yaml
---
config_name: ssl_protocols
description: "Stricter TLS versions."
tags: ["#cis"]
config_path: [""]
preferred_value: ["TLSv1.3"]
preferred_value_match: exact,any
matched_description: "ok"
not_matched_preferred_value_description: "bad"
not_present_description: "missing"
---
composite_rule_name: agg
composite_rule_description: "Aggregate check."
tags: ["#cis"]
matched_description: "ok"
composite_rule: nosuch.rule && web.ssl_protocols
`))
	p.AddRuleFile("cyc1.yaml", []byte(`parent_cvl_file: cyc2.yaml
---
config_name: a
description: "d"
tags: ["#cis"]
matched_description: "ok"
not_present_description: "missing"
`))
	p.AddRuleFile("cyc2.yaml", []byte("parent_cvl_file: cyc1.yaml\n"))
	p.AddManifest("manifest.yaml", []byte(`web:
  enabled: True
  cvl_file: child.yaml
cyc:
  enabled: True
  cvl_file: cyc1.yaml
`))
	res := Analyze(p, Options{})
	want := []struct {
		code string
		file string
		line int
	}{
		{CodeShadowed, "child.yaml", 3},
		{CodeUnknownEntity, "child.yaml", 17},
		{CodeCycle, "cyc2.yaml", 1},
	}
	if len(res.Diagnostics) != len(want) {
		t.Fatalf("diagnostics = %v, want exactly %d: %v", res.Diagnostics, len(want), want)
	}
	for i, w := range want {
		d := res.Diagnostics[i]
		if d.Code != w.code || d.File != w.file || d.Line != w.line {
			t.Errorf("diag %d = %s:%d %s (%s), want %s:%d %s", i, d.File, d.Line, d.Code, d.Msg, w.file, w.line, w.code)
		}
	}
	// The shadow diagnostic names the parent file; the composite one
	// suggests the closest entity.
	if d := findCode(t, res, CodeShadowed); !strings.Contains(d.Msg, "base.yaml") {
		t.Errorf("shadow msg = %q", d.Msg)
	}
	if d := findCode(t, res, CodeUnknownEntity); !strings.Contains(d.Msg, "nosuch") {
		t.Errorf("unknown entity msg = %q", d.Msg)
	}
}

func TestSyntaxErrorPositioned(t *testing.T) {
	res := analyzeOne(t, "config_name: x\n  stray: indent\n")
	d := findCode(t, res, CodeSyntax)
	if d.Line != 2 {
		t.Errorf("syntax pos = %d:%d", d.Line, d.Col)
	}
}

func TestUnknownKeywordPositionAndSuggestion(t *testing.T) {
	res := analyzeOne(t, "config_name: x\nconfig_pth: [a]\n")
	d := findCode(t, res, CodeUnknownKeyword)
	if d.Line != 2 || d.Col != 1 {
		t.Errorf("unknown keyword pos = %d:%d", d.Line, d.Col)
	}
	if !strings.Contains(d.Msg, `"config_path"`) {
		t.Errorf("no did-you-mean: %q", d.Msg)
	}
	if d.Rule != "x" {
		t.Errorf("rule attribution = %q", d.Rule)
	}
}

func TestWrongGroupKeyword(t *testing.T) {
	res := analyzeOne(t, "config_name: x\nquery_constraints: q\n")
	d := findCode(t, res, CodeWrongGroup)
	if d.Line != 2 {
		t.Errorf("wrong group pos = %d:%d", d.Line, d.Col)
	}
	if !strings.Contains(d.Msg, "schema") {
		t.Errorf("msg = %q", d.Msg)
	}
}

func TestInvalidRuleAttributedToKeyword(t *testing.T) {
	res := analyzeOne(t, "config_name: x\noccurrence: sometimes\n")
	d := findCode(t, res, CodeInvalidRule)
	if d.Line != 2 {
		t.Errorf("invalid rule pos = %d:%d (want the occurrence key)", d.Line, d.Col)
	}
}

func TestDuplicateRuleInFile(t *testing.T) {
	content := cleanRule + "---\n" + cleanRule
	res := analyzeOne(t, content)
	d := findCode(t, res, CodeDuplicateRule)
	if d.Line != 11 {
		t.Errorf("duplicate pos = %d", d.Line)
	}
	if !strings.Contains(d.Msg, "line 1") {
		t.Errorf("msg = %q", d.Msg)
	}
}

func TestParentDirectiveErrors(t *testing.T) {
	res := analyzeOne(t, "parent_cvl_file: [a]\n")
	if !hasCode(res, CodeParentNotString) {
		t.Errorf("non-string parent: %v", codes(res))
	}
	p := NewProject()
	p.AddRuleFile("f.yaml", []byte("parent_cvl_file: a.yaml\n---\nparent_cvl_file: b.yaml\n"))
	p.AddRuleFile("a.yaml", []byte(cleanRule))
	res = Analyze(p, Options{})
	d := findCode(t, res, CodeDuplicateParent)
	if d.Line != 3 {
		t.Errorf("duplicate parent pos = %d", d.Line)
	}
}

func TestMissingParent(t *testing.T) {
	res := analyzeOne(t, "parent_cvl_file: gone.yaml\n")
	d := findCode(t, res, CodeMissingParent)
	if d.Severity != SevError || d.Line != 1 {
		t.Errorf("missing parent = %+v", d)
	}
	// ExternalParents downgrades to warning (single-file lint mode).
	res = AnalyzeFile("f.yaml", []byte("parent_cvl_file: gone.yaml\n"), Options{})
	d = findCode(t, res, CodeMissingParent)
	if d.Severity != SevWarning {
		t.Errorf("external parent severity = %v", d.Severity)
	}
	if errs, _ := res.Counts(); errs > 0 {
		t.Errorf("single-file parent ref must not be an error: %v", res.Diagnostics)
	}
}

func TestSelfCycle(t *testing.T) {
	p := NewProject()
	p.AddRuleFile("self.yaml", []byte("parent_cvl_file: self.yaml\n"))
	res := Analyze(p, Options{})
	if !hasCode(res, CodeCycle) {
		t.Errorf("self cycle: %v", codes(res))
	}
}

func TestDeadOverrideAndDeadDisabled(t *testing.T) {
	p := NewProject()
	p.AddRuleFile("base.yaml", []byte(cleanRule))
	child := `parent_cvl_file: base.yaml
---
config_name: no_such_parent_rule
description: "d"
tags: ["#cis"]
override: True
matched_description: "ok"
not_present_description: "m"
---
config_name: also_not_in_parent
disabled: True
`
	p.AddRuleFile("child.yaml", []byte(child))
	res := Analyze(p, Options{})
	if d := findCode(t, res, CodeDeadOverride); d.Line != 3 {
		t.Errorf("dead override pos = %d", d.Line)
	}
	if d := findCode(t, res, CodeDeadDisabled); d.Line != 10 {
		t.Errorf("dead disabled pos = %d", d.Line)
	}
}

func TestOverrideSuppressesShadowWarning(t *testing.T) {
	p := NewProject()
	p.AddRuleFile("base.yaml", []byte(cleanRule))
	child := "parent_cvl_file: base.yaml\n---\n" +
		strings.Replace(cleanRule, "config_path: [\"\"]\n", "config_path: [\"\"]\noverride: True\n", 1)
	p.AddRuleFile("child.yaml", []byte(child))
	res := Analyze(p, Options{})
	if hasCode(res, CodeShadowed) {
		t.Errorf("override still reported as shadow: %v", res.Diagnostics)
	}
}

func TestDisableInheritedRuleClean(t *testing.T) {
	p := NewProject()
	p.AddRuleFile("base.yaml", []byte(cleanRule))
	p.AddRuleFile("child.yaml", []byte("parent_cvl_file: base.yaml\n---\nconfig_name: ssl_protocols\ndisabled: True\n"))
	res := Analyze(p, Options{})
	if len(res.Diagnostics) != 0 {
		t.Errorf("legit disable flagged: %v", res.Diagnostics)
	}
}

func TestBadRegex(t *testing.T) {
	content := strings.Replace(cleanRule,
		"preferred_value: [\"TLSv1.2\"]\npreferred_value_match: exact,any\n",
		"preferred_value: [\"(unclosed\"]\npreferred_value_match: regex,any\n", 1)
	res := analyzeOne(t, content)
	d := findCode(t, res, CodeBadRegex)
	if d.Line != 5 || d.Severity != SevError {
		t.Errorf("bad regex = %+v", d)
	}
}

func TestContradictoryValues(t *testing.T) {
	content := strings.Replace(cleanRule, "preferred_value: [\"TLSv1.2\"]\n",
		"preferred_value: [\"TLSv1.2\"]\nnon_preferred_value: [\"TLSv1.2\"]\nnon_preferred_value_match: exact,any\n", 1)
	res := analyzeOne(t, content)
	if d := findCode(t, res, CodeContradiction); d.Severity != SevError {
		t.Errorf("contradiction = %+v", d)
	}
	// Regex non-preferred values are not compared literally.
	content = strings.Replace(cleanRule, "preferred_value: [\"TLSv1.2\"]\n",
		"preferred_value: [\"TLSv1.2\"]\nnon_preferred_value: [\"TLSv1.2\"]\nnon_preferred_value_match: regex,any\n", 1)
	res = analyzeOne(t, content)
	if hasCode(res, CodeContradiction) {
		t.Errorf("regex matcher misreported as contradiction: %v", res.Diagnostics)
	}
	// The lists are compared as the engine matches: with case folding,
	// and an all-match needs every non-preferred value to match.
	content = strings.Replace(cleanRule, "preferred_value: [\"TLSv1.2\"]\n",
		"preferred_value: [\"TLSv1.2\"]\nnon_preferred_value: [\"tlsv1.2\"]\nnon_preferred_value_match: exact,any\ncase_insensitive: true\n", 1)
	if res = analyzeOne(t, content); !hasCode(res, CodeContradiction) {
		t.Errorf("case-insensitive contradiction not reported: %v", res.Diagnostics)
	}
	content = strings.Replace(cleanRule, "preferred_value: [\"TLSv1.2\"]\n",
		"preferred_value: [\"TLSv1.2\"]\nnon_preferred_value: [\"TLSv1.2\", \"SSLv3\"]\nnon_preferred_value_match: exact,all\n", 1)
	if res = analyzeOne(t, content); hasCode(res, CodeContradiction) {
		t.Errorf("TLSv1.2 passes an all-match against two values, yet: %v", res.Diagnostics)
	}
}

func TestMatchSpecWithoutValues(t *testing.T) {
	res := analyzeOne(t, `config_name: x
description: "d"
tags: ["#cis"]
matched_description: "ok"
not_present_description: "m"
non_preferred_value_match: exact,any
`)
	d := findCode(t, res, CodeMatchWithoutVal)
	if d.Line != 6 {
		t.Errorf("match-without-values pos = %d", d.Line)
	}
}

func TestRelativePathRule(t *testing.T) {
	res := analyzeOne(t, "path_name: etc/passwd\npath_description: \"d\"\ntags: [\"#cis\"]\nexists: True\n")
	if !hasCode(res, CodeRelativePath) {
		t.Errorf("relative path not flagged: %v", codes(res))
	}
}

func TestStyleWarningsMirrorLint(t *testing.T) {
	res := analyzeOne(t, "config_name: bare\n")
	for _, code := range []string{CodeMissingDescription, CodeMissingTags, CodeMissingOutputDesc} {
		if !hasCode(res, code) {
			t.Errorf("missing %s in %v", code, codes(res))
		}
	}
	if errs, _ := res.Counts(); errs > 0 {
		t.Errorf("style findings must be warnings: %v", res.Diagnostics)
	}
	res = analyzeOne(t, strings.Replace(cleanRule, "preferred_value_match: exact,any\n", "", 1))
	if !hasCode(res, CodeImplicitMatch) {
		t.Errorf("implicit match not flagged: %v", codes(res))
	}
}

func TestManifestChecks(t *testing.T) {
	p := NewProject()
	p.AddManifest("manifest.yaml", []byte(`web:
  enabled: True
  cvl_fle: web.yaml
db:
  enabled: True
`))
	p.AddRuleFile("web.yaml", []byte(cleanRule))
	res := Analyze(p, Options{})
	var sawUnknownKey, sawMissingCVL bool
	for _, d := range res.Diagnostics {
		if d.Code == CodeBadManifest {
			if strings.Contains(d.Msg, "cvl_fle") {
				sawUnknownKey = true
				if !strings.Contains(d.Msg, `"cvl_file"`) {
					t.Errorf("no suggestion: %q", d.Msg)
				}
				if d.Line != 3 {
					t.Errorf("unknown key pos = %d", d.Line)
				}
			}
			if strings.Contains(d.Msg, "missing cvl_file") {
				sawMissingCVL = true
			}
		}
	}
	if !sawUnknownKey || !sawMissingCVL {
		t.Errorf("manifest diagnostics = %v", res.Diagnostics)
	}
	// web.yaml is unreachable: the typoed key means no manifest refers to it.
	if !hasCode(res, CodeUnreachableFile) {
		t.Errorf("unreachable file not flagged: %v", codes(res))
	}
}

func TestManifestMissingRuleFile(t *testing.T) {
	p := NewProject()
	p.AddManifest("manifest.yaml", []byte("web:\n  cvl_file: gone.yaml\n"))
	res := Analyze(p, Options{})
	d := findCode(t, res, CodeMissingRuleFile)
	if d.Line != 2 || d.Severity != SevError {
		t.Errorf("missing rule file = %+v", d)
	}
}

func TestUselessTagFilter(t *testing.T) {
	p := NewProject()
	p.AddManifest("manifest.yaml", []byte("web:\n  cvl_file: web.yaml\n  tags: [\"#nosuchtag\"]\n"))
	p.AddRuleFile("web.yaml", []byte(cleanRule))
	res := Analyze(p, Options{})
	d := findCode(t, res, CodeUselessTagFilter)
	if d.Line != 3 || !strings.Contains(d.Msg, "#nosuchtag") {
		t.Errorf("useless tag = %+v", d)
	}
}

func TestDuplicateEntityAcrossManifests(t *testing.T) {
	p := NewProject()
	p.AddManifest("m1.yaml", []byte("web:\n  cvl_file: web.yaml\n"))
	p.AddManifest("m2.yaml", []byte("web:\n  cvl_file: web.yaml\n"))
	p.AddRuleFile("web.yaml", []byte(cleanRule))
	res := Analyze(p, Options{})
	d := findCode(t, res, CodeDuplicateEntity)
	if d.File != "m2.yaml" || !strings.Contains(d.Msg, "m1.yaml") {
		t.Errorf("duplicate entity = %+v", d)
	}
}

func TestUndefinedCompositeRuleRefWarns(t *testing.T) {
	p := NewProject()
	p.AddManifest("manifest.yaml", []byte("web:\n  cvl_file: web.yaml\n"))
	p.AddRuleFile("web.yaml", []byte(cleanRule))
	p.AddRuleFile("agg.yaml", []byte(`composite_rule_name: agg
composite_rule_description: "d"
tags: ["#cis"]
matched_description: "ok"
composite_rule: web.nosuchrule
`))
	res := Analyze(p, Options{})
	d := findCode(t, res, CodeUnknownRuleRef)
	if d.Severity != SevWarning || !strings.Contains(d.Msg, "nosuchrule") {
		t.Errorf("unknown rule ref = %+v", d)
	}
	// Value refs (CONFIGPATH...VALUE) read config keys and are not checked.
	p2 := NewProject()
	p2.AddManifest("manifest.yaml", []byte("web:\n  cvl_file: web.yaml\n"))
	p2.AddRuleFile("web.yaml", []byte(cleanRule))
	p2.AddRuleFile("agg.yaml", []byte(`composite_rule_name: agg
composite_rule_description: "d"
tags: ["#cis"]
matched_description: "ok"
composite_rule: web.some-key.CONFIGPATH=[main].VALUE == "x"
`))
	res = Analyze(p2, Options{})
	if hasCode(res, CodeUnknownRuleRef) || hasCode(res, CodeUnknownEntity) {
		t.Errorf("value ref misreported: %v", res.Diagnostics)
	}
}

// A bare composite reference binds to a rule result under the engine's
// name equivalence, so the dotted sysctl spelling of a slashed rule name
// is no unknown rule.
func TestCompositeRefUsesEngineNameEquivalence(t *testing.T) {
	p := NewProject()
	p.AddManifest("manifest.yaml", []byte("sysctl:\n  cvl_file: sysctl.yaml\nstack:\n  cvl_file: stack.yaml\n"))
	p.AddRuleFile("sysctl.yaml", []byte(strings.Replace(cleanRule, "ssl_protocols", "net/ipv4/ip_forward", 1)))
	p.AddRuleFile("stack.yaml", []byte(`composite_rule_name: stack
composite_rule_description: "d"
tags: ["#cis"]
matched_description: "ok"
composite_rule: sysctl.net.ipv4.ip_forward && sysctl.nosuchrule
`))
	res := Analyze(p, Options{})
	var refs []string
	for _, d := range res.Diagnostics {
		if d.Code == CodeUnknownRuleRef {
			refs = append(refs, d.Msg)
		}
	}
	if len(refs) != 1 || !strings.Contains(refs[0], `"nosuchrule"`) {
		t.Errorf("CVL202 findings = %q, want one for nosuchrule", refs)
	}
}

// TestNestedParentResolvesAgainstManifest: the loader reads every file of
// a manifest entity's chain relative to the manifest's directory, so a
// nested rule file's parent_cvl_file resolves from there, not from the
// rule file's own directory.
func TestNestedParentResolvesAgainstManifest(t *testing.T) {
	for _, tc := range []struct {
		parent string
		want   string // "" for a clean project
	}{
		{"base.yaml", CodeMissingParent},
		{"rules/base.yaml", ""},
	} {
		p := NewProject()
		p.AddManifest("proj/manifest.yaml", []byte("host:\n  cvl_file: rules/child.yaml\n"))
		p.AddRuleFile("proj/rules/child.yaml", []byte("parent_cvl_file: "+tc.parent+"\n---\n"+
			strings.Replace(cleanRule, "ssl_protocols", "listen", 1)))
		p.AddRuleFile("proj/rules/base.yaml", []byte(cleanRule))
		res := Analyze(p, Options{})
		if tc.want == "" {
			if len(res.Diagnostics) != 0 {
				t.Errorf("parent %q: %v", tc.parent, res.Diagnostics)
			}
			continue
		}
		d := findCode(t, res, tc.want)
		if d.File != "proj/rules/child.yaml" || d.Line != 1 || d.Severity != SevError {
			t.Errorf("parent %q: %s", tc.parent, d)
		}
	}
}

// TestManifestParentCVLFileChecked: no scan reads a manifest-level
// parent_cvl_file, so the analyzer rejects the key (CVL301) instead of
// following it — following it would count the named file as reachable and
// silence the CVL303 that tells the author its rules never run.
func TestManifestParentCVLFileChecked(t *testing.T) {
	for _, parentPresent := range []bool{false, true} {
		p := NewProject()
		p.AddManifest("manifest.yaml", []byte("web:\n  cvl_file: web.yaml\n  parent_cvl_file: base.yaml\n"))
		p.AddRuleFile("web.yaml", []byte(cleanRule))
		if parentPresent {
			p.AddRuleFile("base.yaml", []byte(cleanRule))
		}
		res := Analyze(p, Options{})
		d := findCode(t, res, CodeBadManifest)
		if d.File != "manifest.yaml" || d.Line != 3 || !strings.Contains(d.Msg, "parent_cvl_file") {
			t.Errorf("manifest parent_cvl_file = %+v", d)
		}
		if hasCode(res, CodeMissingRuleFile) {
			t.Errorf("the rejected key is still followed as a reference: %v", res.Diagnostics)
		}
		if parentPresent {
			if d := findCode(t, res, CodeUnreachableFile); d.File != "base.yaml" {
				t.Errorf("unreachable = %+v", d)
			}
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: "CVL003", Severity: SevError, File: "f.yaml", Line: 2, Col: 1, Rule: "x", Msg: "unknown keyword"}
	want := `f.yaml:2:1: error CVL003: rule "x": unknown keyword`
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}

func TestCatalogCoversEveryReportedCode(t *testing.T) {
	known := map[string]bool{}
	for _, c := range Catalog() {
		if known[c.Code] {
			t.Errorf("catalog lists %s twice", c.Code)
		}
		known[c.Code] = true
	}
	// severityOf falls back to error for unknown codes; every code the
	// analyzer can emit must be cataloged so SARIF rule indexes line up.
	for _, code := range []string{
		CodeSyntax, CodeNotMapping, CodeUnknownKeyword, CodeWrongGroup, CodeInvalidRule,
		CodeDuplicateRule, CodeDuplicateParent, CodeParentNotString, CodeMissingParent,
		CodeCycle, CodeDeadOverride, CodeShadowed, CodeDeadDisabled, CodeUnknownEntity,
		CodeUnknownRuleRef, CodeBadRegex, CodeRelativePath, CodeContradiction,
		CodeMatchWithoutVal, CodeBadManifest, CodeMissingRuleFile, CodeUnreachableFile,
		CodeUselessTagFilter, CodeDuplicateEntity, CodeMissingDescription, CodeMissingTags,
		CodeMissingOutputDesc, CodeImplicitMatch,
	} {
		if !known[code] {
			t.Errorf("code %s missing from catalog", code)
		}
	}
}
