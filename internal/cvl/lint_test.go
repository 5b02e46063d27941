package cvl_test

// Rule files are linted by internal/analysis, which imports this package;
// the lint checks of single rule files therefore live in this external
// test package.

import (
	"math/rand"
	"strings"
	"testing"

	"configvalidator/internal/analysis"
	"configvalidator/internal/cvl"
)

func lint(src string) *analysis.Result {
	return analysis.AnalyzeFile("f.yaml", []byte(src), analysis.Options{})
}

func hasErrors(res *analysis.Result) bool {
	errs, _ := res.Counts()
	return errs > 0
}

func hasCode(res *analysis.Result, code string) bool {
	for _, d := range res.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestLintLevelAndDiagnosticString(t *testing.T) {
	if analysis.SevError.String() != "error" || analysis.SevWarning.String() != "warning" {
		t.Error("lint level names")
	}
	d := analysis.Diagnostic{Code: "CVL501", Severity: analysis.SevWarning, File: "f.yaml", Line: 1, Col: 1, Rule: "x", Msg: "m"}
	if got := d.String(); got != `f.yaml:1:1: warning CVL501: rule "x": m` {
		t.Errorf("diagnostic = %q", got)
	}
	d2 := analysis.Diagnostic{Code: "CVL001", Severity: analysis.SevError, File: "f.yaml", Line: 2, Col: 3, Msg: "m"}
	if got := d2.String(); got != "f.yaml:2:3: error CVL001: m" {
		t.Errorf("diagnostic without rule = %q", got)
	}
}

func TestLintSequenceAndScalarDocuments(t *testing.T) {
	// Sequence with a non-mapping element.
	if res := lint("- config_name: a\n- just_a_string\n"); !hasErrors(res) || !hasCode(res, analysis.CodeNotMapping) {
		t.Errorf("non-mapping sequence element not reported: %v", res.Diagnostics)
	}
	// A scalar document.
	if res := lint("scalar-doc\n"); !hasErrors(res) || !hasCode(res, analysis.CodeNotMapping) {
		t.Errorf("scalar document not reported: %v", res.Diagnostics)
	}
	// A parent-only document must not error (a lone file cannot resolve
	// its parent), but it must not pass silently either: the unresolved
	// parent is a warning.
	res := lint("parent_cvl_file: base.yaml\n")
	if hasErrors(res) {
		t.Errorf("parent directive errored: %v", res.Diagnostics)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Code != analysis.CodeMissingParent ||
		res.Diagnostics[0].Severity != analysis.SevWarning || !strings.Contains(res.Diagnostics[0].Msg, "base.yaml") {
		t.Errorf("unresolved parent not warned: %v", res.Diagnostics)
	}
	// A non-string parent is an error.
	if res := lint("parent_cvl_file: [a, b]\n"); !hasErrors(res) || !hasCode(res, analysis.CodeParentNotString) {
		t.Errorf("non-string parent not reported: %v", res.Diagnostics)
	}
}

func TestLintCleanListing(t *testing.T) {
	if res := lint(cvl.Listings[1]); hasErrors(res) {
		t.Errorf("listing 2 has lint errors: %v", res.Diagnostics)
	}
}

func TestLintFindings(t *testing.T) {
	res := lint("config_name: NoDescriptions\npreferred_value: [x]\n")
	if hasErrors(res) {
		t.Fatalf("unexpected errors: %v", res.Diagnostics)
	}
	for _, want := range []string{analysis.CodeMissingDescription, analysis.CodeMissingTags, analysis.CodeImplicitMatch} {
		if !hasCode(res, want) {
			t.Errorf("lint missing %s in %v", want, res.Diagnostics)
		}
	}
}

func TestLintErrors(t *testing.T) {
	for _, tt := range []struct{ src, code string }{
		{"config_name: [not scalar\n", analysis.CodeSyntax},
		{"config_nme: x\n", analysis.CodeUnknownKeyword},
		{"config_name: a\n---\nconfig_name: a\n", analysis.CodeDuplicateRule},
	} {
		if res := lint(tt.src); !hasErrors(res) || !hasCode(res, tt.code) {
			t.Errorf("%q: want %s, got %v", tt.src, tt.code, res.Diagnostics)
		}
	}
}

func TestListing6CVLRuleLineCount(t *testing.T) {
	// The paper reports the PermitRootLogin rule takes 10 lines in CVL
	// (Listing 6). Reproduce that rule and count.
	rule := strings.Join([]string{
		`config_name: PermitRootLogin`,
		`tags: ["#security","#cis", "#cisubuntu14.04_5.2.8"]`,
		`config_path: [""]`,
		`config_description: "Enable root login."`,
		`file_context: ["sshd_config"]`,
		`preferred_value: [ "no" ]`,
		`preferred_value_match: substr,all`,
		`not_present_description: "PermitRootLogin is not present. It is enabled by default."`,
		`not_matched_preferred_value_description: "PermitRootLogin is present but it is enabled."`,
		`matched_description: "Root login is disabled."`,
	}, "\n")
	if got := len(strings.Split(rule, "\n")); got != 10 {
		t.Errorf("CVL encoding = %d lines, paper reports 10", got)
	}
	rf, err := cvl.ParseRuleFile("f.yaml", []byte(rule))
	if err != nil || len(rf.Rules) != 1 {
		t.Fatalf("parse: %v, %+v", err, rf)
	}
	if r := rf.Rules[0]; r.Name != "PermitRootLogin" || r.Type != cvl.TypeTree {
		t.Errorf("rule = %+v", r)
	}
	if res := lint(rule); hasErrors(res) {
		t.Errorf("listing 6 rule has errors: %v", res.Diagnostics)
	}
}

// TestRuleParserNoPanic mutates valid rule documents.
func TestRuleParserNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	alphabet := []byte("abc:-[]{}#'\"\n\t _,")
	for i := 0; i < 1500; i++ {
		input := []byte(cvl.Listings[r.Intn(len(cvl.Listings))])
		for j := 0; j < 1+r.Intn(6); j++ {
			pos := r.Intn(len(input))
			input[pos] = alphabet[r.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on mutated rule: %v\n%s", p, input)
				}
			}()
			_, _ = cvl.ParseRuleFile("fuzz.yaml", input)
			_ = analysis.AnalyzeFile("fuzz.yaml", input, analysis.Options{})
		}()
	}
}

func BenchmarkLint(b *testing.B) {
	content := []byte(cvl.Listings[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := analysis.AnalyzeFile("r.yaml", content, analysis.Options{}); hasErrors(res) {
			b.Fatal(res.Diagnostics)
		}
	}
}
