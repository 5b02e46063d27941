package analysis

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/cvlgen"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/rules"
)

// TestBuiltinRuleLibraryClean analyzes the entire embedded rule library —
// manifest plus every component rule file — and requires zero error-level
// diagnostics. Warnings are tolerated but printed so regressions are
// visible in -v output.
func TestBuiltinRuleLibraryClean(t *testing.T) {
	files := rules.Files()
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	p := NewProject()
	for _, path := range paths {
		if IsManifestPath(path) {
			p.AddManifest(path, []byte(files[path]))
		} else {
			p.AddRuleFile(path, []byte(files[path]))
		}
	}
	res := Analyze(p, Options{})
	if res.FilesChecked != len(paths) {
		t.Errorf("files checked = %d, want %d", res.FilesChecked, len(paths))
	}
	for _, d := range res.Diagnostics {
		if d.Severity == SevError {
			t.Errorf("builtin library: %s", d)
		} else {
			t.Logf("builtin library warning: %s", d)
		}
	}
}

// TestGeneratedRulesClean runs the rule generator over every recognizable
// configuration file in the synthetic fixtures and requires the formatted
// output to analyze with zero error-level diagnostics: cvlgen must never
// emit a rule the analyzer rejects.
func TestGeneratedRulesClean(t *testing.T) {
	host, _ := fixtures.UbuntuHost("corpus-host", fixtures.Profile{Seed: 7})
	generated := 0
	for _, path := range host.Files() {
		content, err := host.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		ruleSet, err := cvlgen.FromFile(nil, path, content, cvlgen.Options{})
		if err != nil {
			// Not every fixture file has a lens; those are out of scope.
			continue
		}
		if len(ruleSet) == 0 {
			continue
		}
		generated++
		rendered, err := cvl.FormatRuleFile("", ruleSet)
		if err != nil {
			t.Fatalf("format rules for %s: %v", path, err)
		}
		res := AnalyzeFile(fileNameFor(path), rendered, Options{})
		for _, d := range res.Diagnostics {
			if d.Severity == SevError {
				t.Errorf("generated rules for %s: %s", path, d)
			}
		}
	}
	if generated == 0 {
		t.Fatal("no fixture config file produced rules; corpus test is vacuous")
	}
}

func fileNameFor(configPath string) string {
	name := strings.Trim(strings.ReplaceAll(configPath, "/", "_"), "_")
	return name + ".yaml"
}

// TestSemanticCorpus runs the golden corpus under internal/fixtures/sem:
// one fixture project per CVL4xx code that must report exactly that code,
// plus clean projects that must report no CVL4xx at all (no false
// positives on legitimate overrides, regex envelopes, composites).
func TestSemanticCorpus(t *testing.T) {
	cases := []struct {
		dir  string
		want []string // exact set of expected CVL4xx codes
	}{
		{"cvl401_unsat", []string{"CVL401"}},
		{"cvl402_subsumed", []string{"CVL402"}},
		{"cvl403_port", []string{"CVL403"}},
		{"cvl404_tautology", []string{"CVL404"}},
		{"cvl405_contradiction", []string{"CVL405"}},
		{"cvl406_severity", []string{"CVL406"}},
		{"cvl407_type", []string{"CVL407"}},
		{"cvl205_inherit", nil}, // cross-file CVL205, asserted below
		{"clean", nil},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			p := NewProject()
			if err := p.AddDir(filepath.Join("..", "fixtures", "sem", tc.dir)); err != nil {
				t.Fatal(err)
			}
			res := Analyze(p, Options{})
			got := map[string]bool{}
			for _, d := range res.Diagnostics {
				if strings.HasPrefix(d.Code, "CVL4") {
					got[d.Code] = true
				}
			}
			want := map[string]bool{}
			for _, c := range tc.want {
				want[c] = true
			}
			for c := range want {
				if !got[c] {
					t.Errorf("expected %s, not reported; diagnostics:\n%s", c, renderAll(res.Diagnostics))
				}
			}
			for c := range got {
				if !want[c] {
					t.Errorf("unexpected %s; diagnostics:\n%s", c, renderAll(res.Diagnostics))
				}
			}

			switch tc.dir {
			case "cvl403_port":
				// Acceptance shape: positions in both files.
				assertCrossFile(t, res.Diagnostics, "CVL403", "child.yaml", "base.yaml")
			case "cvl205_inherit":
				assertCrossFile(t, res.Diagnostics, "CVL205", "child.yaml", "base.yaml")
			}
		})
	}
}

// assertCrossFile requires a diagnostic with the given code positioned in
// primaryFile with a related location positioned in relatedFile.
func assertCrossFile(t *testing.T, diags []Diagnostic, code, primaryFile, relatedFile string) {
	t.Helper()
	for _, d := range diags {
		if d.Code != code || !strings.HasSuffix(d.File, primaryFile) {
			continue
		}
		if d.Line <= 0 {
			t.Errorf("%s: no position in %s: %s", code, primaryFile, d)
		}
		for _, rel := range d.Related {
			if strings.HasSuffix(rel.File, relatedFile) {
				if rel.Line <= 0 {
					t.Errorf("%s: no position in related %s: %s", code, relatedFile, d)
				}
				return
			}
		}
		t.Errorf("%s: no related location in %s: %s", code, relatedFile, d)
		return
	}
	t.Errorf("no %s diagnostic in %s:\n%s", code, primaryFile, renderAll(diags))
}

func renderAll(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
