package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

const cleanRule = `config_name: PermitRootLogin
config_description: "ok"
config_path: [""]
preferred_value: ["no"]
preferred_value_match: exact,any
matched_description: "ok"
not_matched_preferred_value_description: "bad"
not_present_description: "missing"
tags: ["#cis"]
`

func TestLintCleanFile(t *testing.T) {
	path := writeTemp(t, "clean.yaml", cleanRule)
	code, out, _ := runCapture(t, path)
	if code != 0 {
		t.Errorf("clean file exit = %d", code)
	}
	if !strings.Contains(out, "1 file(s) checked, 0 error(s), 0 warning(s)") {
		t.Errorf("summary = %q", out)
	}
}

func TestLintBrokenFile(t *testing.T) {
	path := writeTemp(t, "broken.yaml", "config_nme: typo\n")
	code, out, _ := runCapture(t, path)
	if code != 1 {
		t.Errorf("broken file exit = %d", code)
	}
	if !strings.Contains(out, "CVL003") || !strings.Contains(out, `"config_name"`) {
		t.Errorf("output = %q", out)
	}
}

func TestLintWarningsDoNotFail(t *testing.T) {
	path := writeTemp(t, "warn.yaml", "config_name: x\n")
	if code, _, _ := runCapture(t, path); code != 0 {
		t.Errorf("warnings-only exit = %d", code)
	}
	code, out, _ := runCapture(t, "-q", path)
	if code != 0 {
		t.Errorf("quiet exit = %d", code)
	}
	if strings.Contains(out, "CVL5") {
		t.Errorf("quiet mode printed warnings: %q", out)
	}
}

func TestExplain(t *testing.T) {
	code, out, _ := runCapture(t, "-explain", "CVL401")
	if code != 0 {
		t.Fatalf("explain exit = %d", code)
	}
	for _, want := range []string{"CVL401", "error", "Minimal example:"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// Every catalog code must be explainable, style codes included.
	if code, out, _ := runCapture(t, "-explain", "CVL501"); code != 0 || !strings.Contains(out, "CVL501") {
		t.Errorf("explain CVL501: exit=%d output=%q", code, out)
	}
	code, _, stderr := runCapture(t, "-explain", "CVL999")
	if code != 2 || !strings.Contains(stderr, "CVL999") {
		t.Errorf("unknown code: exit=%d stderr=%q", code, stderr)
	}
}

const unsatRule = `config_name: Protocol
config_description: "ok"
config_path: [""]
preferred_value: ["2"]
preferred_value_match: exact,any
non_preferred_value: ["2"]
non_preferred_value_match: exact,any
matched_description: "ok"
not_matched_preferred_value_description: "bad"
not_present_description: "missing"
tags: ["#cis"]
`

func TestNoSemanticFlag(t *testing.T) {
	path := writeTemp(t, "unsat.yaml", unsatRule)
	// Semantic analysis is on by default: the self-contradictory rule is
	// unsatisfiable (CVL401) on top of the style-level CVL205.
	code, out, _ := runCapture(t, path)
	if code != 1 || !strings.Contains(out, "CVL401") {
		t.Errorf("default run: exit=%d output=%q", code, out)
	}
	for _, flag := range []string{"-no-semantic", "-semantic=false"} {
		_, out, _ := runCapture(t, flag, path)
		if strings.Contains(out, "CVL401") {
			t.Errorf("%s still reported CVL401: %q", flag, out)
		}
	}
}

func TestLintBuiltin(t *testing.T) {
	if code, _, _ := runCapture(t, "-builtin", "-q"); code != 0 {
		t.Errorf("builtin library lint exit = %d", code)
	}
}

func TestLintUsageAndMissingFile(t *testing.T) {
	if code, _, _ := runCapture(t); code != 2 {
		t.Errorf("no-args exit = %d", code)
	}
	// I/O failures are usage-level (exit 2), distinct from lint errors.
	if code, _, _ := runCapture(t, "/no/such/file.yaml"); code != 2 {
		t.Errorf("missing file exit = %d", code)
	}
	if code, _, _ := runCapture(t, "-format", "xml", "x.yaml"); code != 2 {
		t.Errorf("bad format exit = %d", code)
	}
	if code, _, _ := runCapture(t, "-baseline", "/no/such/baseline.json", writeTemp(t, "a.yaml", cleanRule)); code != 2 {
		t.Errorf("missing baseline exit = %d", code)
	}
}

func TestUsageDocumentsExitCodes(t *testing.T) {
	_, _, stderr := runCapture(t)
	for _, want := range []string{"Exit codes:", "0  no findings", "1  at least one error", "2  usage error"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("usage missing %q:\n%s", want, stderr)
		}
	}
}

// TestProjectDirectoryMode pins the whole-project flow: a directory with a
// manifest, an inheritance chain, and cross-file problems analyzed as one
// unit with positioned findings.
func TestProjectDirectoryMode(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"base.yaml": cleanRule,
		"child.yaml": "parent_cvl_file: base.yaml\n---\n" +
			strings.Replace(cleanRule, "config_description", "description", 1),
		"manifest.yaml": "sshd:\n  enabled: True\n  cvl_file: child.yaml\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, _ := runCapture(t, dir)
	if code != 0 {
		t.Fatalf("exit = %d, output:\n%s", code, out)
	}
	// child.yaml redefines PermitRootLogin without override → CVL104.
	if !strings.Contains(out, "CVL104") || !strings.Contains(out, "base.yaml") {
		t.Errorf("shadow warning missing: %q", out)
	}

	// A broken parent reference in project mode is an error.
	if err := os.WriteFile(filepath.Join(dir, "orphan.yaml"), []byte("parent_cvl_file: gone.yaml\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCapture(t, dir)
	if code != 1 || !strings.Contains(out, "CVL101") {
		t.Errorf("missing parent: exit=%d output=%q", code, out)
	}
}

// TestNestedParentMatchesTheScan lints the layout configvalidator
// -manifest loads: every rule file of the chain resolves against the
// manifest's directory, so a parent named relative to a nested rule file
// is missing, and one named from the manifest's directory is clean.
func TestNestedParentMatchesTheScan(t *testing.T) {
	for _, tc := range []struct {
		parent   string
		wantCode int
		want     string
	}{
		{"base.yaml", 1, `rules/child.yaml:1:1: error CVL101: parent rule file "base.yaml" not found in project`},
		{"rules/base.yaml", 0, "3 file(s) checked, 0 error(s), 0 warning(s)"},
	} {
		dir := t.TempDir()
		files := map[string]string{
			"manifest.yaml":    "sshd:\n  cvl_file: rules/child.yaml\n",
			"rules/child.yaml": "parent_cvl_file: " + tc.parent + "\n---\n" + strings.Replace(cleanRule, "PermitRootLogin", "Port", 1),
			"rules/base.yaml":  cleanRule,
		}
		for name, content := range files {
			path := filepath.Join(dir, filepath.FromSlash(name))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		code, out, _ := runCapture(t, "-q", dir)
		if code != tc.wantCode || !strings.Contains(out, tc.want) {
			t.Errorf("parent %q: exit=%d, want %d and %q in:\n%s", tc.parent, code, tc.wantCode, tc.want, out)
		}
	}
}

func TestSingleFileParentIsWarning(t *testing.T) {
	path := writeTemp(t, "child.yaml", "parent_cvl_file: elsewhere.yaml\n---\n"+cleanRule)
	code, out, _ := runCapture(t, path)
	if code != 0 {
		t.Errorf("exit = %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "CVL101") {
		t.Errorf("parent warning missing: %q", out)
	}
}

func TestFormatJSON(t *testing.T) {
	path := writeTemp(t, "broken.yaml", "config_nme: typo\n")
	code, out, _ := runCapture(t, "-format", "json", path)
	if code != 1 {
		t.Errorf("exit = %d", code)
	}
	var got struct {
		FilesChecked int `json:"files_checked"`
		Errors       int `json:"errors"`
		Diagnostics  []struct {
			Code string `json:"code"`
			Line int    `json:"line"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if got.FilesChecked != 1 || got.Errors != 1 || len(got.Diagnostics) == 0 || got.Diagnostics[0].Code != "CVL003" {
		t.Errorf("json = %+v", got)
	}
}

func TestFormatSARIF(t *testing.T) {
	path := writeTemp(t, "broken.yaml", "config_nme: typo\n")
	code, out, _ := runCapture(t, "-format", "sarif", path)
	if code != 1 {
		t.Errorf("exit = %d", code)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("invalid SARIF: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || log.Schema == "" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "cvlint" {
		t.Errorf("sarif header = %+v", log)
	}
	if len(log.Runs[0].Results) == 0 || log.Runs[0].Results[0].RuleID != "CVL003" {
		t.Errorf("sarif results = %+v", log.Runs[0].Results)
	}
}

func TestBaselineWorkflow(t *testing.T) {
	dir := t.TempDir()
	rulePath := filepath.Join(dir, "broken.yaml")
	if err := os.WriteFile(rulePath, []byte("config_nme: typo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	baselinePath := filepath.Join(dir, "lint-baseline.json")

	// Accept the current findings.
	code, _, stderr := runCapture(t, "-write-baseline", baselinePath, rulePath)
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, stderr: %s", code, stderr)
	}

	// With the baseline, the same findings no longer fail the run.
	code, out, _ := runCapture(t, "-baseline", baselinePath, rulePath)
	if code != 0 {
		t.Errorf("baselined run exit = %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "suppressed by baseline") {
		t.Errorf("suppression count missing: %q", out)
	}

	// A new finding in another file still fails.
	otherPath := filepath.Join(dir, "other.yaml")
	if err := os.WriteFile(otherPath, []byte("config_nme: typo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCapture(t, "-baseline", baselinePath, rulePath, otherPath)
	if code != 1 || !strings.Contains(out, "other.yaml") {
		t.Errorf("new finding: exit=%d output=%q", code, out)
	}
}
