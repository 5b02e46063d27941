package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"configvalidator/internal/fixtures"
	"configvalidator/internal/journal"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestDemoHostTextOutput(t *testing.T) {
	out, err := runCLI(t, "-demo", "host", "-misconfig", "0", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Entity: demo-host (host)") {
		t.Errorf("output:\n%s", out)
	}
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("clean demo host failed checks:\n%s", out)
	}
}

func TestDemoImageJSONOutput(t *testing.T) {
	out, err := runCLI(t, "-demo", "image", "-misconfig", "0.5", "-seed", "3", "-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Entity  string         `json:"entity"`
		Summary map[string]int `json:"summary"`
	}
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Entity != "demo-app:v1" || decoded.Summary["fail"] == 0 {
		t.Errorf("decoded = %+v", decoded)
	}
}

// TestCheckpointReplaysUnchangedEntity pins the -checkpoint contract: the
// second run of an unchanged entity replays the journaled report (no new
// journal record) and renders byte-identically.
func TestCheckpointReplaysUnchangedEntity(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "scan.cvj")
	args := []string{"-demo", "host", "-misconfig", "0.5", "-seed", "4", "-format", "json", "-checkpoint", ckpt}
	first, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("replayed output differs from scanned output:\n--- first\n%s\n--- second\n%s", first, second)
	}
	j, err := journal.Open(ckpt, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	// Release the single-writer flock before the next CLI run opens the
	// same checkpoint.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 1 {
		t.Errorf("journal holds %d records, want 1 (second run must not re-append)", st.Replayed)
	}

	// A different entity config must bypass the journaled record.
	changed, err := runCLI(t, "-demo", "host", "-misconfig", "0", "-seed", "4", "-format", "json", "-checkpoint", ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if changed == first {
		t.Error("changed entity replayed a stale journaled report")
	}
}

func TestJUnitOutput(t *testing.T) {
	out, err := runCLI(t, "-demo", "host", "-misconfig", "1", "-seed", "2", "-target", "sshd", "-format", "junit")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<testsuites") || !strings.Contains(out, `failure message=`) {
		t.Errorf("junit output:\n%s", out)
	}
}

func TestTargetRestriction(t *testing.T) {
	out, err := runCLI(t, "-demo", "host", "-misconfig", "1", "-target", "sshd", "-show-passing")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "sysctl/") || !strings.Contains(out, "sshd/") {
		t.Errorf("target restriction leaked:\n%s", out)
	}
}

func TestTagFilter(t *testing.T) {
	out, err := runCLI(t, "-demo", "host", "-misconfig", "1", "-tags", "#ossg", "-show-passing")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "sshd/PermitRootLogin") {
		t.Errorf("tag filter leaked CIS rules:\n%s", out)
	}
}

func TestSuggestFixes(t *testing.T) {
	out, err := runCLI(t, "-demo", "host", "-misconfig", "1", "-seed", "2", "-target", "sysctl", "-suggest-fixes")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "suggested fix:") || !strings.Contains(out, "net.ipv4.ip_forward = 0") {
		t.Errorf("fixes missing:\n%s", out)
	}
}

func TestFailOnFindings(t *testing.T) {
	if _, err := runCLI(t, "-demo", "host", "-misconfig", "1", "-fail-on-findings"); err == nil {
		t.Error("expected nonzero for dirty host")
	}
	if _, err := runCLI(t, "-demo", "host", "-misconfig", "0", "-fail-on-findings"); err != nil {
		t.Errorf("clean host: %v", err)
	}
}

func TestHostDirScan(t *testing.T) {
	dir := t.TempDir()
	sshDir := filepath.Join(dir, "etc", "ssh")
	if err := os.MkdirAll(sshDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sshDir, "sshd_config"), []byte("PermitRootLogin yes\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-host", dir, "-target", "sshd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PermitRootLogin") || !strings.Contains(out, "[FAIL]") {
		t.Errorf("host scan:\n%s", out)
	}
}

func TestCustomManifest(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "manifest.yaml"), "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: sshd.yaml\n")
	writeFile(t, filepath.Join(dir, "sshd.yaml"), "config_name: Port\nconfig_path: [\"\"]\npreferred_value: [\"22\"]\n")
	out, err := runCLI(t, "-demo", "host", "-misconfig", "0", "-manifest", filepath.Join(dir, "manifest.yaml"), "-show-passing")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sshd/Port") || !strings.Contains(out, "1 total") {
		t.Errorf("custom manifest:\n%s", out)
	}
}

// TestCustomManifestNestedParent: every rule file of an entity's chain,
// parents included, resolves relative to the manifest's directory.
func TestCustomManifestNestedParent(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "rules"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "manifest.yaml"), "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: rules/child.yaml\n")
	writeFile(t, filepath.Join(dir, "rules", "base.yaml"), "config_name: Port\nconfig_path: [\"\"]\npreferred_value: [\"22\"]\n")
	for parent, wantErr := range map[string]bool{"rules/base.yaml": false, "base.yaml": true} {
		writeFile(t, filepath.Join(dir, "rules", "child.yaml"),
			"parent_cvl_file: "+parent+"\n---\nconfig_name: PermitRootLogin\nconfig_path: [\"\"]\npreferred_value: [\"no\"]\n")
		out, err := runCLI(t, "-demo", "host", "-misconfig", "0", "-manifest", filepath.Join(dir, "manifest.yaml"), "-show-passing")
		if wantErr {
			if err == nil || !strings.Contains(err.Error(), "read rule file base.yaml") {
				t.Errorf("parent %q: err = %v, want a failed read of base.yaml", parent, err)
			}
			continue
		}
		if err != nil || !strings.Contains(out, "sshd/Port") || !strings.Contains(out, "2 total") {
			t.Errorf("parent %q: err = %v, output:\n%s", parent, err, out)
		}
	}
}

func TestExtendedPackFlag(t *testing.T) {
	out, err := runCLI(t, "-demo", "host", "-misconfig", "0", "-extended", "-show-passing")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"passwd/only_root_uid0", "cron/cron_path_set", "limits/core_dumps_restricted"} {
		if !strings.Contains(out, want) {
			t.Errorf("extended output missing %q", want)
		}
	}
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("clean host failed extended checks:\n%s", out)
	}
}

func TestTarScan(t *testing.T) {
	img, _ := fixtures.Image("tarred-app", "v1", fixtures.Profile{Seed: 5, MisconfigRate: 1})
	path := filepath.Join(t.TempDir(), "app.tar")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.ExportTar(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t, "-tar", path, "-target", "sshd")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[FAIL]") || !strings.Contains(out, "app.tar (container)") {
		t.Errorf("tar scan:\n%s", out)
	}
}

func TestErrorCases(t *testing.T) {
	cases := [][]string{
		{},                                // no entity
		{"-demo", "host", "-host", "/x"},  // two entities
		{"-demo", "moonbase"},             // unknown demo
		{"-demo", "host", "-format", "x"}, // bad format
		{"-frame", "/no/such/frame"},      // missing frame
		{"-demo", "host", "-target", "k8s"},
		{"-demo", "host", "-manifest", "/no/such/manifest.yaml"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
