package analysis

import (
	"errors"
	"fmt"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/rules"
)

// Diagnostic codes that mirror a loader parse error, per file kind.
var (
	ruleFileClasses = map[string]bool{CodeSyntax: true, CodeNotMapping: true, CodeUnknownKeyword: true,
		CodeWrongGroup: true, CodeInvalidRule: true, CodeDuplicateParent: true, CodeParentNotString: true}
	manifestClasses = map[string]bool{CodeSyntax: true, CodeNotMapping: true, CodeBadManifest: true}
)

// disagreement analyzes one file alone and checks it against the loader
// (cvl.ParseRuleFile, or cvl.ParseManifest for a manifest-named path):
// the loader must reject the bytes exactly when the analyzer reports an
// error in the loader's classes and, with atKey, one of those errors must
// sit at the key the loader's error names. It returns "" on agreement.
func disagreement(path string, content []byte, atKey bool) string {
	res := AnalyzeFile(path, content, Options{})
	classes := ruleFileClasses
	var err error
	if IsManifestPath(path) {
		classes = manifestClasses
		_, err = cvl.ParseManifest(path, content)
	} else {
		_, err = cvl.ParseRuleFile(path, content)
	}
	var rejecting []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Severity == SevError && classes[d.Code] {
			rejecting = append(rejecting, d)
		}
	}
	if (err != nil) != (len(rejecting) > 0) {
		return fmt.Sprintf("loader error: %v\nanalyzer errors in the loader's classes: %v", err, rejecting)
	}
	var ke *cvl.KeyError
	if !atKey || !errors.As(err, &ke) || ke.Key == "" {
		return ""
	}
	pos := ke.Map.KeyPos(ke.Key)
	for _, d := range rejecting {
		if d.Line == pos.Line && d.Col == pos.Col {
			return ""
		}
	}
	return fmt.Sprintf("loader error %q names key %q at %s; analyzer errors: %v", err, ke.Key, pos, rejecting)
}

// TestLoaderAnalyzerAgree mutates every built-in rule file and the
// built-in manifest: for each mutant cvlint must report a parse error
// exactly when a scan would fail to load the file, at the key the scan's
// error names.
func TestLoaderAnalyzerAgree(t *testing.T) {
	rejected := 0
	for _, m := range builtinMutants() {
		if msg := disagreement(m.path, []byte(m.content), true); msg != "" {
			t.Errorf("%s:\n%s", m, msg)
		}
		if IsManifestPath(m.path) {
			_, err := cvl.ParseManifest(m.path, []byte(m.content))
			if err != nil {
				rejected++
			}
		} else if _, err := cvl.ParseRuleFile(m.path, []byte(m.content)); err != nil {
			rejected++
		}
	}
	// The mutants must exercise the loader's rejections, not only its
	// happy path.
	if rejected < 200 {
		t.Errorf("only %d mutants are rejected by the loader", rejected)
	}
}

// FuzzAnalyzeFile feeds arbitrary bytes to the analyzer behind POST
// /v1/lint, as a rule file and as a manifest. It must not panic, and it
// must report a parse error exactly when the loader rejects the bytes.
func FuzzAnalyzeFile(f *testing.F) {
	for _, c := range Catalog() {
		f.Add(false, []byte(Example(c.Code)))
		f.Add(true, []byte(Example(c.Code)))
	}
	for path, content := range rules.Files() {
		f.Add(IsManifestPath(path), []byte(content))
	}
	f.Fuzz(func(t *testing.T, manifest bool, content []byte) {
		path := "rules.yaml"
		if manifest {
			path = "manifest.yaml"
		}
		if msg := disagreement(path, content, false); msg != "" {
			t.Fatal(msg)
		}
	})
}
