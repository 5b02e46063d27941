package rules

import (
	"testing"

	"configvalidator/internal/analysis"
	"configvalidator/internal/cvl"
)

func TestExtendedPackComposition(t *testing.T) {
	if got := len(ExtendedTargets()); got != 4 {
		t.Errorf("extended targets = %d", got)
	}
	m, err := ExtendedManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 15 { // 11 base + 4 extended
		t.Errorf("combined manifest entries = %d", len(m.Entries))
	}
	reader := ExtendedReader()
	total := 0
	for _, target := range ExtendedTargets() {
		rs, err := cvl.ResolveRules(reader, target.RuleFile)
		if err != nil {
			t.Fatalf("%s: %v", target.Name, err)
		}
		total += len(rs)
		for _, r := range rs {
			if !r.HasTag("#extended") {
				t.Errorf("%s/%s missing #extended tag", target.Name, r.Name)
			}
		}
	}
	if total != 12 {
		t.Errorf("extended rules = %d, want 12", total)
	}
	// The base library is untouched: Table-1 still counts 135.
	all, err := All()
	base := 0
	for _, rs := range all {
		base += len(rs)
	}
	if err != nil || base != 135 {
		t.Errorf("base rules = %d, %v", base, err)
	}
}

func TestExtendedPackLintClean(t *testing.T) {
	files := ExtendedFiles()
	for _, target := range ExtendedTargets() {
		content := files[target.RuleFile]
		res := analysis.AnalyzeFile(target.RuleFile, []byte(content), analysis.Options{})
		if errs, _ := res.Counts(); errs > 0 {
			t.Errorf("%s: %v", target.RuleFile, res.Diagnostics)
		}
	}
}

func TestExtendedReaderMissing(t *testing.T) {
	if _, err := ExtendedReader()("ghost.yaml"); err == nil {
		t.Error("missing file read")
	}
}
