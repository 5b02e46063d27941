package rules

import (
	"testing"

	"configvalidator/internal/analysis"
	"configvalidator/internal/cvl"
)

// TestTable1RuleCounts asserts the exact Table-1 coverage numbers: 11
// targets, 135 rules total.
func TestTable1RuleCounts(t *testing.T) {
	wants := map[string]int{
		"sshd":      18,
		"sysctl":    18,
		"audit":     20,
		"fstab":     8,
		"modprobe":  8,
		"nginx":     11,
		"apache":    11,
		"mysql":     11,
		"hadoop":    9,
		"docker":    13,
		"openstack": 8,
	}
	if len(Targets()) != 11 {
		t.Errorf("targets = %d, want 11 (Table 1)", len(Targets()))
	}
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for target, want := range wants {
		got := len(all[target])
		if got != want {
			t.Errorf("target %s rules = %d, want %d", target, got, want)
		}
		total += got
	}
	if total != 135 {
		t.Errorf("total rules = %d, want 135 (Table 1)", total)
	}
}

// TestCoverageClaims reproduces the §4.1 coverage statements.
func TestCoverageClaims(t *testing.T) {
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	// "ConfigValidator presently covers 41% of the CIS Docker checklist."
	dockerPct := float64(len(all["docker"])) / float64(CISDockerChecklistSize) * 100
	if dockerPct < 40 || dockerPct > 42 {
		t.Errorf("CIS Docker coverage = %.1f%%, want ~41%%", dockerPct)
	}
	// "...and all of the audit rules of the Ubuntu checklist."
	if len(all["audit"]) != UbuntuAuditChecklistSize {
		t.Errorf("audit coverage = %d/%d, want full", len(all["audit"]), UbuntuAuditChecklistSize)
	}
}

func TestAllRulesLintClean(t *testing.T) {
	files := Files()
	for path, content := range files {
		if path == "manifest.yaml" {
			continue
		}
		res := analysis.AnalyzeFile(path, []byte(content), analysis.Options{})
		for _, d := range res.Diagnostics {
			if d.Severity == analysis.SevError {
				t.Errorf("%s: %s", path, d)
			}
		}
	}
}

func TestAllRulesHaveDescriptionsAndTags(t *testing.T) {
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for target, rs := range all {
		for _, r := range rs {
			if r.Description == "" {
				t.Errorf("%s/%s: missing description", target, r.Name)
			}
			if len(r.Tags) == 0 {
				t.Errorf("%s/%s: missing tags", target, r.Name)
			}
		}
	}
}

func TestStandardsPerTable1(t *testing.T) {
	// System services and docker follow CIS; apache/nginx/mysql follow
	// OWASP; hadoop HIPAA/PCI; openstack OSSG (§4.1).
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	// Count rules per leading compliance tag (the first "#"-prefixed tag).
	cov := make(map[string]int)
	for _, rs := range all {
		for _, r := range rs {
			for _, tag := range r.Tags {
				if len(tag) > 0 && tag[0] == '#' {
					cov[tag]++
					break
				}
			}
		}
	}
	if cov["#cis"] < 70 {
		t.Errorf("#cis rules = %d, want >= 70", cov["#cis"])
	}
	if cov["#owasp"] < 30 {
		t.Errorf("#owasp rules = %d, want >= 30", cov["#owasp"])
	}
	if cov["#hipaa"] == 0 {
		t.Error("no #hipaa rules")
	}
	if cov["#ossg"] == 0 {
		t.Error("no #ossg rules")
	}
}

func TestManifestParsesAndCoversTargets(t *testing.T) {
	m, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 11 {
		t.Errorf("manifest entries = %d", len(m.Entries))
	}
	for _, target := range Targets() {
		entry, ok := m.Entry(target.Name)
		if !ok {
			t.Errorf("manifest missing %s", target.Name)
			continue
		}
		if !entry.Enabled || entry.CVLFile != target.RuleFile {
			t.Errorf("entry %s = %+v", target.Name, entry)
		}
	}
}

func TestLoadUnknownTarget(t *testing.T) {
	if _, err := Load("kubernetes"); err == nil {
		t.Error("unknown target loaded")
	}
}

func TestReaderMissingFile(t *testing.T) {
	if _, err := Reader()("ghost.yaml"); err == nil {
		t.Error("missing file read")
	}
}

// TestFormatRoundTripEntireLibrary re-formats all 135 built-in rules and
// re-parses them, proving the formatter covers the full vocabulary in use.
func TestFormatRoundTripEntireLibrary(t *testing.T) {
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for target, rs := range all {
		formatted, err := cvl.FormatRuleFile("", rs)
		if err != nil {
			t.Fatalf("%s: format: %v", target, err)
		}
		back, err := cvl.ParseRuleFile(target+".yaml", formatted)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", target, err)
		}
		if len(back.Rules) != len(rs) {
			t.Errorf("%s: %d rules in, %d out", target, len(rs), len(back.Rules))
		}
		for i := range rs {
			if rs[i].Name != back.Rules[i].Name || rs[i].Type != back.Rules[i].Type {
				t.Errorf("%s rule %d changed identity: %s/%v -> %s/%v",
					target, i, rs[i].Name, rs[i].Type, back.Rules[i].Name, back.Rules[i].Type)
			}
		}
		total += len(back.Rules)
	}
	if total != 135 {
		t.Errorf("round-tripped %d rules", total)
	}
}

func TestRuleTypeMix(t *testing.T) {
	// The library exercises all four per-entity rule types.
	all, err := All()
	if err != nil {
		t.Fatal(err)
	}
	byType := make(map[cvl.RuleType]int)
	for _, rs := range all {
		for _, r := range rs {
			byType[r.Type]++
		}
	}
	if byType[cvl.TypeTree] == 0 || byType[cvl.TypeSchema] == 0 || byType[cvl.TypePath] == 0 || byType[cvl.TypeScript] == 0 {
		t.Errorf("rule type mix = %v", byType)
	}
}
