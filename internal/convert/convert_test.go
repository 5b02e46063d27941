package convert

import (
	"testing"

	"configvalidator/internal/analysis"
	"configvalidator/internal/baseline"
	"configvalidator/internal/baseline/xccdf"
	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/fixtures"
)

// generated produces XCCDF/OVAL documents for the 40-check workload.
func generated(t *testing.T) ([]byte, []byte) {
	t.Helper()
	benchXML, ovalXML, err := xccdf.Generate("cis-ubuntu-40", baseline.CIS40())
	if err != nil {
		t.Fatal(err)
	}
	return benchXML, ovalXML
}

func TestConvertCIS40(t *testing.T) {
	benchXML, ovalXML := generated(t)
	res, err := XCCDFToCVL(benchXML, ovalXML)
	if err != nil {
		t.Fatal(err)
	}
	// The importer's documented scope is key-value configuration: the 30
	// sshd+sysctl checks convert; the 10 schema-file checks (audit watch
	// flags, fstab positional fields, modprobe directive collisions) are
	// skipped with explicit reasons.
	if len(res.Rules) != 30 {
		t.Fatalf("converted %d rules: %+v", len(res.Rules), res.Skipped)
	}
	if len(res.Skipped) != 10 {
		t.Fatalf("skipped %d: %+v", len(res.Skipped), res.Skipped)
	}
	for _, s := range res.Skipped {
		if s.Reason == "" {
			t.Errorf("skip without reason: %+v", s)
		}
	}
	byName := make(map[string]*cvl.Rule, len(res.Rules))
	for _, r := range res.Rules {
		byName[r.Name] = r
	}
	prl, ok := byName["PermitRootLogin"]
	if !ok {
		t.Fatal("PermitRootLogin not converted")
	}
	if prl.Type != cvl.TypeTree || prl.PreferredMatch.Kind != cvl.MatchRegex {
		t.Errorf("converted rule = %+v", prl)
	}
	if len(prl.FileContext) != 1 || prl.FileContext[0] != "sshd_config" {
		t.Errorf("file context = %v", prl.FileContext)
	}
	// Dotted sysctl keys become tree paths.
	if _, ok := byName["net/ipv4/ip_forward"]; !ok {
		t.Error("sysctl key not path-expanded")
	}
	// MissingOK specs become absent_pass rules.
	if proto := byName["Protocol"]; proto == nil || !proto.AbsentPass {
		t.Errorf("Protocol absent_pass = %+v", proto)
	}
}

// TestConvertedRulesAgreeWithXCCDFEngine is the semantic fidelity check:
// the converted CVL rules and the original XCCDF engine must produce the
// same verdicts on the same host.
func TestConvertedRulesAgreeWithXCCDFEngine(t *testing.T) {
	benchXML, ovalXML := generated(t)
	res, err := XCCDFToCVL(benchXML, ovalXML)
	if err != nil {
		t.Fatal(err)
	}
	xEng, err := xccdf.Load(benchXML, ovalXML)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.SystemHost("mixed", fixtures.Profile{Seed: 41, MisconfigRate: 0.5})

	xccdfResults := xEng.Evaluate(host)
	xccdfByTitle := make(map[string]bool, len(xccdfResults))
	for _, r := range xccdfResults {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.RuleID, r.Err)
		}
		xccdfByTitle[r.Title] = r.Passed
	}

	searchPaths := []string{"/etc/ssh", "/etc/sysctl.conf", "/etc/audit", "/etc/fstab", "/etc/modprobe.d"}
	rep, err := engine.New(nil).ValidateRules(host, res.Rules, searchPaths)
	if err != nil {
		t.Fatal(err)
	}
	specs := baseline.CIS40()
	specByKey := map[string]string{}
	for _, s := range specs {
		specByKey[s.CVLRule] = s.Title
	}
	compared := 0
	for _, r := range rep.Results {
		if r.Rule == nil {
			continue
		}
		// Audit/fstab/modprobe checks convert to tree rules over files the
		// tree lenses don't serve (schema files); those evaluate N/A under
		// CVL and are excluded from the comparison — the conversion is
		// faithful for key-value targets, which is its documented scope.
		if r.Status == engine.StatusNotApplicable {
			continue
		}
		title, ok := specByKey[r.Rule.Name]
		if !ok {
			continue
		}
		want, ok := xccdfByTitle[title]
		if !ok {
			continue
		}
		got := r.Status == engine.StatusPass
		if got != want {
			t.Errorf("rule %s: CVL %v (%s / %s), XCCDF %v", r.Rule.Name, got, r.Message, r.Detail, want)
		}
		compared++
	}
	if compared < 25 {
		t.Errorf("only %d verdicts compared", compared)
	}
}

func TestConvertedRulesFormatToValidCVL(t *testing.T) {
	benchXML, ovalXML := generated(t)
	res, err := XCCDFToCVL(benchXML, ovalXML)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cvl.FormatRuleFile("", res.Rules)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cvl.ParseRuleFile("imported.yaml", out)
	if err != nil {
		t.Fatalf("formatted import does not parse: %v", err)
	}
	if len(back.Rules) != len(res.Rules) {
		t.Errorf("%d rules in, %d out", len(res.Rules), len(back.Rules))
	}
	lint := analysis.AnalyzeFile("imported.yaml", out, analysis.Options{})
	if errs, _ := lint.Counts(); errs > 0 {
		t.Errorf("imported rules have lint errors: %v", lint.Diagnostics)
	}
}

func TestConvertSkipsUnconvertible(t *testing.T) {
	benchXML := []byte(`<Benchmark id="b">
  <Rule id="r-missing" selected="true"><title>missing def</title>
    <check system="oval"><check-content-ref name="oval:ghost:def:1"/></check>
  </Rule>
  <Rule id="r-nested" selected="true"><title>nested criteria</title>
    <check system="oval"><check-content-ref name="oval:nested:def:1"/></check>
  </Rule>
  <Rule id="r-unselected" selected="false"><title>not selected</title>
    <check system="oval"><check-content-ref name="oval:ghost:def:2"/></check>
  </Rule>
</Benchmark>`)
	ovalXML := []byte(`<oval_definitions>
  <definitions>
    <definition id="oval:nested:def:1" class="compliance" version="1">
      <criteria operator="AND">
        <criteria operator="OR">
          <criterion test_ref="oval:t:1"/>
        </criteria>
      </criteria>
    </definition>
  </definitions>
  <tests></tests><objects></objects><states></states>
</oval_definitions>`)
	res, err := XCCDFToCVL(benchXML, ovalXML)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) != 0 {
		t.Errorf("rules = %+v", res.Rules)
	}
	if len(res.Skipped) != 2 {
		t.Fatalf("skipped = %+v", res.Skipped)
	}
	for _, s := range res.Skipped {
		if s.Reason == "" {
			t.Errorf("skip without reason: %+v", s)
		}
	}
}

func TestConvertBadXML(t *testing.T) {
	if _, err := XCCDFToCVL([]byte("<nope"), []byte("<oval_definitions/>")); err == nil {
		t.Error("bad XML accepted")
	}
}

func TestExtractKey(t *testing.T) {
	tests := []struct {
		pattern string
		want    string
		ok      bool
	}{
		{`^\s*PermitRootLogin\s+(.+?)\s*$`, "PermitRootLogin", true},
		{`^\s*net\.ipv4\.ip_forward\s*=\s*(\S+)`, "net/ipv4/ip_forward", true},
		{`^install\s+cramfs\s+(\S+)`, "install", true},
		{`^(\S+)`, "", false},
		{`^\s*$`, "", false},
	}
	for _, tt := range tests {
		got, ok := extractKey(tt.pattern)
		if ok != tt.ok || got != tt.want {
			t.Errorf("extractKey(%q) = %q, %v; want %q, %v", tt.pattern, got, ok, tt.want, tt.ok)
		}
	}
}
