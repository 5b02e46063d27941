package xccdf

import (
	"strings"
	"testing"
	"time"

	"configvalidator/internal/baseline"
	"configvalidator/internal/baseline/scriptcheck"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/rules"
)

func loadCIS40(t *testing.T) *Engine {
	t.Helper()
	benchXML, ovalXML, err := Generate("cis-ubuntu-40", baseline.CIS40())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Load(benchXML, ovalXML)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestGenerateAndLoad(t *testing.T) {
	eng := loadCIS40(t)
	selected := 0
	for _, r := range eng.docs.Benchmark.Rules {
		if r.Selected {
			selected++
		}
	}
	if selected != 40 {
		t.Errorf("selected rules = %d", selected)
	}
}

func TestEvaluateCleanAndDirty(t *testing.T) {
	eng := loadCIS40(t)
	clean, _ := fixtures.SystemHost("clean", fixtures.Profile{Seed: 1})
	for _, r := range eng.Evaluate(clean) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.RuleID, r.Err)
		}
		if !r.Passed {
			t.Errorf("%s failed on clean host", r.RuleID)
		}
	}
	dirty, _ := fixtures.SystemHost("dirty", fixtures.Profile{Seed: 2, MisconfigRate: 1.0})
	failed := 0
	for _, r := range eng.Evaluate(dirty) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.RuleID, r.Err)
		}
		if !r.Passed {
			failed++
		}
	}
	if failed < 30 {
		t.Errorf("dirty host failed only %d/40 xccdf rules", failed)
	}
}

// TestAgreementWithScriptSemantics checks the three Table-2 engines verdict
// for verdict. Over seeded, half-misconfigured system hosts, each check's
// xccdf Passed, its scriptcheck Passed and whether the built-in CVL rule
// its spec names (CVLTarget, CVLRule) reports PASS must agree. A CVL
// verdict other than PASS or FAIL is reported as a disagreement too.
func TestAgreementWithScriptSemantics(t *testing.T) {
	eng := loadCIS40(t)
	specs := baseline.CIS40()
	checks := scriptcheck.FromSpecs(specs)
	manifest, err := rules.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	src := engine.NewCachedSource(rules.Reader())
	cvlEngine := engine.New(nil)
	disagreements := 0
	for seed := int64(1); seed <= 100; seed++ {
		host, _ := fixtures.SystemHost("mixed", fixtures.Profile{Seed: seed, MisconfigRate: 0.5})
		results := eng.Evaluate(host)
		if len(results) != len(specs) {
			t.Fatalf("results = %d, specs = %d", len(results), len(specs))
		}
		outcomes := scriptcheck.New().Run(host, checks)
		rep, err := cvlEngine.Validate(host, manifest, src)
		if err != nil {
			t.Fatal(err)
		}
		cvlStatus := make(map[string]engine.Status, len(rep.Results))
		for _, r := range rep.Results {
			if r.Rule != nil {
				cvlStatus[r.ManifestEntity+"/"+r.Rule.Name] = r.Status
			}
		}
		for i, spec := range specs {
			r, o := results[i], outcomes[i]
			if !strings.Contains(r.RuleID, spec.ID) {
				t.Fatalf("result %d = %s, spec = %s (order broken)", i, r.RuleID, spec.ID)
			}
			if r.Err != nil || o.Err != nil {
				t.Fatalf("seed %d, %s: xccdf error %v, scriptcheck error %v", seed, spec.ID, r.Err, o.Err)
			}
			status, ok := cvlStatus[spec.CVLTarget+"/"+spec.CVLRule]
			if !ok {
				t.Fatalf("seed %d, %s: no CVL verdict for %s/%s", seed, spec.ID, spec.CVLTarget, spec.CVLRule)
			}
			cvlPass := status == engine.StatusPass
			if r.Passed != o.Passed || r.Passed != cvlPass || (status != engine.StatusPass && status != engine.StatusFail) {
				disagreements++
				t.Errorf("seed %d, %s: xccdf passed=%t, scriptcheck passed=%t (found %q), CVL %v",
					seed, spec.ID, r.Passed, o.Passed, o.Found, status)
			}
		}
	}
	if disagreements > 0 {
		t.Errorf("%d of %d checks disagree", disagreements, 100*len(specs))
	}
}

func TestMissingOKGeneratesORCriteria(t *testing.T) {
	// A MissingOK spec passes when the parameter is absent.
	spec := baseline.CheckSpec{
		ID: "t1", Title: "t", FilePath: "/etc/app.conf",
		Pattern: `^Key\s+(\S+)`, Expect: "^good$", MissingOK: true,
	}
	benchXML, ovalXML, err := Generate("b", []baseline.CheckSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Load(benchXML, ovalXML)
	if err != nil {
		t.Fatal(err)
	}
	empty := entity.NewMem("h", entity.TypeHost)
	empty.AddFile("/etc/app.conf", []byte("Other x\n"))
	res := eng.Evaluate(empty)
	if len(res) != 1 || !res[0].Passed {
		t.Errorf("absent param with MissingOK = %+v", res)
	}
	bad := entity.NewMem("h", entity.TypeHost)
	bad.AddFile("/etc/app.conf", []byte("Key bad\n"))
	res = eng.Evaluate(bad)
	if res[0].Passed {
		t.Error("present bad value must fail even with MissingOK")
	}
}

func TestVerboseEncodingSize(t *testing.T) {
	// Listing 6: the XCCDF/OVAL encoding of one rule is ~45 lines.
	benchXML, ovalXML, err := Generate("one", baseline.CIS40()[:1])
	if err != nil {
		t.Fatal(err)
	}
	total := strings.Count(string(benchXML), "\n") + strings.Count(string(ovalXML), "\n") + 2
	if total < 30 || total > 60 {
		t.Errorf("single-rule XCCDF/OVAL encoding = %d lines, paper reports ~45", total)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load([]byte("<not-xccdf"), []byte("<oval_definitions/>")); err == nil {
		t.Error("bad benchmark XML accepted")
	}
	if _, err := Load([]byte("<Benchmark/>"), []byte("<nope")); err == nil {
		t.Error("bad oval XML accepted")
	}
}

func TestEvaluateErrorPaths(t *testing.T) {
	benchXML := `<Benchmark id="b"><Rule id="r1" selected="true"><title>t</title><check system="oval"><check-content-ref name="oval:missing:def:1"/></check></Rule></Benchmark>`
	ovalXML := `<oval_definitions></oval_definitions>`
	eng, err := Load([]byte(benchXML), []byte(ovalXML))
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Evaluate(entity.NewMem("h", entity.TypeHost))
	if len(res) != 1 || res[0].Err == nil {
		t.Errorf("missing definition = %+v", res)
	}
}

func TestCISCATInitCost(t *testing.T) {
	eng := loadCIS40(t)
	cc := NewCISCAT(eng, 5*time.Millisecond)
	host, _ := fixtures.SystemHost("h", fixtures.Profile{Seed: 1})
	start := time.Now()
	res := cc.Evaluate(host)
	elapsed := time.Since(start)
	if len(res) != 40 {
		t.Errorf("results = %d", len(res))
	}
	if elapsed < 5*time.Millisecond {
		t.Errorf("init cost not paid: %v", elapsed)
	}
	if NewCISCAT(eng, 0).initCost != DefaultCISCATInitCost {
		t.Error("default init cost not applied")
	}
}
