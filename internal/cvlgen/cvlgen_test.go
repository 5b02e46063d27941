package cvlgen

import (
	"strings"
	"testing"

	"configvalidator/internal/analysis"
	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
)

const goldenSSHD = "Port 22\nPermitRootLogin no\nUsePAM yes\n"

func TestGenerateFromTreeConfig(t *testing.T) {
	rules, err := FromFile(nil, "/etc/ssh/sshd_config", []byte(goldenSSHD), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules = %d", len(rules))
	}
	byName := map[string]*cvl.Rule{}
	for _, r := range rules {
		byName[r.Name] = r
		if !r.HasTag("#generated") {
			t.Errorf("rule %s missing tag", r.Name)
		}
	}
	prl := byName["PermitRootLogin"]
	if prl == nil || prl.PreferredValue[0] != "no" || prl.FileContext[0] != "sshd_config" {
		t.Errorf("rule = %+v", prl)
	}
}

// TestGoldenProfileValidates is the core property: a generated profile
// passes against the file it was generated from and fails against a
// drifted copy.
func TestGoldenProfileValidates(t *testing.T) {
	rules, err := FromFile(nil, "/etc/ssh/sshd_config", []byte(goldenSSHD), Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(nil)

	same := entity.NewMem("same", entity.TypeHost)
	same.AddFile("/etc/ssh/sshd_config", []byte(goldenSSHD))
	rep, err := eng.ValidateRules(same, rules, []string{"/etc/ssh"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.Passed() {
			t.Errorf("golden profile failed on source: %s (%s)", r.Message, r.Detail)
		}
	}

	drifted := entity.NewMem("drift", entity.TypeHost)
	drifted.AddFile("/etc/ssh/sshd_config", []byte("Port 22\nPermitRootLogin yes\nUsePAM yes\n"))
	rep, err = eng.ValidateRules(drifted, rules, []string{"/etc/ssh"})
	if err != nil {
		t.Fatal(err)
	}
	fails := rep.Counts()[engine.StatusFail]
	if fails != 1 {
		t.Errorf("drift detected %d failures, want 1", fails)
	}
}

func TestGenerateNestedSections(t *testing.T) {
	conf := "[client]\nport = 3306\n\n[mysqld]\nbind-address = 127.0.0.1\nskip-networking\n"
	rules, err := FromFile(nil, "/etc/mysql/my.cnf", []byte(conf), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var bind, flag *cvl.Rule
	for _, r := range rules {
		switch r.Name {
		case "bind-address":
			bind = r
		case "skip-networking":
			flag = r
		}
	}
	if bind == nil || bind.ConfigPath[0] != "mysqld" {
		t.Errorf("bind-address rule = %+v", bind)
	}
	if flag == nil || len(flag.PreferredValue) != 0 {
		t.Errorf("bare flag should be a presence rule: %+v", flag)
	}
}

func TestGenerateFromSchemaConfig(t *testing.T) {
	fstab := "/dev/sda1 / ext4 defaults 0 1\n/dev/sda2 /tmp ext4 nodev 0 2\n"
	rules, err := FromFile(nil, "/etc/fstab", []byte(fstab), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	for _, r := range rules {
		if r.Type != cvl.TypeSchema || r.ExpectRows != ">=1" {
			t.Errorf("rule = %+v", r)
		}
	}
	// The profile validates against its source.
	ent := entity.NewMem("h", entity.TypeHost)
	ent.AddFile("/etc/fstab", []byte(fstab))
	rep, err := engine.New(nil).ValidateRules(ent, rules, []string{"/etc/fstab"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !r.Passed() {
			t.Errorf("schema profile failed: %s", r.Message)
		}
	}
}

func TestGeneratedRulesFormatAndLintClean(t *testing.T) {
	rules, err := FromFile(nil, "/etc/ssh/sshd_config", []byte(goldenSSHD), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cvl.FormatRuleFile("", rules)
	if err != nil {
		t.Fatal(err)
	}
	res := analysis.AnalyzeFile("generated.yaml", out, analysis.Options{})
	if errs, _ := res.Counts(); errs > 0 {
		t.Errorf("generated rules have lint errors: %v\n%s", res.Diagnostics, out)
	}
}

func TestMaxRulesBound(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString(strings.Repeat("x", i+1))
		b.WriteString(" = v\n")
	}
	rules, err := FromFile(nil, "/etc/sysctl.conf", []byte(b.String()), Options{MaxRules: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) > 10 {
		t.Errorf("rules = %d", len(rules))
	}
}

func TestUnknownFileType(t *testing.T) {
	if _, err := FromFile(nil, "/bin/ls", []byte{0x7f, 'E', 'L', 'F'}, Options{}); err == nil {
		t.Error("binary accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("/dev/sda1"); got != "dev_sda1" {
		t.Errorf("sanitize = %q", got)
	}
}
