package configvalidator

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
)

var updateReports = flag.Bool("update", false, "rewrite testdata/reports.golden from the current engine")

// goldenRules exercise the matcher and tree-rule features whose message
// and detail text the report golden pins: a regex list that reaches an
// invalid pattern, one whose invalid pattern sits after an any-hit and is
// never compiled, case folding, element-wise matching, the three
// occurrence modes over a key set in two files, absent_pass, and
// require_other_configs.
const goldenRules = `
config_name: PermitRootLogin
config_path: [""]
preferred_value: ["^yes$", "(unclosed"]
preferred_value_match: regex,any
---
config_name: Protocol
config_path: [""]
preferred_value: ["^2$", "(never"]
preferred_value_match: regex,any
---
config_name: X11Forwarding
config_path: [""]
case_insensitive: true
preferred_value: ["NO"]
---
config_name: LogLevel
config_path: [""]
case_insensitive: true
preferred_value: ["^verbose$"]
preferred_value_match: regex,any
---
config_name: UsePAM
config_path: [""]
case_insensitive: true
non_preferred_value: ["Y"]
non_preferred_value_match: substr,any
---
config_name: Ciphers
config_path: [""]
value_separator: ","
non_preferred_value: ["3des-cbc", "arcfour"]
---
config_name: MACs
config_path: [""]
value_separator: ","
preferred_value: ["hmac-sha2-256", "hmac-sha2-512"]
---
config_name: mode
config_path: ["", "app"]
file_context: ["/etc/app"]
occurrence: first
preferred_value: ["strict"]
---
config_name: mode
config_path: ["", "app"]
file_context: ["/etc/app"]
occurrence: any
preferred_value: ["lax"]
---
config_name: mode
config_path: ["", "app"]
file_context: ["/etc/app"]
occurrence: all
preferred_value: ["strict"]
matched_description: every mode is strict
not_matched_preferred_value_description: some mode is not strict
---
config_name: Banner
config_path: [""]
absent_pass: true
not_present_description: no banner configured
---
config_name: Compression
config_path: [""]
absent_pass: true
---
config_name: MaxAuthTries
config_path: [""]
require_other_configs: ["ChallengeResponseAuthentication"]
preferred_value: ["4"]
---
config_name: MaxAuthTries
config_path: [""]
require_other_configs: ["PasswordAuthentication"]
preferred_value: ["4"]
---
config_name: ClientAliveInterval
config_path: [""]
file_context: ["sshd_config"]
preferred_value: ["300"]
`

// goldenRuleEntity carries an sshd_config and one key set in two
// /etc/app files with different values.
func goldenRuleEntity() *entity.Mem {
	m := entity.NewMem("golden-rules", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte(`PermitRootLogin no
Protocol 2
X11Forwarding No
LogLevel VERBOSE
UsePAM yes
Ciphers aes128-ctr, aes256-ctr,3des-cbc,
MACs hmac-sha2-256,hmac-sha2-512
MaxAuthTries 6
PasswordAuthentication no
`))
	m.AddFile("/etc/app/a.conf", []byte("mode = strict\n"))
	m.AddFile("/etc/app/b.conf", []byte("mode = lax\n"))
	return m
}

// TestReportsGolden pins the text and JSON reports — every status,
// message, detail and file — of one UbuntuHost, three fleet images, and a
// ValidateRules list against testdata/reports.golden, so an engine
// refactor that changes a single byte of a report fails here. Regenerate
// after an intended output change with:
//
//	go test -run TestReportsGolden -update .
func TestReportsGolden(t *testing.T) {
	v, err := New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	render := func(label string, rep *Report) {
		t.Helper()
		out.WriteString("=== " + label + " text\n")
		if err := WriteText(&out, rep, OutputOptions{Verbose: true, ShowPassing: true}); err != nil {
			t.Fatal(err)
		}
		out.WriteString("=== " + label + " json\n")
		if err := WriteJSON(&out, rep, OutputOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	host, _ := fixtures.UbuntuHost("golden-host", fixtures.Profile{Seed: 42, MisconfigRate: 0.3})
	rep, err := v.Validate(host)
	if err != nil {
		t.Fatal(err)
	}
	render("ubuntu-host", rep)

	reg, _ := fixtures.Fleet(3, fixtures.Profile{Seed: 7, MisconfigRate: 0.4})
	for _, ref := range reg.Images() {
		img, err := reg.Pull(ref)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := v.Validate(img.Entity())
		if err != nil {
			t.Fatal(err)
		}
		render("image "+ref, rep)
	}

	rf, err := cvl.ParseRuleFile("golden.yaml", []byte(goldenRules))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = v.ValidateRules(goldenRuleEntity(), rf.Rules, []string{"/etc/ssh", "/etc/app"})
	if err != nil {
		t.Fatal(err)
	}
	render("rule-list", rep)

	path := filepath.Join("testdata", "reports.golden")
	if *updateReports {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("reports differ from golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reports differ from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}
