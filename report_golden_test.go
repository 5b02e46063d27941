package configvalidator

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/journal"
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

// labeledReport is one report testdata/reports.golden pins.
type labeledReport struct {
	label string
	rep   *Report
}

// goldenReports validates the golden file's entities, in file order.
func goldenReports(t *testing.T) []labeledReport {
	t.Helper()
	v, err := New(WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var out []labeledReport
	host, _ := fixtures.UbuntuHost("golden-host", fixtures.Profile{Seed: 42, MisconfigRate: 0.3})
	rep, err := v.Validate(host)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, labeledReport{"ubuntu-host", rep})

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
		out = append(out, labeledReport{"image " + ref, rep})
	}

	rf, err := cvl.ParseRuleFile("golden.yaml", []byte(goldenRules))
	if err != nil {
		t.Fatal(err)
	}
	rep, err = v.ValidateRules(goldenRuleEntity(), rf.Rules, []string{"/etc/ssh", "/etc/app"})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, labeledReport{"rule-list", rep})
}

// renderReport renders rep as the golden file does: verbose text with
// passing results, or JSON.
func renderReport(t *testing.T, rep *Report, asJSON bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if asJSON {
		err = WriteJSON(&buf, rep, OutputOptions{})
	} else {
		err = WriteText(&buf, rep, OutputOptions{Verbose: true, ShowPassing: true})
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordCodecOnGoldenReports checks the journal's record codec on
// every report testdata/reports.golden pins: the report's encoding is
// json.Marshal's, it decodes to json.Unmarshal's value, and a record
// appended to a journal replays into a report that renders like the
// original, as text and as JSON.
func TestRecordCodecOnGoldenReports(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.cvj")
	j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps := goldenReports(t)
	for i, g := range reps {
		rr := NewJournalReport(g.rep)
		want, err := json.Marshal(rr)
		if err != nil {
			t.Fatal(err)
		}
		if got := journal.AppendReport(nil, rr); !bytes.Equal(got, want) {
			t.Fatalf("%s: encoding differs from json.Marshal", g.label)
		}
		var oracle, got *JournalReport
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		var d journal.Decoder
		d.Reset(string(want))
		d.Report(&got)
		if err := d.End(); err != nil {
			t.Fatalf("%s: decode: %v", g.label, err)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Fatalf("%s: decoded report differs from json.Unmarshal's", g.label)
		}
		if err := j.Append(JournalRecord{Entity: g.label, Digest: fmt.Sprint(i), Report: rr}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j, err = OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i, g := range reps {
		rec, ok := j.Lookup(g.label, fmt.Sprint(i))
		if !ok {
			t.Fatalf("%s: not replayed", g.label)
		}
		for _, asJSON := range []bool{false, true} {
			if !bytes.Equal(renderReport(t, rec.Report.Report(), asJSON), renderReport(t, g.rep, asJSON)) {
				t.Errorf("%s: replayed report renders differently (json=%v)", g.label, asJSON)
			}
		}
	}
}

// TestReportsGolden pins the text and JSON reports — every status,
// message, detail and file — of one UbuntuHost, three fleet images, and a
// ValidateRules list against testdata/reports.golden, so an engine
// refactor that changes a single byte of a report fails here. Regenerate
// after an intended output change with:
//
//	go test -run TestReportsGolden -update .
func TestReportsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, g := range goldenReports(t) {
		out.WriteString("=== " + g.label + " text\n")
		out.Write(renderReport(t, g.rep, false))
		out.WriteString("=== " + g.label + " json\n")
		out.Write(renderReport(t, g.rep, true))
	}

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
