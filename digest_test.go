package configvalidator

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
)

// permitRootLogin is a rule that passes when sshd_config's PermitRootLogin
// is want.
func permitRootLogin(want string) string {
	return "config_name: PermitRootLogin\nconfig_path: [\"\"]\nfile_context: [sshd_config]\npreferred_value: [\"" + want + "\"]\n"
}

// TestJournalResumeSeesRuleChainEdits pins that an entity digest covers
// the whole parent_cvl_file chain its rule file resolves through: after
// an edit to the parent or grandparent rule file, a journaled fleet run
// re-scans the entity and reports the new verdict instead of replaying
// the stale one.
func TestJournalResumeSeesRuleChainEdits(t *testing.T) {
	host := entity.NewMem("h", entity.TypeHost)
	host.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin yes\n"))
	for _, tc := range []struct {
		name   string
		files  map[string]string
		edited string
	}{
		{"parent", map[string]string{
			"child.yaml":  "parent_cvl_file: parent.yaml\n",
			"parent.yaml": permitRootLogin("no"),
		}, "parent.yaml"},
		{"grandparent", map[string]string{
			"child.yaml":  "parent_cvl_file: parent.yaml\n",
			"parent.yaml": "parent_cvl_file: grand.yaml\n",
			"grand.yaml":  permitRootLogin("no"),
		}, "grand.yaml"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := tc.files
			files["m.yaml"] = "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: child.yaml\n"
			path := filepath.Join(t.TempDir(), "fleet.cvj")
			run := func() FleetResult {
				t.Helper()
				m, err := cvl.ParseManifest("m.yaml", []byte(files["m.yaml"]))
				if err != nil {
					t.Fatal(err)
				}
				read := func(p string) ([]byte, error) { return []byte(files[p]), nil }
				v, err := New(WithManifest(m, read))
				if err != nil {
					t.Fatal(err)
				}
				j, err := OpenJournal(path, JournalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				ch := make(chan Entity, 1)
				ch <- host
				close(ch)
				var out []FleetResult
				for res := range v.ValidateFleet(context.Background(), ch, FleetOptions{Workers: 1, Journal: j}) {
					out = append(out, res)
				}
				if len(out) != 1 || out[0].Err != nil || len(out[0].Report.Results) != 1 {
					t.Fatalf("fleet results = %+v", out)
				}
				return out[0]
			}
			if first := run(); first.Report.Results[0].Status != StatusFail {
				t.Fatalf("before the edit: %v, want FAIL", first.Report.Results[0].Status)
			}
			files[tc.edited] = strings.Replace(files[tc.edited], `["no"]`, `["yes"]`, 1)
			second := run()
			if second.Resumed {
				t.Errorf("resumed a journaled result after %s changed", tc.edited)
			}
			if got := second.Report.Results[0].Status; got != StatusPass {
				t.Errorf("after editing %s: %v, want PASS", tc.edited, got)
			}
		})
	}
}

// TestConfigDigestPinned pins the digest of a built-in-library scan, whose
// rule files have no parents, so journals written before the digest
// covered parent chains still replay.
func TestConfigDigestPinned(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("pinned", fixtures.Profile{Seed: 3, MisconfigRate: 0.4})
	for _, tc := range []struct{ target, want string }{
		{"", "cd3013d1921533752abc57c31dd7d1d506b27ae1aa8fc66090b78d5c28e99e79"},
		{"sshd", "8f0d877602e758ae6017b70fb98a0d76718b3e37cf5afc9da4cd043c5b9864d4"},
	} {
		got, err := v.ConfigDigest(host, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("ConfigDigest(target %q) = %s, want %s", tc.target, got, tc.want)
		}
	}
}
