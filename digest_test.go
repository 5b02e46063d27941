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
			run := func() FleetResult { return journaledScan(t, path, files, host) }
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

// journaledScan runs a one-entity fleet over the journal at path, with
// the manifest m.yaml and the rule files in files, and returns the one
// result, which must hold one rule verdict.
func journaledScan(t *testing.T, path string, files map[string]string, ent Entity) FleetResult {
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
	ch <- ent
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

// TestJournalResumeSeesPathRuleTargets pins that an entity digest covers
// what a path rule checks of a target no search path walk reaches — a
// file outside the search paths, or a search path's own directory: after
// the target's mode, owner or existence changes, a journaled fleet run
// re-scans the entity and reports the new verdict instead of replaying
// the stale one.
func TestJournalResumeSeesPathRuleTargets(t *testing.T) {
	const shadowRule = "path_name: /etc/shadow\nownership: \"0:42\"\nmax_permission: 640\n"
	shadow := []byte("root:*:19000:0:99999:7:::\n")
	for _, tc := range []struct {
		name, rule string
		edit       func(*entity.Mem)
	}{
		{"mode", shadowRule, func(h *entity.Mem) {
			h.AddFile("/etc/shadow", shadow, entity.WithMode(0o666), entity.WithOwner(0, 42))
		}},
		{"owner", shadowRule, func(h *entity.Mem) {
			h.AddFile("/etc/shadow", shadow, entity.WithMode(0o640), entity.WithOwner(1000, 42))
		}},
		{"removed", shadowRule, func(h *entity.Mem) { h.RemoveFile("/etc/shadow") }},
		{"search root", "path_name: /etc/ssh\nmax_permission: 755\n", func(h *entity.Mem) {
			h.AddDir("/etc/ssh", entity.WithMode(0o777))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"m.yaml":    "shadow:\n  config_search_paths: [/etc/ssh]\n  cvl_file: rule.yaml\n",
				"rule.yaml": tc.rule,
			}
			host := entity.NewMem("h", entity.TypeHost)
			host.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"))
			host.AddFile("/etc/shadow", shadow, entity.WithMode(0o640), entity.WithOwner(0, 42))
			path := filepath.Join(t.TempDir(), "fleet.cvj")
			if first := journaledScan(t, path, files, host); first.Report.Results[0].Status != StatusPass {
				t.Fatalf("before the change: %v, want PASS", first.Report.Results[0].Status)
			}
			tc.edit(host)
			second := journaledScan(t, path, files, host)
			if second.Resumed {
				t.Errorf("resumed a journaled result after the %s change", tc.name)
			}
			if got := second.Report.Results[0].Status; got != StatusFail {
				t.Errorf("after the %s change: %v, want FAIL", tc.name, got)
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
