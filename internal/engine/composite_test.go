package engine

import (
	"fmt"
	"strings"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
)

// listing1Files is a complete manifest + rule-file set reproducing the
// paper's Listing 1 composite scenario: nginx SSL + sysctl ip_forward +
// mysql ssl-ca, combined in a composite rule.
var listing1Files = map[string]string{
	"manifest.yaml": `
nginx:
  enabled: True
  config_search_paths:
    - /etc/nginx
  cvl_file: nginx.yaml
sysctl:
  enabled: True
  config_search_paths:
    - /etc/sysctl.conf
  cvl_file: sysctl.yaml
mysql:
  enabled: True
  config_search_paths:
    - /etc/mysql
  cvl_file: mysql.yaml
stack:
  enabled: True
  cvl_file: composite.yaml
`,
	"nginx.yaml": `
config_name: listen
config_path: ["server", "http/server"]
preferred_value: ["ssl"]
preferred_value_match: substr,any
matched_description: "nginx has SSL enabled on listening sockets"
`,
	// The sysctl lens expands dotted keys into nested paths, so the rule
	// addresses the key as a slash path from the root.
	"sysctl.yaml": `
config_name: net/ipv4/ip_forward
config_path: [""]
preferred_value: ["0"]
matched_description: "ip_forward is disabled"
`,
	"mysql.yaml": `
config_name: ssl-ca
config_path: ["mysqld"]
preferred_value: ["/etc/mysql/cacert.pem"]
matched_description: "mysql ssl-ca is configured"
`,
	"composite.yaml": `
composite_rule_name: "mysql ssl-ca path and sysctl and nginx SSL"
composite_rule_description: "Check if nginx is running with SSL, ip_forward is disabled, and mysql server ssl-ca has a cert"
composite_rule: mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && sysctl.net.ipv4.ip_forward && nginx.listen
tags: ["docker", "nginx", "sysctl"]
matched_description: "mysql server ssl-ca has a cert, ip_forward is disabled, and nginx has SSL enabled."
not_matched_preferred_value_description: "Either mysql server ssl-ca does not have a cert, or ip_forward is enabled, or nginx has SSL disabled."
`,
}

// stackEntity builds a host carrying all three applications, with knobs for
// each leg of the composite.
func stackEntity(sslListen bool, ipForward string, sslCA string) *entity.Mem {
	m := entity.NewMem("stack-host", entity.TypeHost)
	listen := "443 ssl"
	if !sslListen {
		listen = "80"
	}
	m.AddFile("/etc/nginx/nginx.conf", []byte(fmt.Sprintf("http {\n  server {\n    listen %s;\n  }\n}\n", listen)))
	m.AddFile("/etc/sysctl.conf", []byte(fmt.Sprintf("net.ipv4.ip_forward = %s\n", ipForward)))
	m.AddFile("/etc/mysql/my.cnf", []byte(fmt.Sprintf("[mysqld]\nssl-ca = %s\n", sslCA)))
	return m
}

func validateStack(t *testing.T, m *entity.Mem) *Report {
	t.Helper()
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(listing1Files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) {
		src, ok := listing1Files[path]
		if !ok {
			return nil, fmt.Errorf("no file %q", path)
		}
		return []byte(src), nil
	}
	rep, err := New(nil).Validate(m, manifest, NewCachedSource(read), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func compositeResult(t *testing.T, rep *Report) *Result {
	t.Helper()
	for _, r := range rep.Results {
		if r.Rule != nil && r.Rule.Type == cvl.TypeComposite {
			return r
		}
	}
	t.Fatalf("no composite result in %+v", rep.Results)
	return nil
}

func TestCompositeListing1TruthTable(t *testing.T) {
	tests := []struct {
		name      string
		sslListen bool
		ipForward string
		sslCA     string
		want      Status
	}{
		{"all good", true, "0", "/etc/mysql/cacert.pem", StatusPass},
		{"nginx without ssl", false, "0", "/etc/mysql/cacert.pem", StatusFail},
		{"ip forwarding on", true, "1", "/etc/mysql/cacert.pem", StatusFail},
		{"wrong mysql cert", true, "0", "/tmp/rogue.pem", StatusFail},
		{"everything wrong", false, "1", "/tmp/rogue.pem", StatusFail},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rep := validateStack(t, stackEntity(tt.sslListen, tt.ipForward, tt.sslCA))
			res := compositeResult(t, rep)
			if res.Status != tt.want {
				t.Errorf("composite = %v, want %v (detail: %s)", res.Status, tt.want, res.Detail)
			}
			if tt.want == StatusPass && res.Message != "mysql server ssl-ca has a cert, ip_forward is disabled, and nginx has SSL enabled." {
				t.Errorf("message = %q", res.Message)
			}
		})
	}
}

func TestManifestValidationAllEntities(t *testing.T) {
	rep := validateStack(t, stackEntity(true, "0", "/etc/mysql/cacert.pem"))
	// Three per-entity rules + one composite.
	if len(rep.Results) != 4 {
		t.Fatalf("results = %d: %+v", len(rep.Results), rep.Results)
	}
	for _, r := range rep.Results {
		if r.Status != StatusPass {
			t.Errorf("rule %s on %s = %v (%s)", r.Rule.Name, r.ManifestEntity, r.Status, r.Detail)
		}
	}
	// Entity attribution is preserved.
	byEntity := make(map[string]int)
	for _, r := range rep.Results {
		byEntity[r.ManifestEntity]++
	}
	for _, want := range []string{"nginx", "sysctl", "mysql", "stack"} {
		if byEntity[want] != 1 {
			t.Errorf("entity %s results = %d", want, byEntity[want])
		}
	}
}

func TestManifestDisabledEntitySkipped(t *testing.T) {
	files := map[string]string{
		"manifest.yaml": "nginx:\n  enabled: False\n  cvl_file: nginx.yaml\n",
		"nginx.yaml":    "config_name: listen\n",
	}
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) { return []byte(files[path]), nil }
	rep, err := New(nil).Validate(entity.NewMem("h", entity.TypeHost), manifest, NewCachedSource(read), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("disabled entity produced results: %+v", rep.Results)
	}
}

func TestManifestMissingRuleFile(t *testing.T) {
	manifest, err := cvl.ParseManifest("m.yaml", []byte("nginx:\n  cvl_file: ghost.yaml\n"))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) { return nil, fmt.Errorf("no file %q", path) }
	if _, err := New(nil).Validate(entity.NewMem("h", entity.TypeHost), manifest, NewCachedSource(read), nil); err == nil {
		t.Error("missing rule file accepted")
	}
}

func TestManifestEntryTagFilter(t *testing.T) {
	files := map[string]string{
		"manifest.yaml": "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: sshd.yaml\n  tags: [\"#ssl\"]\n",
		"sshd.yaml": strings.Join([]string{
			"config_name: PermitRootLogin",
			"config_path: [\"\"]",
			"preferred_value: [\"no\"]",
			"tags: [\"#cis\"]",
			"---",
			"config_name: Ciphers",
			"config_path: [\"\"]",
			"non_preferred_value: [\"3des\"]",
			"non_preferred_value_match: substr,any",
			"tags: [\"#ssl\"]",
		}, "\n"),
	}
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(p string) ([]byte, error) { return []byte(files[p]), nil }
	m := entity.NewMem("h", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin yes\nCiphers aes256-ctr\n"))
	rep, err := New(nil).Validate(m, manifest, NewCachedSource(read), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only the #ssl-tagged rule runs.
	if len(rep.Results) != 1 || rep.Results[0].Rule.Name != "Ciphers" {
		t.Fatalf("results = %+v", rep.Results)
	}
}

func TestCompositeParenthesesAtManifestLevel(t *testing.T) {
	files := map[string]string{
		"manifest.yaml": "sysctl:\n  config_search_paths: [/etc/sysctl.conf]\n  cvl_file: sysctl.yaml\nagg:\n  cvl_file: agg.yaml\n",
		"sysctl.yaml": strings.Join([]string{
			"config_name: net/ipv4/ip_forward",
			"config_path: [\"\"]",
			"preferred_value: [\"0\"]",
			"---",
			"config_name: net/ipv4/tcp_syncookies",
			"config_path: [\"\"]",
			"preferred_value: [\"1\"]",
		}, "\n"),
		"agg.yaml": "composite_rule_name: either\ncomposite_rule: (sysctl.net.ipv4.ip_forward || sysctl.net.ipv4.tcp_syncookies) && !sysctl.missing.rule\n",
	}
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(p string) ([]byte, error) { return []byte(files[p]), nil }
	m := entity.NewMem("h", entity.TypeHost)
	// ip_forward fails, syncookies passes -> OR true; missing ref false,
	// negated true -> composite passes.
	m.AddFile("/etc/sysctl.conf", []byte("net.ipv4.ip_forward = 1\nnet.ipv4.tcp_syncookies = 1\n"))
	rep, err := New(nil).Validate(m, manifest, NewCachedSource(read), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := compositeResult(t, rep)
	if res.Status != StatusPass {
		t.Fatalf("composite = %v (%s)", res.Status, res.Detail)
	}
}

func TestCompositeMissingEntityRefs(t *testing.T) {
	// A composite referencing entities with no crawled config: bare ref
	// falls back to existence and fails gracefully.
	rep := validateStack(t, entity.NewMem("bare-host", entity.TypeHost))
	res := compositeResult(t, rep)
	if res.Status != StatusFail {
		t.Errorf("composite on empty host = %v", res.Status)
	}
}
