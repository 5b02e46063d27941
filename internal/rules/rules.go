// Package rules ships ConfigValidator's built-in rule library: the Table-1
// coverage of the paper — 11 target types spanning 135 rules. System
// services (sshd, sysctl, audit, fstab, modprobe) follow CIS benchmarks;
// applications (apache, nginx, hadoop, mysql) follow OWASP/HIPAA/PCI
// guidance; cloud services cover Docker (CIS Docker benchmark) and
// OpenStack (OSSG).
package rules

import (
	"fmt"

	"configvalidator/internal/cvl"
)

// Checklist-size constants used for the paper's coverage claims.
const (
	// CISDockerChecklistSize is the number of automatable checks in the
	// CIS Docker benchmark sections this library targets; the built-in
	// docker rules cover 13 of them (~41%, matching §4.1).
	CISDockerChecklistSize = 32
	// UbuntuAuditChecklistSize is the number of auditd rules in the CIS
	// Ubuntu checklist; the built-in audit rules cover all of them
	// ("all of the audit rules of the Ubuntu checklist", §4.1).
	UbuntuAuditChecklistSize = 20
)

// Target describes one supported target type (a Table-1 row item).
type Target struct {
	// Name is the manifest entity name.
	Name string
	// Category is "application", "system", or "cloud" (Table 1 grouping).
	Category string
	// Standard is the checklist the rules conform to.
	Standard string
	// RuleFile is the library path of the target's CVL rules.
	RuleFile string
	// SearchPaths are the default configuration search paths.
	SearchPaths []string
}

// Targets returns the 11 supported targets in Table-1 order.
func Targets() []Target {
	return []Target{
		{Name: "apache", Category: "application", Standard: "OWASP", RuleFile: "component_configs/apache.yaml", SearchPaths: []string{"/etc/apache2"}},
		{Name: "nginx", Category: "application", Standard: "OWASP", RuleFile: "component_configs/nginx.yaml", SearchPaths: []string{"/etc/nginx"}},
		{Name: "hadoop", Category: "application", Standard: "HIPAA/PCI", RuleFile: "component_configs/hadoop.yaml", SearchPaths: []string{"/etc/hadoop"}},
		{Name: "mysql", Category: "application", Standard: "OWASP", RuleFile: "component_configs/mysql.yaml", SearchPaths: []string{"/etc/mysql"}},
		{Name: "audit", Category: "system", Standard: "CIS", RuleFile: "component_configs/audit.yaml", SearchPaths: []string{"/etc/audit"}},
		{Name: "fstab", Category: "system", Standard: "CIS", RuleFile: "component_configs/fstab.yaml", SearchPaths: []string{"/etc/fstab"}},
		{Name: "sshd", Category: "system", Standard: "CIS", RuleFile: "component_configs/sshd.yaml", SearchPaths: []string{"/etc/ssh"}},
		{Name: "sysctl", Category: "system", Standard: "CIS", RuleFile: "component_configs/sysctl.yaml", SearchPaths: []string{"/etc/sysctl.conf", "/etc/sysctl.d"}},
		{Name: "modprobe", Category: "system", Standard: "CIS", RuleFile: "component_configs/modprobe.yaml", SearchPaths: []string{"/etc/modprobe.d"}},
		{Name: "openstack", Category: "cloud", Standard: "OSSG", RuleFile: "component_configs/openstack.yaml", SearchPaths: []string{"/openstack"}},
		{Name: "docker", Category: "cloud", Standard: "CIS", RuleFile: "component_configs/docker.yaml", SearchPaths: []string{"/etc/docker"}},
	}
}

// Files returns the embedded rule library as path → YAML content, including
// the manifest. The layout mirrors the paper's Listing 5
// ("component_configs/nginx.yaml").
func Files() map[string]string {
	out := map[string]string{
		"manifest.yaml":                    manifestYAML(),
		"component_configs/sshd.yaml":      sshdRules,
		"component_configs/sysctl.yaml":    sysctlRules,
		"component_configs/audit.yaml":     auditRules,
		"component_configs/fstab.yaml":     fstabRules,
		"component_configs/modprobe.yaml":  modprobeRules,
		"component_configs/nginx.yaml":     nginxRules,
		"component_configs/apache.yaml":    apacheRules,
		"component_configs/mysql.yaml":     mysqlRules,
		"component_configs/hadoop.yaml":    hadoopRules,
		"component_configs/docker.yaml":    dockerRules,
		"component_configs/openstack.yaml": openstackRules,
	}
	return out
}

func manifestYAML() string {
	out := ""
	for _, t := range Targets() {
		out += t.Name + ":\n  enabled: True\n  config_search_paths:\n"
		for _, p := range t.SearchPaths {
			out += "    - " + p + "\n"
		}
		out += "  cvl_file: " + t.RuleFile + "\n"
	}
	return out
}

// Reader returns a cvl.FileReader over the embedded library.
func Reader() cvl.FileReader {
	files := Files()
	return func(path string) ([]byte, error) {
		content, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("rules: no embedded file %q", path)
		}
		return []byte(content), nil
	}
}

// Manifest parses the embedded manifest covering all 11 targets.
func Manifest() (*cvl.Manifest, error) {
	return cvl.ParseManifest("manifest.yaml", []byte(manifestYAML()))
}

// Load parses the rule file for one target.
func Load(target string) ([]*cvl.Rule, error) {
	for _, t := range Targets() {
		if t.Name == target {
			return cvl.ResolveRules(Reader(), t.RuleFile)
		}
	}
	return nil, fmt.Errorf("rules: unknown target %q", target)
}

// All parses every target's rules and returns them keyed by target name.
func All() (map[string][]*cvl.Rule, error) {
	out := make(map[string][]*cvl.Rule, len(Targets()))
	for _, t := range Targets() {
		rules, err := Load(t.Name)
		if err != nil {
			return nil, fmt.Errorf("rules: target %s: %w", t.Name, err)
		}
		out[t.Name] = rules
	}
	return out, nil
}
