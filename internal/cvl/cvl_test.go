package cvl

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"configvalidator/internal/yaml"
)

// Listing 2 of the paper, verbatim.
const listing2 = `
config_name: ssl_protocols
config_path: ["server", "http/server"]
config_description: "Enables the specified SSL protocols."
preferred_value: [ "TLSv1.2", "TLSv1.3" ]
non_preferred_value: [ "SSLv2", "SSLv3", "TLSv1", "TLSv1.1" ]
non_preferred_value_match: substr ,any
preferred_value_match: substr ,all
not_present_description: "ssl_protocols is not present."
not_matched_preferred_value_description: "Non -recommended TLS ver."
matched_description: "ssl_protocols key is set to TLS v1.2/1.3"
tags: ["#security", "#ssl", "#owasp"]
require_other_configs: [ listen , ssl_certificate , ssl_certificate_key ]
file_context: ["nginx.conf", "sites -enabled"]
`

// Listing 3 of the paper, verbatim.
const listing3 = `
config_schema_name: check_tmp_separate_partition
config_schema_description: "Check if /tmp is on a separate partition"
query_constraints: "dir = ?"
query_constraints_value: ["/tmp"]
query_columns: "*"
non_preferred_value: [""]
non_preferred_value_match: exact ,all
not_matched_preferred_value_description: "/tmp not on sep. partition"
matched_description: "/tmp is on a separate partition"
tags: ["#cis", "#cisubuntu14.04_2.1"]
`

// Listing 4 of the paper, verbatim.
const listing4 = `
path_name: /etc/mysql/my.cnf
path_description: "Permissions and ownership for mysql config file"
ownership: "0:0"
permission: 644
tags: [ "#owasp" ]
`

// Listing 1 of the paper (composite), with the PDF's spurious spaces fixed.
const listing1 = `
composite_rule_name: "mysql ssl-ca path and sysctl and nginx SSL"
composite_rule_description: "Check if nginx is running with SSL, ip_forward is disabled, and mysql server ssl-ca has a cert"
composite_rule: mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && sysctl.net.ipv4.ip_forward && nginx.listen
tags: ["docker", "nginx", "sysctl"]
matched_description: "mysql server ssl-ca has a cert, ip_forward is disabled, and nginx has SSL enabled."
not_matched_preferred_value_description: "Either mysql server ssl-ca does not have a cert, or ip_forward is enabled, or nginx has SSL disabled."
`

// Listing 5 of the paper, verbatim.
const listing5 = `
nginx:
  enabled: True
  config_search_paths:
    - /etc/nginx
  cvl_file:
    "component_configs/nginx.yaml"
`

func parseOneRule(t *testing.T, src string) *Rule {
	t.Helper()
	rf, err := ParseRuleFile("test.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Rules) != 1 {
		t.Fatalf("parsed %d rules, want 1", len(rf.Rules))
	}
	return rf.Rules[0]
}

func TestKeywordCounts(t *testing.T) {
	// The paper: 46 keywords total; 19 common; tree 9, schema 6, path 6,
	// script 3, composite 3.
	if got := KeywordCount(0); got != 46 {
		t.Errorf("total keywords = %d, want 46", got)
	}
	wants := map[KeywordGroup]int{
		GroupCommon:    19,
		GroupTree:      9,
		GroupSchema:    6,
		GroupPath:      6,
		GroupScript:    3,
		GroupComposite: 3,
	}
	for g, want := range wants {
		if got := KeywordCount(g); got != want {
			t.Errorf("%s keywords = %d, want %d", g, got, want)
		}
	}
}

func TestParseListing2TreeRule(t *testing.T) {
	r := parseOneRule(t, listing2)
	if r.Type != TypeTree {
		t.Fatalf("type = %v", r.Type)
	}
	if r.Name != "ssl_protocols" {
		t.Errorf("name = %q", r.Name)
	}
	if !reflect.DeepEqual(r.ConfigPath, []string{"server", "http/server"}) {
		t.Errorf("config_path = %v", r.ConfigPath)
	}
	if !reflect.DeepEqual(r.PreferredValue, []string{"TLSv1.2", "TLSv1.3"}) {
		t.Errorf("preferred_value = %v", r.PreferredValue)
	}
	if r.PreferredMatch != (MatchSpec{Kind: MatchSubstr, Quant: QuantAll}) {
		t.Errorf("preferred_value_match = %+v", r.PreferredMatch)
	}
	if r.NonPreferredMatch != (MatchSpec{Kind: MatchSubstr, Quant: QuantAny}) {
		t.Errorf("non_preferred_value_match = %+v", r.NonPreferredMatch)
	}
	if !r.HasTag("#owasp") || r.HasTag("#cis") {
		t.Errorf("tags = %v", r.Tags)
	}
	if !reflect.DeepEqual(r.RequireOtherConfigs, []string{"listen", "ssl_certificate", "ssl_certificate_key"}) {
		t.Errorf("require_other_configs = %v", r.RequireOtherConfigs)
	}
	if len(r.FileContext) != 2 {
		t.Errorf("file_context = %v", r.FileContext)
	}
}

func TestParseListing3SchemaRule(t *testing.T) {
	r := parseOneRule(t, listing3)
	if r.Type != TypeSchema {
		t.Fatalf("type = %v", r.Type)
	}
	if r.Name != "check_tmp_separate_partition" {
		t.Errorf("name = %q", r.Name)
	}
	if r.QueryConstraints != "dir = ?" {
		t.Errorf("query_constraints = %q", r.QueryConstraints)
	}
	if !reflect.DeepEqual(r.QueryConstraintsValue, []string{"/tmp"}) {
		t.Errorf("query_constraints_value = %v", r.QueryConstraintsValue)
	}
	// "*" scalar accepted as one-element list.
	if !reflect.DeepEqual(r.QueryColumns, []string{"*"}) {
		t.Errorf("query_columns = %v", r.QueryColumns)
	}
	if r.NonPreferredMatch != (MatchSpec{Kind: MatchExact, Quant: QuantAll}) {
		t.Errorf("non_preferred_value_match = %+v", r.NonPreferredMatch)
	}
}

func TestParseListing4PathRule(t *testing.T) {
	r := parseOneRule(t, listing4)
	if r.Type != TypePath {
		t.Fatalf("type = %v", r.Type)
	}
	if r.Name != "/etc/mysql/my.cnf" {
		t.Errorf("name = %q", r.Name)
	}
	if r.Ownership != "0:0" {
		t.Errorf("ownership = %q", r.Ownership)
	}
	if r.Permission != 0o644 {
		t.Errorf("permission = %o (YAML 644 should mean octal 644)", r.Permission)
	}
	if r.MaxPermission != -1 {
		t.Errorf("max_permission = %d, want unset", r.MaxPermission)
	}
}

func TestParseListing1CompositeRule(t *testing.T) {
	r := parseOneRule(t, listing1)
	if r.Type != TypeComposite {
		t.Fatalf("type = %v", r.Type)
	}
	refs := r.CompositeExpr.Refs()
	if len(refs) != 3 {
		t.Fatalf("refs = %+v", refs)
	}
	mysql := refs[0]
	if mysql.Entity != "mysql" || mysql.Key != "ssl-ca" || mysql.Section != "mysqld" || !mysql.WantValue {
		t.Errorf("mysql ref = %+v", mysql)
	}
	if mysql.Op != "==" || mysql.Literal != "/etc/mysql/cacert.pem" {
		t.Errorf("mysql comparison = %q %q", mysql.Op, mysql.Literal)
	}
	if refs[1].Entity != "sysctl" || refs[1].Key != "net.ipv4.ip_forward" || refs[1].WantValue {
		t.Errorf("sysctl ref = %+v", refs[1])
	}
	if refs[2].Entity != "nginx" || refs[2].Key != "listen" {
		t.Errorf("nginx ref = %+v", refs[2])
	}
}

func TestParseListing5Manifest(t *testing.T) {
	m, err := ParseManifest("manifest.yaml", []byte(listing5))
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := m.Entry("nginx")
	if !ok {
		t.Fatal("nginx entry missing")
	}
	if !entry.Enabled {
		t.Error("enabled should be true")
	}
	if !reflect.DeepEqual(entry.ConfigSearchPaths, []string{"/etc/nginx"}) {
		t.Errorf("config_search_paths = %v", entry.ConfigSearchPaths)
	}
	if entry.CVLFile != "component_configs/nginx.yaml" {
		t.Errorf("cvl_file = %q", entry.CVLFile)
	}
	if len(m.EnabledEntries()) != 1 {
		t.Error("enabled entries")
	}
}

func TestManifestErrors(t *testing.T) {
	tests := []struct{ name, src string }{
		{"not a mapping", "- a\n"},
		{"entity not mapping", "nginx: yes\n"},
		{"unknown key", "nginx:\n  cvl_file: x\n  wat: 1\n"},
		{"missing cvl_file", "nginx:\n  enabled: true\n"},
		{"bad enabled type", "nginx:\n  cvl_file: x\n  enabled: maybe_not_bool_but_string\n"},
		{"bad rule_type", "nginx:\n  cvl_file: x\n  rule_type: nope\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseManifest("m.yaml", []byte(tt.src)); err == nil {
				t.Errorf("manifest %q accepted", tt.src)
			}
		})
	}
}

func TestParseMatchSpec(t *testing.T) {
	tests := []struct {
		in      string
		want    MatchSpec
		wantErr bool
	}{
		{"exact,all", MatchSpec{MatchExact, QuantAll}, false},
		{"substr ,any", MatchSpec{MatchSubstr, QuantAny}, false},
		{"regex, any", MatchSpec{MatchRegex, QuantAny}, false},
		{" substr , all ", MatchSpec{MatchSubstr, QuantAll}, false},
		{"bogus,all", MatchSpec{}, true},
		{"exact,some", MatchSpec{}, true},
		{"exact", MatchSpec{}, true},
	}
	for _, tt := range tests {
		got, err := ParseMatchSpec(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseMatchSpec(%q) err = %v", tt.in, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseMatchSpec(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
	// Round trip through String.
	for _, s := range []string{"exact,all", "substr,any", "regex,all"} {
		spec, err := ParseMatchSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		if spec.String() != s {
			t.Errorf("String() = %q, want %q", spec.String(), s)
		}
	}
	if (MatchSpec{}).String() != "" {
		t.Error("zero spec should render empty")
	}
}

func TestRuleTypeRoundTrip(t *testing.T) {
	for _, typ := range []RuleType{TypeTree, TypeSchema, TypePath, TypeScript, TypeComposite} {
		back, err := ParseRuleType(typ.String())
		if err != nil || back != typ {
			t.Errorf("round trip %v: %v, %v", typ, back, err)
		}
	}
	if _, err := ParseRuleType("nope"); err == nil {
		t.Error("bad type parsed")
	}
}

func TestParseRuleErrors(t *testing.T) {
	tests := []struct{ name, src string }{
		{"unknown keyword", "config_name: x\nconfig_pth: [a]\n"},
		{"wrong group keyword", "config_name: x\nquery_constraints: \"a = ?\"\n"},
		{"no name keyword", "tags: [a]\n"},
		{"two name keywords", "config_name: x\npath_name: /y\nownership: \"0:0\"\n"},
		{"empty name", "config_name: \"\"\n"},
		{"bad match spec", "config_name: x\npreferred_value_match: fuzzy,all\n"},
		{"bad occurrence", "config_name: x\noccurrence: sometimes\n"},
		{"schema asserts nothing", "config_schema_name: x\n"},
		{"bad expect_rows", "config_schema_name: x\nexpect_rows: lots\n"},
		{"path asserts nothing", "path_name: /x\n"},
		{"bad ownership", "path_name: /x\nownership: root\n"},
		{"bad permission digits", "path_name: /x\npermission: 999\n"},
		{"permission wrong type", "path_name: /x\npermission: [6, 4, 4]\n"},
		{"script missing feature", "script_name: x\npreferred_value: [y]\n"},
		{"script asserts nothing", "script_name: x\nscript_feature: f\n"},
		{"composite missing expr", "composite_rule_name: x\n"},
		{"bad composite expr", "composite_rule_name: x\ncomposite_rule: \"a.b &&\"\n"},
		{"tags wrong type", "config_name: x\ntags: true\n"},
		{"manifest key in rule", "config_name: x\nenabled: true\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseRuleFile("f.yaml", []byte(tt.src)); err == nil {
				t.Errorf("rule %q accepted", tt.src)
			}
		})
	}
}

// Every keyword of the vocabulary, in a rule of its group's type, is
// applied or refused with its own reason; none reaches applyKeyword's
// fallback. A manifest keyword is refused as one.
func TestEveryKeywordIsHandledInARule(t *testing.T) {
	nameOf := map[KeywordGroup]string{GroupCommon: "config_name", GroupTree: "config_name",
		GroupSchema: "config_schema_name", GroupPath: "path_name", GroupScript: "script_name",
		GroupComposite: "composite_rule_name"}
	for _, kw := range keywordList {
		name := nameOf[Keywords[kw]]
		src := name + ": x\n"
		if kw == "rule_type" {
			src += "rule_type: config_tree\n"
		} else if kw != name {
			src += kw + ": x\n"
		}
		_, err := ParseRuleFile("f.yaml", []byte(src))
		if err != nil && strings.Contains(err.Error(), "unhandled keyword") {
			t.Errorf("%s: %v", kw, err)
		}
	}
	_, err := ParseRuleFile("f.yaml", []byte("config_name: x\ncvl_file: y\n"))
	if want := `cvl: f.yaml: rule 1: keyword "cvl_file": manifest keyword not valid inside a rule`; err == nil || err.Error() != want {
		t.Errorf("cvl_file in a rule: %v, want %s", err, want)
	}
}

// Every loader parse error wraps a *KeyError naming the key at fault and
// the mapping that holds it; the error text stays the loader's.
func TestParseErrorsNameTheKey(t *testing.T) {
	tests := []struct {
		name, src string
		manifest  bool
		key       string
		line      int // the key's line; the mapping's start for key ""
		text      string
	}{
		{"unknown keyword", "config_name: x\nconfig_pth: [a]\n", false, "config_pth", 2,
			`cvl: f.yaml: rule 1: unknown keyword "config_pth" (did you mean "config_path"?)`},
		{"wrong group", "config_name: x\nquery_constraints: q\n", false, "query_constraints", 2,
			`cvl: f.yaml: rule 1: keyword "query_constraints" belongs to schema rules, not config_tree rules`},
		{"bad value", "---\nconfig_name: x\ntags: [a]\noccurrence: sometimes\n", false, "occurrence", 4,
			`cvl: f.yaml: rule 1: keyword "occurrence": occurrence must be any, all, or first; got "sometimes"`},
		{"no name keyword", "config_name: a\n---\ntags: [a]\n", false, "", 3,
			`cvl: f.yaml: rule 2: rule has no name keyword (one of config_name, config_schema_name, path_name, script_name, composite_rule_name) and no rule_type`},
		{"parent not a string", "parent_cvl_file: [a]\n", false, "parent_cvl_file", 1,
			`cvl: f.yaml: parent_cvl_file must be a string`},
		{"duplicate parent", "parent_cvl_file: a\n---\nparent_cvl_file: b\n", false, "parent_cvl_file", 3,
			`cvl: f.yaml: duplicate parent_cvl_file`},
		{"unknown manifest key", "nginx:\n  cvl_file: x\n  wat: 1\n", true, "wat", 3,
			`cvl: manifest f.yaml: entity "nginx": unknown key "wat"`},
		{"bad manifest value", "nginx:\n  enabled: nope\n  cvl_file: x\n", true, "enabled", 2,
			`cvl: manifest f.yaml: entity "nginx": key "enabled": want a boolean, got string`},
		{"missing cvl_file", "a:\n  cvl_file: x\nnginx:\n  enabled: true\n", true, "nginx", 3,
			`cvl: manifest f.yaml: entity "nginx" missing cvl_file`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var err error
			if tt.manifest {
				_, err = ParseManifest("f.yaml", []byte(tt.src))
			} else {
				_, err = ParseRuleFile("f.yaml", []byte(tt.src))
			}
			if err == nil || err.Error() != tt.text {
				t.Fatalf("error = %v, want %s", err, tt.text)
			}
			var ke *KeyError
			if !errors.As(err, &ke) {
				t.Fatalf("%v wraps no *KeyError", err)
			}
			pos := ke.Map.Start()
			if tt.key != "" {
				pos = ke.Map.KeyPos(tt.key)
			}
			if ke.Key != tt.key || pos.Line != tt.line {
				t.Errorf("key %q at line %d, want %q at line %d", ke.Key, pos.Line, tt.key, tt.line)
			}
		})
	}
}

// ParseRule reads as the loader's first problem and unwraps to every key
// outside the rule type's vocabulary.
func TestParseRuleKeepsEveryVocabularyProblem(t *testing.T) {
	m, err := yaml.Decode([]byte("config_name: x\nfoo: 1\nquery_constraints: q\nbar: 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ParseRule(m.(*yaml.Map))
	if err == nil || err.Error() != `unknown keyword "foo"` {
		t.Fatalf("error = %v", err)
	}
	var all interface{ Unwrap() []error }
	if !errors.As(err, &all) {
		t.Fatalf("%v does not list its problems", err)
	}
	var keys []string
	for _, p := range all.Unwrap() {
		var ke *KeyError
		if errors.As(p, &ke) && ke.Err == nil && ke.Name == "x" {
			keys = append(keys, ke.Key)
		}
	}
	if !reflect.DeepEqual(keys, []string{"foo", "query_constraints", "bar"}) {
		t.Errorf("vocabulary problems at %v", keys)
	}
}

func TestSameRuleName(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		same bool
	}{
		{"net/ipv4/ip_forward", "net.ipv4.ip_forward", true},
		{"net.ipv4/ip_forward", "net/ipv4.ip_forward", true},
		{"listen", "listen", true},
		{"net/ipv4/ip_forward", "net-ipv4-ip_forward", false},
		{"a0", "a-", false},
		{"ssl", "ssl_ca", false},
	} {
		if got := SameRuleName(tc.a, tc.b); got != tc.same {
			t.Errorf("SameRuleName(%q, %q) = %v", tc.a, tc.b, got)
		}
	}
}

// A loader-parsed rule records the line its mapping starts on.
func TestRuleLineIsMappingLine(t *testing.T) {
	src := "parent_cvl_file: p.yaml\n---\n# a comment\nconfig_name: a\ntags: [x]\n---\n- config_name: b\n- config_name: c\n"
	rf, err := ParseRuleFile("f.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	var lines []int
	for _, r := range rf.Rules {
		lines = append(lines, r.Line)
	}
	if !reflect.DeepEqual(lines, []int{4, 7, 8}) {
		t.Errorf("rule lines = %v, want [4 7 8]", lines)
	}
}

func TestKeywordSuggestion(t *testing.T) {
	_, err := ParseRuleFile("f.yaml", []byte("config_name: x\nconfig_pth: [a]\n"))
	if err == nil || !strings.Contains(err.Error(), "config_path") {
		t.Errorf("typo error should suggest config_path: %v", err)
	}
}

func TestRuleFileFormats(t *testing.T) {
	asSequence := "- config_name: a\n- config_name: b\n"
	rf, err := ParseRuleFile("f.yaml", []byte(asSequence))
	if err != nil || len(rf.Rules) != 2 {
		t.Errorf("sequence format: %d rules, %v", len(rf.Rules), err)
	}
	asMultiDoc := "config_name: a\n---\nconfig_name: b\n---\nconfig_name: c\n"
	rf, err = ParseRuleFile("f.yaml", []byte(asMultiDoc))
	if err != nil || len(rf.Rules) != 3 {
		t.Errorf("multi-doc format: %d rules, %v", len(rf.Rules), err)
	}
}

func TestParseRuleFileParentDirective(t *testing.T) {
	src := "parent_cvl_file: base/nginx.yaml\n---\nconfig_name: a\n"
	rf, err := ParseRuleFile("f.yaml", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if rf.Parent != "base/nginx.yaml" || len(rf.Rules) != 1 {
		t.Errorf("parent = %q rules = %d", rf.Parent, len(rf.Rules))
	}
	dup := "parent_cvl_file: a\n---\nparent_cvl_file: b\n"
	if _, err := ParseRuleFile("f.yaml", []byte(dup)); err == nil {
		t.Error("duplicate parent accepted")
	}
	// Every spelling of the directive the YAML subset accepts.
	for _, src := range []string{
		"parent_cvl_file: p.yaml\n---\nconfig_name: a\n",
		"\"parent_cvl_file\": p.yaml\n",
		"'parent_cvl_file': p.yaml\r\n",
		"{parent_cvl_file: p.yaml}\n",
		"- {'parent_cvl_file': p.yaml}\n- config_name: a\n",
		"- parent_cvl_file: p.yaml\n",
		"--- parent_cvl_file: p.yaml # c\n",
	} {
		if rf, err := ParseRuleFile("f.yaml", []byte(src)); err != nil || rf.Parent != "p.yaml" {
			t.Errorf("%q: parent %v, err %v", src, rf, err)
		}
	}
}

func TestExplicitRuleType(t *testing.T) {
	src := "rule_type: config_tree\nconfig_name: x\n"
	r := parseOneRule(t, src)
	if r.Type != TypeTree {
		t.Errorf("type = %v", r.Type)
	}
}

func TestPermissionFormats(t *testing.T) {
	for _, src := range []string{
		"path_name: /x\npermission: 644\n",
		"path_name: /x\npermission: \"644\"\n",
		"path_name: /x\npermission: \"0644\"\n",
	} {
		r := parseOneRule(t, src)
		if r.Permission != 0o644 {
			t.Errorf("%q -> permission %o", src, r.Permission)
		}
	}
	r := parseOneRule(t, "path_name: /x\nmax_permission: 600\n")
	if r.MaxPermission != 0o600 || r.Permission != -1 {
		t.Errorf("max_permission = %o permission = %d", r.MaxPermission, r.Permission)
	}
}

func TestExistsRule(t *testing.T) {
	r := parseOneRule(t, "path_name: /etc/shadow\nexists: true\n")
	if r.Exists == nil || !*r.Exists {
		t.Error("exists not parsed")
	}
	r = parseOneRule(t, "path_name: /etc/telnetd.conf\nexists: false\n")
	if r.Exists == nil || *r.Exists {
		t.Error("exists:false not parsed")
	}
}

// --- inheritance ---

func readerFor(files map[string]string) FileReader {
	return func(path string) ([]byte, error) {
		content, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no such file %q", path)
		}
		return []byte(content), nil
	}
}

func TestInheritanceOverrideAndDisable(t *testing.T) {
	files := map[string]string{
		"base.yaml": strings.Join([]string{
			"- config_name: PermitRootLogin",
			"  preferred_value: [\"no\"]",
			"- config_name: Protocol",
			"  preferred_value: [\"2\"]",
			"- config_name: X11Forwarding",
			"  preferred_value: [\"no\"]",
		}, "\n"),
		"site.yaml": strings.Join([]string{
			"parent_cvl_file: base.yaml",
			"---",
			"# Site override: root login over ssh allowed from bastion.",
			"config_name: PermitRootLogin",
			"override: true",
			"preferred_value: [\"without-password\"]",
			"---",
			"config_name: X11Forwarding",
			"disabled: true",
			"---",
			"config_name: MaxAuthTries",
			"preferred_value: [\"4\"]",
		}, "\n"),
	}
	rules, err := ResolveRules(readerFor(files), "site.yaml")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name
	}
	want := []string{"PermitRootLogin", "Protocol", "MaxAuthTries"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("effective rules = %v, want %v", names, want)
	}
	// The override took the child's value and keeps parent position.
	if rules[0].PreferredValue[0] != "without-password" || !rules[0].Override {
		t.Errorf("override rule = %+v", rules[0])
	}
	// Rules keep provenance.
	if rules[1].Source != "base.yaml" || rules[0].Source != "site.yaml" {
		t.Errorf("sources = %q, %q", rules[1].Source, rules[0].Source)
	}
}

func TestInheritanceChain(t *testing.T) {
	files := map[string]string{
		"a.yaml": "config_name: one\n",
		"b.yaml": "parent_cvl_file: a.yaml\n---\nconfig_name: two\n",
		"c.yaml": "parent_cvl_file: b.yaml\n---\nconfig_name: three\n",
	}
	rules, err := ResolveRules(readerFor(files), "c.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Errorf("chain rules = %d", len(rules))
	}
}

func TestInheritanceCycle(t *testing.T) {
	files := map[string]string{
		"a.yaml": "parent_cvl_file: b.yaml\n---\nconfig_name: one\n",
		"b.yaml": "parent_cvl_file: a.yaml\n---\nconfig_name: two\n",
	}
	if _, err := ResolveRules(readerFor(files), "a.yaml"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestInheritanceMissingParent(t *testing.T) {
	files := map[string]string{"a.yaml": "parent_cvl_file: ghost.yaml\n---\nconfig_name: one\n"}
	if _, err := ResolveRules(readerFor(files), "a.yaml"); err == nil {
		t.Error("missing parent accepted")
	}
}

func TestDisableNonexistentRuleDropped(t *testing.T) {
	files := map[string]string{"a.yaml": "config_name: ghost\ndisabled: true\n---\nconfig_name: real\n"}
	rules, err := ResolveRules(readerFor(files), "a.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Name != "real" {
		t.Errorf("rules = %+v", rules)
	}
}

func TestFilterByTags(t *testing.T) {
	rules := []*Rule{
		{Name: "a", Tags: []string{"#cis", "#ssh"}},
		{Name: "b", Tags: []string{"#owasp"}},
		{Name: "c", Tags: []string{"#cis"}},
	}
	filter := func(tags []string) []*Rule {
		var out []*Rule
		for _, r := range rules {
			if r.MatchesTags(tags) {
				out = append(out, r)
			}
		}
		return out
	}
	got := filter([]string{"#cis"})
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Errorf("filtered = %+v", got)
	}
	if got := filter(nil); len(got) != 3 {
		t.Error("empty filter should return all")
	}
	if got := filter([]string{"#none"}); len(got) != 0 {
		t.Error("non-matching filter should return none")
	}
}

func TestFilterByEntityType(t *testing.T) {
	rules := []*Rule{
		{Name: "any"},
		{Name: "img", AppliesTo: []string{"image"}},
		{Name: "both", AppliesTo: []string{"image", "container"}},
	}
	var got []*Rule
	for _, r := range rules {
		if r.AppliesToType("container") {
			got = append(got, r)
		}
	}
	if len(got) != 2 || got[0].Name != "any" || got[1].Name != "both" {
		t.Errorf("filtered = %+v", got)
	}
}

// --- composite expressions ---

type mapResolver struct {
	rules  map[string]bool   // "entity/rule" -> passed
	values map[string]string // "entity/key[/section]" -> value
}

func (m mapResolver) RuleResult(entityName, ruleName string) (bool, bool) {
	v, ok := m.rules[entityName+"/"+ruleName]
	return v, ok
}

func (m mapResolver) ConfigValue(entityName, key, section string) (string, bool) {
	k := entityName + "/" + key
	if section != "" {
		k += "/" + section
	}
	v, ok := m.values[k]
	return v, ok
}

func TestCompositeEvalListing1(t *testing.T) {
	expr, err := ParseComposite(`mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && sysctl.net.ipv4.ip_forward && nginx.listen`)
	if err != nil {
		t.Fatal(err)
	}
	res := mapResolver{
		rules: map[string]bool{
			"sysctl/net.ipv4.ip_forward": true, // per-entity rule passed: forwarding disabled
			"nginx/listen":               true, // per-entity rule passed: ssl on listen
		},
		values: map[string]string{
			"mysql/ssl-ca/mysqld": "/etc/mysql/cacert.pem",
		},
	}
	ok, err := expr.Eval(res)
	if err != nil || !ok {
		t.Errorf("eval = %v, %v; want true", ok, err)
	}
	// Flip each leg and verify the conjunction fails.
	res.values["mysql/ssl-ca/mysqld"] = "/tmp/evil.pem"
	if ok, _ := expr.Eval(res); ok {
		t.Error("wrong cert should fail")
	}
	res.values["mysql/ssl-ca/mysqld"] = "/etc/mysql/cacert.pem"
	res.rules["sysctl/net.ipv4.ip_forward"] = false
	if ok, _ := expr.Eval(res); ok {
		t.Error("failing sysctl rule should fail")
	}
}

func TestCompositeOperators(t *testing.T) {
	res := mapResolver{
		rules:  map[string]bool{"a/p": true, "a/q": false},
		values: map[string]string{"b/x": "1"},
	}
	tests := []struct {
		src  string
		want bool
	}{
		{"a.p", true},
		{"a.q", false},
		{"!a.q", true},
		{"a.p && a.q", false},
		{"a.p || a.q", true},
		{"a.q || a.q", false},
		{"(a.p || a.q) && a.p", true},
		{"!(a.p && a.q)", true},
		{`b.x == "1"`, true},
		{`b.x == "2"`, false},
		{`b.x != "2"`, true},
		{`b.missing == "1"`, false},
		{`b.missing != "1"`, true},
		{"b.x", true},             // existence fallback
		{"b.missing", false},      // absent key
		{"a.p && b.x == 1", true}, // unquoted literal
	}
	for _, tt := range tests {
		expr, err := ParseComposite(tt.src)
		if err != nil {
			t.Errorf("parse %q: %v", tt.src, err)
			continue
		}
		got, err := expr.Eval(res)
		if err != nil || got != tt.want {
			t.Errorf("eval %q = %v (%v), want %v", tt.src, got, err, tt.want)
		}
	}
}

func TestCompositeParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"a.b &&",
		"&& a.b",
		"(a.b",
		"a.b ==",
		`a.b == "unterminated`,
		"justoneword",
		"a.",
		".b",
		"a.b.CONFIGPATH=[x].WRONG",
		"a.b extra",
	} {
		if _, err := ParseComposite(src); err == nil {
			t.Errorf("ParseComposite(%q) succeeded", src)
		}
	}
}

func TestCompositeStringRoundTrip(t *testing.T) {
	srcs := []string{
		`mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && sysctl.net.ipv4.ip_forward && nginx.listen`,
		"a.p || !b.q && c.r",
		`(a.p || b.q) && !c.r`,
		`x.y != "z"`,
	}
	res := mapResolver{
		rules:  map[string]bool{"a/p": true, "b/q": false, "c/r": true, "sysctl/net.ipv4.ip_forward": true, "nginx/listen": false},
		values: map[string]string{"mysql/ssl-ca/mysqld": "/etc/mysql/cacert.pem", "x/y": "z"},
	}
	for _, src := range srcs {
		e1, err := ParseComposite(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		e2, err := ParseComposite(e1.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", e1.String(), err)
		}
		v1, err1 := e1.Eval(res)
		v2, err2 := e2.Eval(res)
		if err1 != nil || err2 != nil || v1 != v2 {
			t.Errorf("round trip of %q changed semantics: %v vs %v", src, v1, v2)
		}
	}
}
