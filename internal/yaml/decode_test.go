package yaml

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func mustDecode(t *testing.T, src string) any {
	t.Helper()
	v, err := Decode([]byte(src))
	if err != nil {
		t.Fatalf("Decode(%q) error: %v", src, err)
	}
	return v
}

func asMap(t *testing.T, v any) *Map {
	t.Helper()
	m, ok := v.(*Map)
	if !ok {
		t.Fatalf("expected *Map, got %T (%v)", v, v)
	}
	return m
}

func TestDecodeScalars(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want any
	}{
		{"string", "hello", "hello"},
		{"int", "42", int64(42)},
		{"negative int", "-7", int64(-7)},
		{"hex int", "0x1f", int64(31)},
		{"float", "3.14", 3.14},
		{"bool true", "true", true},
		{"bool false", "False", false},
		{"null word", "null", nil},
		{"null tilde", "~", nil},
		{"quoted number stays string", `"42"`, "42"},
		{"single quoted", `'hello world'`, "hello world"},
		{"single quote escape", `'it''s'`, "it's"},
		{"double quote escapes", `"a\tb\nc"`, "a\tb\nc"},
		{"version-like string", "1.2.3", "1.2.3"},
		{"plain with comma", "substr ,any", "substr ,any"},
		{"plain with colon no space", "0:0", "0:0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := mustDecode(t, tt.src)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Decode(%q) = %#v, want %#v", tt.src, got, tt.want)
			}
		})
	}
}

func TestDecodeEmpty(t *testing.T) {
	for _, src := range []string{"", "\n\n", "# just a comment\n", "   \n\t\n"} {
		v, err := Decode([]byte(src))
		if err != nil {
			t.Fatalf("Decode(%q) error: %v", src, err)
		}
		if v != nil {
			t.Errorf("Decode(%q) = %v, want nil", src, v)
		}
	}
}

func TestDecodeBlockMapping(t *testing.T) {
	src := `
name: nginx
enabled: true
port: 8080
weight: 2.5
none: null
`
	m := asMap(t, mustDecode(t, src))
	if got := m.Keys(); !reflect.DeepEqual(got, []string{"name", "enabled", "port", "weight", "none"}) {
		t.Fatalf("key order = %v", got)
	}
	if v, _ := m.String("name"); v != "nginx" {
		t.Errorf("name = %v", v)
	}
	if v, _ := m.Bool("enabled"); v != true {
		t.Errorf("enabled = %v", v)
	}
	if v, _ := m.Int("port"); v != 8080 {
		t.Errorf("port = %v", v)
	}
	if v, ok := m.Get("none"); !ok || v != nil {
		t.Errorf("none = %v ok=%v", v, ok)
	}
}

func TestDecodeNestedMapping(t *testing.T) {
	src := `
nginx:
  enabled: True
  config_search_paths:
    - /etc/nginx
  cvl_file:
    "component_configs/nginx.yaml"
`
	m := asMap(t, mustDecode(t, src))
	nginx, ok := m.Map("nginx")
	if !ok {
		t.Fatal("nginx key missing or not a map")
	}
	if v, _ := nginx.Bool("enabled"); !v {
		t.Error("enabled should be true")
	}
	paths, ok := nginx.Seq("config_search_paths")
	if !ok || len(paths) != 1 || paths[0] != "/etc/nginx" {
		t.Errorf("config_search_paths = %v", paths)
	}
	// A scalar continued on the next (indented) line is not supported by the
	// subset as a multiline plain scalar, but a quoted scalar on its own
	// indented line decodes as the value.
	if v, _ := nginx.Get("cvl_file"); v != "component_configs/nginx.yaml" {
		t.Errorf("cvl_file = %v", v)
	}
}

func TestDecodeFlowCollections(t *testing.T) {
	src := `
preferred_value: [ "TLSv1.2", "TLSv1.3" ]
tags: ["#security", "#ssl", "#owasp"]
mixed: [1, two, 3.0, true, null]
empty_seq: []
empty_map: {}
inline_map: {a: 1, b: "x"}
nested: [[1, 2], {k: [3]}]
`
	m := asMap(t, mustDecode(t, src))
	if v, _ := m.Seq("preferred_value"); !reflect.DeepEqual(v, []any{"TLSv1.2", "TLSv1.3"}) {
		t.Errorf("preferred_value = %#v", v)
	}
	if v, _ := m.Seq("tags"); !reflect.DeepEqual(v, []any{"#security", "#ssl", "#owasp"}) {
		t.Errorf("tags = %#v", v)
	}
	if v, _ := m.Seq("mixed"); !reflect.DeepEqual(v, []any{int64(1), "two", 3.0, true, nil}) {
		t.Errorf("mixed = %#v", v)
	}
	if v, _ := m.Seq("empty_seq"); len(v) != 0 {
		t.Errorf("empty_seq = %#v", v)
	}
	if v, ok := m.Map("empty_map"); !ok || v.Len() != 0 {
		t.Errorf("empty_map = %#v", v)
	}
	im, _ := m.Map("inline_map")
	if v, _ := im.Int("a"); v != 1 {
		t.Errorf("inline_map.a = %v", v)
	}
	nested, _ := m.Seq("nested")
	if len(nested) != 2 {
		t.Fatalf("nested = %#v", nested)
	}
	if !reflect.DeepEqual(nested[0], []any{int64(1), int64(2)}) {
		t.Errorf("nested[0] = %#v", nested[0])
	}
}

func TestDecodeBlockSequence(t *testing.T) {
	src := `
- alpha
- 2
- true
-
- nested:
    x: 1
`
	v := mustDecode(t, src)
	seq, ok := v.([]any)
	if !ok || len(seq) != 5 {
		t.Fatalf("got %#v", v)
	}
	if seq[0] != "alpha" || seq[1] != int64(2) || seq[2] != true || seq[3] != nil {
		t.Errorf("items = %#v", seq[:4])
	}
	item, ok := seq[4].(*Map)
	if !ok {
		t.Fatalf("seq[4] = %#v", seq[4])
	}
	nested, ok := item.Map("nested")
	if !ok {
		t.Fatalf("nested missing: %#v", item)
	}
	if n, _ := nested.Int("x"); n != 1 {
		t.Errorf("x = %v", n)
	}
}

func TestDecodeCompactSequenceOfMappings(t *testing.T) {
	src := `
rules:
  - config_name: PermitRootLogin
    preferred_value: [ "no" ]
  - config_name: Protocol
    preferred_value: [ "2" ]
`
	m := asMap(t, mustDecode(t, src))
	rules, ok := m.Seq("rules")
	if !ok || len(rules) != 2 {
		t.Fatalf("rules = %#v", rules)
	}
	r0 := rules[0].(*Map)
	if v, _ := r0.String("config_name"); v != "PermitRootLogin" {
		t.Errorf("rule 0 config_name = %v", v)
	}
	pv, _ := r0.Seq("preferred_value")
	if !reflect.DeepEqual(pv, []any{"no"}) {
		t.Errorf("rule 0 preferred_value = %#v", pv)
	}
	r1 := rules[1].(*Map)
	if v, _ := r1.String("config_name"); v != "Protocol" {
		t.Errorf("rule 1 config_name = %v", v)
	}
}

func TestDecodeComments(t *testing.T) {
	src := `
# leading comment
key: value  # trailing comment
quoted: "a # not a comment"
single: 'b # also kept'
tagged: "#security"
`
	m := asMap(t, mustDecode(t, src))
	if v, _ := m.String("key"); v != "value" {
		t.Errorf("key = %q", v)
	}
	if v, _ := m.String("quoted"); v != "a # not a comment" {
		t.Errorf("quoted = %q", v)
	}
	if v, _ := m.String("single"); v != "b # also kept" {
		t.Errorf("single = %q", v)
	}
	if v, _ := m.String("tagged"); v != "#security" {
		t.Errorf("tagged = %q", v)
	}
}

func TestDecodeBlockScalars(t *testing.T) {
	src := `
literal: |
  line one
  line two
folded: >
  word one
  word two
clipped: |-
  no trailing newline
kept: |+
  keeps newline
after: done
`
	m := asMap(t, mustDecode(t, src))
	if v, _ := m.String("literal"); v != "line one\nline two\n" {
		t.Errorf("literal = %q", v)
	}
	if v, _ := m.String("folded"); v != "word one word two\n" {
		t.Errorf("folded = %q", v)
	}
	if v, _ := m.String("clipped"); v != "no trailing newline" {
		t.Errorf("clipped = %q", v)
	}
	if v, _ := m.String("kept"); v != "keeps newline\n" {
		t.Errorf("kept = %q", v)
	}
	if v, _ := m.String("after"); v != "done" {
		t.Errorf("after = %q", v)
	}
}

func TestDecodeMultiDocument(t *testing.T) {
	src := `a: 1
---
b: 2
---
- x
`
	docs, err := DecodeAll([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("got %d docs", len(docs))
	}
	if n, _ := docs[0].(*Map).Int("a"); n != 1 {
		t.Errorf("doc0 a = %v", n)
	}
	if n, _ := docs[1].(*Map).Int("b"); n != 2 {
		t.Errorf("doc1 b = %v", n)
	}
	if seq := docs[2].([]any); seq[0] != "x" {
		t.Errorf("doc2 = %#v", docs[2])
	}
}

func TestDecodePaperListing2(t *testing.T) {
	// The config tree rule from the paper (Listing 2), verbatim structure.
	src := `
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
	m := asMap(t, mustDecode(t, src))
	if m.Len() != 13 {
		t.Errorf("expected 13 keys, got %d: %v", m.Len(), m.Keys())
	}
	if v, _ := m.String("non_preferred_value_match"); v != "substr ,any" {
		t.Errorf("non_preferred_value_match = %q", v)
	}
	roc, _ := m.Seq("require_other_configs")
	if !reflect.DeepEqual(roc, []any{"listen", "ssl_certificate", "ssl_certificate_key"}) {
		t.Errorf("require_other_configs = %#v", roc)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"tab indentation", "a:\n\tb: 1\n"},
		{"anchor", "a: &anchor 1\n"},
		{"alias", "a: *anchor\n"},
		{"tag", "a: !!str 5\n"},
		{"duplicate key", "a: 1\na: 2\n"},
		{"duplicate flow key", "m: {a: 1, a: 2}\n"},
		{"unterminated quote", `a: "oops` + "\n"},
		{"unterminated flow seq", "a: [1, 2\n"},
		{"unterminated flow map", "a: {x: 1\n"},
		{"empty flow scalar", "a: [1, ,2]\n"},
		{"stray content after flow", "a: [1] extra\n"},
		{"multiple docs via Decode", "a: 1\n---\nb: 2\n"},
		{"mixed seq into map", "a: 1\n- b\n"},
		{"over-indented continuation", "a: 1\n   b: 2\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode([]byte(tt.src)); err == nil {
				t.Errorf("Decode(%q) succeeded, want error", tt.src)
			}
		})
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Decode([]byte("ok: 1\nbad: &x 2\n"))
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("expected *SyntaxError, got %T: %v", err, err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "line 2") {
		t.Errorf("error message %q should contain position", se.Error())
	}
}

func TestDecodeCRLF(t *testing.T) {
	src := "a: 1\r\nb: two\r\n"
	m := asMap(t, mustDecode(t, src))
	if v, _ := m.Int("a"); v != 1 {
		t.Errorf("a = %v", v)
	}
	if v, _ := m.String("b"); v != "two" {
		t.Errorf("b = %q", v)
	}
}

func TestDecodeQuotedKeys(t *testing.T) {
	src := `
"quoted key": 1
'single key': 2
`
	m := asMap(t, mustDecode(t, src))
	if v, _ := m.Int("quoted key"); v != 1 {
		t.Errorf("quoted key = %v", v)
	}
	if v, _ := m.Int("single key"); v != 2 {
		t.Errorf("single key = %v", v)
	}
}

func TestDecodeDirectiveSkipped(t *testing.T) {
	src := "%YAML 1.1\n---\na: 1\n"
	m := asMap(t, mustDecode(t, src))
	if v, _ := m.Int("a"); v != 1 {
		t.Errorf("a = %v", v)
	}
}

func TestDecodeDeepNesting(t *testing.T) {
	src := `
l1:
  l2:
    l3:
      l4:
        leaf: deep
`
	m := asMap(t, mustDecode(t, src))
	cur := m
	for _, k := range []string{"l1", "l2", "l3", "l4"} {
		next, ok := cur.Map(k)
		if !ok {
			t.Fatalf("missing level %s", k)
		}
		cur = next
	}
	if v, _ := cur.String("leaf"); v != "deep" {
		t.Errorf("leaf = %q", v)
	}
}

func TestDecodeKeyPositions(t *testing.T) {
	src := `config_name: x
nested:
  inner: 1
list:
  - item_key: v
`
	m := asMap(t, mustDecode(t, src))
	if p := m.KeyPos("config_name"); p.Line != 1 || p.Col != 1 {
		t.Errorf("config_name pos = %v", p)
	}
	if p := m.KeyPos("nested"); p.Line != 2 || p.Col != 1 {
		t.Errorf("nested pos = %v", p)
	}
	inner, _ := m.Map("nested")
	if p := inner.KeyPos("inner"); p.Line != 3 || p.Col != 3 {
		t.Errorf("inner pos = %v", p)
	}
	if p := m.Start(); p.Line != 1 || p.Col != 1 {
		t.Errorf("start = %v", p)
	}
	seq, _ := m.Seq("list")
	item := seq[0].(*Map)
	if p := item.KeyPos("item_key"); p.Line != 5 || p.Col != 5 {
		t.Errorf("item_key pos = %v", p)
	}
}

func TestDecodeKeyPositionsMultiDoc(t *testing.T) {
	src := "---\na: 1\n---\nb: 2\n"
	docs, err := DecodeAll([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if p := docs[0].(*Map).KeyPos("a"); p.Line != 2 {
		t.Errorf("a pos = %v", p)
	}
	if p := docs[1].(*Map).KeyPos("b"); p.Line != 4 {
		t.Errorf("b pos = %v", p)
	}
}

func TestKeyPosUnknownForProgrammaticMaps(t *testing.T) {
	m := NewMap()
	m.Set("k", 1)
	if p := m.KeyPos("k"); !p.IsZero() {
		t.Errorf("programmatic key pos = %v, want zero", p)
	}
	if !m.Start().IsZero() {
		t.Errorf("programmatic start = %v, want zero", m.Start())
	}
	m.SetKeyPos("k", Pos{Line: 3, Col: 2})
	if p := m.KeyPos("k"); p.Line != 3 || p.Col != 2 {
		t.Errorf("explicit key pos = %v", p)
	}
	m.Delete("k")
	if p := m.KeyPos("k"); !p.IsZero() {
		t.Errorf("deleted key pos = %v, want zero", p)
	}
}

func TestParseQuoted(t *testing.T) {
	tests := []struct {
		src, value, rest string
		err              bool
	}{
		{`''`, "", "", false},
		{`""`, "", "", false},
		{`'plain' rest`, "plain", " rest", false},
		{`"plain": v`, "plain", ": v", false},
		{`'it''s'`, "it's", "", false},
		{`'a"b\n'`, `a"b\n`, "", false},
		{`"a\"b"`, `a"b`, "", false},
		{`"tab\there"`, "tab\there", "", false},
		{`"a'b"`, "a'b", "", false},
		{`"abc\`, "", "", true},
		{`'abc`, "", "", true},
		{`'it''s`, "", "", true},
	}
	for _, tt := range tests {
		value, rest, err := parseQuoted(tt.src, 1)
		if (err != nil) != tt.err {
			t.Errorf("parseQuoted(%q) error = %v, want error %v", tt.src, err, tt.err)
			continue
		}
		if value != tt.value || rest != tt.rest {
			t.Errorf("parseQuoted(%q) = %q, %q; want %q, %q", tt.src, value, rest, tt.value, tt.rest)
		}
	}
}

// TestParseQuotedEscapeFreeAllocatesNothing pins the substring fast path:
// a quoted scalar without escapes is returned without a copy.
func TestParseQuotedEscapeFreeAllocatesNothing(t *testing.T) {
	for _, src := range []string{`"regex,any" # comment`, `'/etc/ssh/sshd_config'`} {
		if n := testing.AllocsPerRun(100, func() { _, _, _ = parseQuoted(src, 1) }); n != 0 {
			t.Errorf("parseQuoted(%q) allocates %v times, want 0", src, n)
		}
	}
}
