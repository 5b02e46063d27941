package analysis

import (
	"math/rand"
	"sort"
	"strings"

	"configvalidator/internal/rules"
)

// mutant is one deliberately broken (or, for kind "clean", intact) copy
// of a built-in rule file or of the built-in manifest.
type mutant struct {
	path    string // the built-in file's project path
	kind    string // what was done to it
	content string
}

func (m mutant) String() string { return m.path + " " + m.kind }

// builtinMutants mutates every built-in rule file and the built-in
// manifest. The seeded generator picks which rule or entity each mutation
// lands in, so the set is the same on every run.
func builtinMutants() []mutant {
	files := rules.Files()
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	rng := rand.New(rand.NewSource(27))
	var out []mutant
	for _, p := range paths {
		if IsManifestPath(p) {
			out = append(out, manifestMutants(p, files[p], rng)...)
		} else {
			out = append(out, ruleFileMutants(p, files[p], rng)...)
		}
	}
	return out
}

// splitDocs splits a block-style YAML stream into its documents' lines.
func splitDocs(content string) [][]string {
	var docs [][]string
	var cur []string
	for _, line := range strings.Split(strings.TrimSpace(content), "\n") {
		if line == "---" {
			docs = append(docs, cur)
			cur = nil
			continue
		}
		cur = append(cur, line)
	}
	return append(docs, cur)
}

func joinDocs(docs [][]string) string {
	parts := make([]string, len(docs))
	for i, d := range docs {
		parts[i] = strings.Join(d, "\n")
	}
	return strings.Join(parts, "\n---\n") + "\n"
}

// topKeys returns the indexes of a document's top-level key lines.
func topKeys(doc []string) []int {
	var out []int
	for i, line := range doc {
		if line == "" || line[0] == ' ' || line[0] == '#' || line[0] == '-' || !strings.Contains(line, ":") {
			continue
		}
		out = append(out, i)
	}
	return out
}

func keyOf(line string) string {
	k, _, _ := strings.Cut(line, ":")
	return k
}

// keySpan returns the lines [i, end) a top-level key occupies: its own
// line plus indented or list continuation lines.
func keySpan(doc []string, i int) int {
	end := i + 1
	for end < len(doc) && doc[end] != "" && (doc[end][0] == ' ' || doc[end][0] == '-') {
		end++
	}
	return end
}

// typeOf names a rule document's type by its name keyword.
func typeOf(doc []string) string {
	for _, i := range topKeys(doc) {
		switch keyOf(doc[i]) {
		case "config_name":
			return "tree"
		case "config_schema_name":
			return "schema"
		case "path_name":
			return "path"
		case "script_name":
			return "script"
		case "composite_rule_name":
			return "composite"
		}
	}
	return ""
}

func cloneDocs(docs [][]string) [][]string {
	out := make([][]string, len(docs))
	for i, d := range docs {
		out[i] = append([]string(nil), d...)
	}
	return out
}

// edit returns a copy of the stream with document d replaced by f(doc).
func edit(docs [][]string, d int, f func([]string) []string) string {
	out := cloneDocs(docs)
	out[d] = f(out[d])
	return joinDocs(out)
}

func insertLine(doc []string, at int, line string) []string {
	out := append([]string(nil), doc[:at]...)
	out = append(out, line)
	return append(out, doc[at:]...)
}

// setKey replaces a top-level key's value (with its continuation lines),
// or appends the key when the document lacks it.
func setKey(doc []string, key, line string) []string {
	for _, i := range topKeys(doc) {
		if keyOf(doc[i]) == key {
			out := append([]string(nil), doc[:i]...)
			out = append(out, line)
			return append(out, doc[keySpan(doc, i):]...)
		}
	}
	return append(doc, line)
}

func ruleFileMutants(path, content string, rng *rand.Rand) []mutant {
	docs := splitDocs(content)
	pick := rng.Intn(len(docs))
	doc := docs[pick]
	keys := topKeys(doc)
	var nameAt int
	for _, i := range keys {
		if strings.HasSuffix(keyOf(doc[i]), "_name") {
			nameAt = i
			break
		}
	}
	randomKey := keys[rng.Intn(len(keys))]
	otherType := map[string]string{
		"tree":      `query_constraints: "x = ?"`,
		"schema":    `config_path: ["a"]`,
		"path":      `script_feature: selinux`,
		"script":    `ownership: "0:0"`,
		"composite": `config_path: ["a"]`,
	}[typeOf(doc)]
	treeDoc := pick
	for i, d := range docs {
		if typeOf(d) == "tree" {
			treeDoc = i
			break
		}
	}
	renamed := keyOf(doc[randomKey])
	cut := 1 + rng.Intn(len(renamed)-2)
	renamed = renamed[:cut] + renamed[cut+1:]
	at := 1 + rng.Intn(len(doc))
	if at > len(doc) {
		at = len(doc)
	}
	m := func(kind, content string) mutant { return mutant{path: path, kind: kind, content: content} }
	return []mutant{
		m("clean", content),
		m("delete-name-keyword", edit(docs, pick, func(d []string) []string {
			return append(d[:nameAt:nameAt], d[keySpan(d, nameAt):]...)
		})),
		m("delete-keyword", edit(docs, pick, func(d []string) []string {
			return append(d[:randomKey:randomKey], d[keySpan(d, randomKey):]...)
		})),
		m("rename-keyword", edit(docs, pick, func(d []string) []string {
			_, rest, _ := strings.Cut(d[randomKey], ":")
			d[randomKey] = renamed + ":" + rest
			return d
		})),
		m("rename-name-keyword", edit(docs, pick, func(d []string) []string {
			d[nameAt] = "x" + d[nameAt]
			return d
		})),
		m("unknown-keyword", edit(docs, pick, func(d []string) []string { return insertLine(d, at, "bogus_keyword: 1") })),
		m("other-type-keyword", edit(docs, pick, func(d []string) []string { return insertLine(d, at, otherType) })),
		m("manifest-keyword-in-rule", edit(docs, pick, func(d []string) []string { return insertLine(d, at, "enabled: true") })),
		m("unknown-rule-type", edit(docs, pick, func(d []string) []string { return insertLine(d, at, "rule_type: bogus") })),
		m("wrong-type-bool", edit(docs, pick, func(d []string) []string { return insertLine(d, at, `override: "yes"`) })),
		m("wrong-type-list", edit(docs, pick, func(d []string) []string { return setKey(d, "tags", "tags: {a: b}") })),
		m("wrong-type-string", edit(docs, pick, func(d []string) []string { return setKey(d, "description", "description: [a, b]") })),
		m("empty-name", edit(docs, pick, func(d []string) []string {
			d[nameAt] = keyOf(d[nameAt]) + `: ""`
			return d
		})),
		m("bad-permission", content+"---\npath_name: /etc/mutant\npermission: 999\n"),
		m("bad-permission-string", content+"---\npath_name: /etc/mutant\nmax_permission: \"0o98\"\n"),
		m("bad-match-quantifier", edit(docs, pick, func(d []string) []string {
			return setKey(d, "preferred_value_match", "preferred_value_match: exact,sometimes")
		})),
		m("bad-match-kind", edit(docs, pick, func(d []string) []string {
			return setKey(d, "non_preferred_value_match", "non_preferred_value_match: fuzzy,any")
		})),
		m("bad-occurrence", edit(docs, treeDoc, func(d []string) []string { return insertLine(d, 1, "occurrence: sometimes") })),
		m("scalar-sequence-element", content+"---\n- just a string\n"),
		m("mixed-sequence", content+"---\n- config_name: seq_rule\n  tags: [\"#x\"]\n- 42\n- [a]\n"),
		m("scalar-document", content+"---\njust a scalar\n"),
		m("parent-not-string", "parent_cvl_file: [base.yaml]\n---\n"+content),
		m("parent-int", "parent_cvl_file: 7\n---\n"+content),
		m("duplicate-parent", "parent_cvl_file: a.yaml\n---\nparent_cvl_file: b.yaml\n---\n"+content),
	}
}

// entitySpans returns each manifest entity's [start, end) line range.
func entitySpans(lines []string) [][2]int {
	var out [][2]int
	for i, line := range lines {
		if line == "" || line[0] == ' ' {
			continue
		}
		if len(out) > 0 {
			out[len(out)-1][1] = i
		}
		out = append(out, [2]int{i, len(lines)})
	}
	return out
}

func manifestMutants(path, content string, rng *rand.Rand) []mutant {
	lines := strings.Split(strings.TrimSuffix(content, "\n"), "\n")
	spans := entitySpans(lines)
	span := spans[rng.Intn(len(spans))]
	// editEntity rewrites the picked entity's lines.
	editEntity := func(f func([]string) []string) string {
		out := append([]string(nil), lines[:span[0]]...)
		out = append(out, f(append([]string(nil), lines[span[0]:span[1]]...))...)
		out = append(out, lines[span[1]:]...)
		return strings.Join(out, "\n") + "\n"
	}
	replace := func(prefix, with string) func([]string) []string {
		return func(ent []string) []string {
			for i, l := range ent {
				if strings.HasPrefix(l, prefix) {
					ent[i] = with + strings.TrimPrefix(l, prefix)
				}
			}
			return ent
		}
	}
	insert := func(line string) func([]string) []string {
		return func(ent []string) []string { return insertLine(ent, 1, line) }
	}
	m := func(kind, content string) mutant { return mutant{path: path, kind: kind, content: content} }
	return []mutant{
		m("clean", content),
		m("unknown-key", editEntity(insert("  bogus: 1"))),
		m("typo-key", editEntity(replace("  cvl_file:", "  cvl_files:"))),
		m("missing-cvl-file", editEntity(func(ent []string) []string {
			out := ent[:0]
			for _, l := range ent {
				if !strings.HasPrefix(l, "  cvl_file:") {
					out = append(out, l)
				}
			}
			return out
		})),
		m("string-enabled", editEntity(replace("  enabled: True", `  enabled: "yes"`))),
		m("manifest-parent", editEntity(insert("  parent_cvl_file: base.yaml"))),
		m("unknown-rule-type", editEntity(insert("  rule_type: bogus"))),
		m("tags-mapping", editEntity(insert("  tags: {a: b}"))),
		m("search-paths-mapping", editEntity(func(ent []string) []string {
			out := ent[:0]
			for _, l := range ent {
				switch {
				case strings.HasPrefix(l, "  config_search_paths:"):
					out = append(out, "  config_search_paths: {a: b}")
				case strings.HasPrefix(l, "    - "):
				default:
					out = append(out, l)
				}
			}
			return out
		})),
		m("entity-not-mapping", content+"bogus_entity: 1\n"),
		m("empty", ""),
		m("comment-only", "# no entities here\n"),
		m("sequence-root", "- sshd\n"),
	}
}
