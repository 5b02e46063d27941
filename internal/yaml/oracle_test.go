package yaml_test

import (
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"configvalidator/internal/rules"
	"configvalidator/internal/yaml"
)

// trickyLines are single lines, without indentation or line ending, that
// random documents are assembled from: every construct of the subset, the
// rejections it keeps, and the near misses between them.
var trickyLines = []string{
	"key: value", "k: v # comment", "k: 'a # b'", `k: "a # b"`, `k: "x"#y`, "k: v#not-comment",
	`"quoted key": 1`, `'single key': two`, `"a\"b": c`, `'it''s': 3`, `"k" x: 1`, `"unterminated: 1`,
	"- item", "- k: v", "- k: v # c", "- 'q k': v", "-", "- - x", "- [a, b]", "- |", "-x", "- # c",
	"k:", "k: |", "k: >", "k: |-", "k: |+", "k: >-", "k: | # c", "block text", "text # comment",
	"---", "--- x", "--- # c", "--- a: 1", "--- |", "...", "%YAML 1.1", "%TAG ! x",
	"k: [1, 2.5, true, null, ~]", "k: {a: 1, b: [x, y]}", "k: {a: 1, a: 2}", "k: [unclosed", "k: {x: 1",
	"k: [a, , b]", "k: [a] extra", "k: {'q': 1, \"r\": [2]}", "k: {a: {b: {c: []}}}", "k: {}", "k: []",
	"k: &anchor v", "k: *alias", "k: !!str 5", "&a: 1", "!t: 1", "k: 'it''s'", `k: "tab\tnew\nline\\"`,
	"# full comment", "", "k: 0x1f", "k: -7", "k: +.5", "k: 1e3", "k: 1.2.3", "k: 0:0", "k:v", "k :v",
	"[a, {b: c}]", "{a: b}", "a: b: c", ": x", "k: '", `k: "\`, "k: True", "k: ~", "k: -", "? k",
}

// snippets are multi-line pieces: block scalars with blank lines, compact
// sequence items, nested mappings and document streams.
var snippets = []string{
	"k: |\n  line one\n\n  line two\n    deeper\n\n\nafter: 1\n",
	"k: >\n  folded\n  words\n\n  para\n   indented\n",
	"k: |+\n  kept\n\n\n",
	"k: >-\n\n  lead blank\n",
	"k: |\n  # not a comment\n  text\n",
	"list:\n  - a: 1\n    b: 2\n  - c: 3\n  -\n    d: 4\n",
	"- k: v\n  k2: v2\n- k3: |\n    body\n",
	"a:\n  b:\n    c: d\n  e: f\n",
	"a:\n  - x\n  - y\nb: z\n",
	"---\na: 1\n---\nb: 2\n...\n",
	"%YAML 1.1\n---\na: 1\n",
	"\n%YAML 1.1\n---\na: 1\n",
	"\"q\": 1\n'r': 2\n\"s t\": [3]\n",
}

// trickyBytes are spliced into lines.
var trickyBytes = []string{"\r", "\t", "\v", "\f", "\u00a0", "\u2028", " ", "  ", "#", " #", "'", `"`, ":", ": ", "-", "[", "{"}

var lineEndings = []string{"\n", "\n", "\n", "\n", "\n", "\r\n", "\r\n", "\r", ""}

var indents = []int{0, 0, 0, 0, 1, 2, 2, 2, 3, 4, 4, 6}

// randomDocument returns a well-formed document, often damaged by a few
// spliced bytes, or a document assembled line by line from the tricky
// pieces.
func randomDocument(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		var b strings.Builder
		if r.Intn(4) == 0 {
			b.WriteString([]string{"---\n", "%YAML 1.1\n---\n", "--- # c\n", "\n"}[r.Intn(4)])
		}
		randomBlock(r, &b, 0, 0)
		if r.Intn(4) == 0 {
			b.WriteString([]string{"---\n", "...\n", "--- x\n", "---\n- a\n"}[r.Intn(4)])
			randomBlock(r, &b, 0, 0)
		}
		return damage(r, b.String())
	}
	var b strings.Builder
	for n := 1 + r.Intn(10); n > 0; n-- {
		switch r.Intn(10) {
		case 0:
			b.WriteString(shift(snippets[r.Intn(len(snippets))], indents[r.Intn(len(indents))]))
			continue
		case 1:
			wideMapping(r, &b)
			continue
		}
		line := trickyLines[r.Intn(len(trickyLines))]
		if r.Intn(4) == 0 {
			at := r.Intn(len(line) + 1)
			line = line[:at] + trickyBytes[r.Intn(len(trickyBytes))] + line[at:]
		}
		b.WriteString(strings.Repeat(" ", indents[r.Intn(len(indents))]))
		b.WriteString(line)
		b.WriteString(lineEndings[r.Intn(len(lineEndings))])
	}
	return b.String()
}

// scalars are inline values for well-formed documents.
var scalars = []string{
	"plain", "two words", "42", "-7", "0x1f", "3.5", "1e3", "1.2.3", "true", "False", "null", "~", "0:0",
	"'single # quoted'", `"double # quoted"`, `"esc\"aped\\"`, "'it''s'", `""`, "''", "v # comment",
	"[a, 'b', 2]", "{x: 1, 'y': [z]}", "[]", "{}", "[[1, 2], {k: v}]", "#tag-like", "a#b", "x: y",
}

// keys are mapping keys for well-formed documents.
var keys = []string{"k", "name", "config_path", `"quoted key"`, "'single key'", `"a#b"`, "with space", "k2", "x-y", "0"}

// randomBlock writes a well-formed block mapping or sequence at indent.
func randomBlock(r *rand.Rand, b *strings.Builder, indent, depth int) {
	pad := strings.Repeat(" ", indent)
	if r.Intn(8) == 0 {
		wideMappingAt(r, b, pad)
		return
	}
	if r.Intn(3) == 0 {
		for n := 1 + r.Intn(4); n > 0; n-- {
			b.WriteString(pad + "-")
			switch r.Intn(4) {
			case 0:
				if depth < 4 {
					b.WriteString("\n")
					randomBlock(r, b, indent+1+r.Intn(3), depth+1)
					continue
				}
				fallthrough
			case 1:
				b.WriteString(" " + scalars[r.Intn(len(scalars))] + "\n")
			default:
				// Compact mapping item: "- k: v" and its continuation keys.
				inner := pad + "  "
				for i, k := range r.Perm(len(keys))[:1+r.Intn(3)] {
					if i > 0 {
						b.WriteString(inner)
					} else {
						b.WriteString(" ")
					}
					b.WriteString(keys[k] + ": " + scalars[r.Intn(len(scalars))] + "\n")
				}
			}
		}
		return
	}
	for _, k := range r.Perm(len(keys))[:1+r.Intn(5)] {
		b.WriteString(pad + keys[k] + ":")
		switch r.Intn(6) {
		case 0:
			if depth < 4 {
				b.WriteString("\n")
				randomBlock(r, b, indent+1+r.Intn(4), depth+1)
				continue
			}
			fallthrough
		case 1:
			b.WriteString(" " + []string{"|", ">", "|-", "|+", ">-", ">+"}[r.Intn(6)] + "\n")
			body := pad + strings.Repeat(" ", 1+r.Intn(3))
			for n := 1 + r.Intn(4); n > 0; n-- {
				switch r.Intn(5) {
				case 0:
					b.WriteString("\n")
				case 1:
					b.WriteString(body + "  deeper text\n")
				default:
					b.WriteString(body + "body text # kept\n")
				}
			}
		default:
			b.WriteString(" " + scalars[r.Intn(len(scalars))] + "\n")
		}
	}
}

// damage splices up to three tricky bytes into s and sometimes switches its
// line endings.
func damage(r *rand.Rand, s string) string {
	switch r.Intn(6) {
	case 0:
		s = strings.ReplaceAll(s, "\n", "\r\n")
	case 1:
		s = strings.TrimSuffix(s, "\n")
	}
	for n := r.Intn(4); n > 0 && s != ""; n-- {
		at := r.Intn(len(s) + 1)
		s = s[:at] + trickyBytes[r.Intn(len(trickyBytes))] + s[at:]
	}
	return s
}

// wideMapping writes a block or flow mapping of 14 to 40 keys, often with
// one key repeated before or after the 16-key mark, at a random indentation.
func wideMapping(r *rand.Rand, b *strings.Builder) {
	wideMappingAt(r, b, strings.Repeat(" ", indents[r.Intn(len(indents))]))
}

// wideMappingAt writes a wide mapping with its keys at indentation pad.
func wideMappingAt(r *rand.Rand, b *strings.Builder, pad string) {
	n := 14 + r.Intn(27)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	if r.Intn(2) == 0 {
		i, j := r.Intn(n), r.Intn(n)
		keys[max(i, j)] = keys[min(i, j)]
	}
	if r.Intn(3) == 0 {
		b.WriteString(pad + "m: {")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k + ": " + string(rune('0'+i%10)))
		}
		b.WriteString("}\n")
		return
	}
	for i, k := range keys {
		b.WriteString(pad + k + ": " + string(rune('0'+i%10)) + "\n")
	}
}

// shift indents every line of s by n spaces.
func shift(s string, n int) string {
	if n == 0 {
		return s
	}
	pad := strings.Repeat(" ", n)
	lines := strings.SplitAfter(s, "\n")
	for i, ln := range lines {
		if ln != "" {
			lines[i] = pad + ln
		}
	}
	return strings.Join(lines, "")
}

// corpus returns every .yaml file in the repository and the built-in and
// extended rule libraries, by name.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	files := map[string]string{}
	for name, content := range rules.Files() {
		files["builtin:"+name] = content
	}
	for name, content := range rules.ExtendedFiles() {
		files["extended:"+name] = content
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".yaml") || strings.HasSuffix(path, ".yml")) {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[path] = string(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// variants returns each line prefix of content and, for every line, the
// content with that line indented two spaces more and two spaces less.
func variants(content string) []string {
	lines := strings.SplitAfter(content, "\n")
	var out []string
	for i := range lines {
		out = append(out, strings.Join(lines[:i+1], ""))
	}
	for i, ln := range lines {
		edited := make([]string, len(lines))
		copy(edited, lines)
		edited[i] = "  " + ln
		out = append(out, strings.Join(edited, ""))
		if strings.HasPrefix(ln, "  ") {
			edited[i] = ln[2:]
			out = append(out, strings.Join(edited, ""))
		}
	}
	return out
}

// TestDecodeMatchesReference checks the decoder against the reference
// decoder it replaced: every YAML file in the repository and the rule
// libraries, their line prefixes and re-indented lines, and 100,000
// seeded random documents must decode to the same documents, types, key
// order, positions and errors.
func TestDecodeMatchesReference(t *testing.T) {
	files := corpus(t)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) < 30 {
		t.Fatalf("corpus has %d files", len(names))
	}
	for _, name := range names {
		if d := yaml.DiffReference([]byte(files[name])); d != "" {
			t.Errorf("%s: %s", name, d)
		}
		for _, v := range variants(files[name]) {
			if d := yaml.DiffReference([]byte(v)); d != "" {
				t.Errorf("%s variant %q: %s", name, v, d)
				break
			}
		}
	}

	r := rand.New(rand.NewSource(17))
	failures := 0
	for i := 0; i < 100000 && failures < 10; i++ {
		doc := randomDocument(r)
		if d := yaml.DiffReference([]byte(doc)); d != "" {
			t.Errorf("random document %d %q: %s", i, doc, d)
			failures++
		}
	}
}

// FuzzDecode hammers the YAML decoder with arbitrary bytes — CVL rule
// files arrive over HTTP (/v1/lint) and from user repositories, so the
// decoder must never panic, must agree with the reference decoder, and
// every accepted document must survive an encode/decode round trip.
//
//	go test -fuzz FuzzDecode -fuzztime 10s ./internal/yaml/
func FuzzDecode(f *testing.F) {
	for _, seed := range []string{
		"",
		"key: value\n",
		"rules:\n  - name: a\n    preferred_value: [x, y]\n",
		"a: 1\nb:\n  - 2\n  - 3\nc:\n  d: e\n",
		"name: \"quoted: colon\"\nnum: -3.5\nflag: true\n",
		"block: |\n  line one\n  line two\n",
		"folded: >\n  joined\n  words\n",
		"- one\n- two\n-\n",
		"empty:\nnull_value: ~\n",
		"deep:\n  a:\n    b:\n      c: [1, {d: 2}]\n",
		"tabs:\tafter\n",
		"x: [unclosed\n",
		"---\ndoc: 1\n---\ndoc: 2\n",
		"key: value # trailing comment\n# full comment\n",
		"empty: ''\n",
		"quote: \"\\\"\"\n",
		"trailing: \"abc\\",
		"unterminated: 'abc\n",
	} {
		f.Add([]byte(seed))
	}
	for _, piece := range snippets {
		f.Add([]byte(piece))
	}
	for _, b := range trickyBytes {
		f.Add([]byte("a: x" + b + "y\r\nb:" + b + "\n  - c\n"))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		var b strings.Builder
		wideMapping(r, &b)
		f.Add([]byte(b.String()))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := yaml.DiffReference(data); d != "" {
			t.Fatalf("decoder differs from the reference: %s", d)
		}
		v, err := yaml.Decode(data)
		if err == nil {
			// Accepted input must re-encode, and the re-encoded form must
			// still be accepted — no one-way documents.
			out, err := yaml.Encode(v)
			if err != nil {
				t.Fatalf("decoded value does not encode: %v", err)
			}
			if _, err := yaml.Decode(out); err != nil {
				t.Fatalf("re-encoded document rejected: %v\n%s", err, out)
			}
		}
	})
}
