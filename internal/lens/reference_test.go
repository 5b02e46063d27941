package lens

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"configvalidator/internal/configtree"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/schema"
)

// This file keeps the line loops the ten line-based lenses ran before they
// shared lineReader, verbatim: each lens split the file into a slice of
// lines, cut comments by trying the marker at every byte and joined
// continuation lines itself. The differential test and FuzzLensReference
// hold the lenses to them, result for result and error for error.

// referenceMutationsPerLens is how many seeded mutations of the corpus
// TestLensesMatchReference parses with each lens; with 18 lenses it makes
// about 300,000 comparisons.
const referenceMutationsPerLens = 17000

// TestLensesMatchReference holds every line-based lens to its reference
// loop. Each lens of Default that has one, and a whitespace-separated
// KeyValue, parses every text file of UbuntuHost and Fleet images for ten
// seeds, then seeded mutations of them, half drawn from the files the
// registry gives the lens.
func TestLensesMatchReference(t *testing.T) {
	corpus := referenceCorpus()
	reg := Default()
	r := rand.New(rand.NewSource(29))
	compared := 0
	for _, l := range referenceLenses() {
		var own []corpusFile
		for _, f := range corpus {
			if sel, ok := reg.ForFile(f.path); ok && sel == l {
				own = append(own, f)
			}
		}
		for _, f := range corpus {
			compared++
			if d := diffReference(l, f.path, f.data); d != "" {
				t.Fatalf("lens %s on %s: %s", l.Name(), f.path, d)
			}
		}
		for i := 0; i < referenceMutationsPerLens; i++ {
			from := corpus
			if len(own) > 0 && i%2 == 0 {
				from = own
			}
			f := from[r.Intn(len(from))]
			data := mutate(r, f.data)
			compared++
			if d := diffReference(l, f.path, data); d != "" {
				t.Fatalf("lens %s on a mutation of %s: %s\ninput %q", l.Name(), f.path, d, data)
			}
		}
	}
	t.Logf("%d comparisons over %d corpus files, no difference", compared, len(corpus))
}

// FuzzLensReference runs every line-based lens and its reference loop on
// the same bytes and requires the same result or the same error.
//
//	go test -fuzz FuzzLensReference -fuzztime 10s ./internal/lens/
func FuzzLensReference(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		"a = 1\r\nb=2\r",
		"key value # comment\n#only\n  ; semi\n",
		"a#b c\n\r#x\n\t#y\n",
		"[s]\nk = v ; c # d\n!include /x\n[\n",
		"<Dir a>\nOpt x \\\n  y # c \\\n z\n</Dir>\n<x\n",
		"install cramfs /bin/true \\\n\n",
		"a=b\\\n# c\\\nd\n! e\nf:g\\",
		"-w /etc/passwd -p wa -k identity\n-a\n",
		"/dev/sda1 / ext4 defaults 0 1 extra\ndaemon:x:1:1::/usr/sbin:/usr/sbin/nologin\n",
		"SHELL=/bin/sh\n*/5 * * * * root cmd arg\n",
		"Match User git\n  PermitRootLogin=no\nPort = 22\n",
	} {
		f.Add([]byte(seed))
	}
	lenses := referenceLenses()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, l := range lenses {
			if d := diffReference(l, "/etc/fuzz.conf", data); d != "" {
				t.Fatalf("lens %s: %s", l.Name(), d)
			}
		}
	})
}

// diffReference parses content with l and with its reference loop and
// describes the first difference, or returns "".
func diffReference(l Lens, path string, content []byte) string {
	got, gotErr := l.Parse(path, content)
	want, wantErr := referenceFor(l)(path, content)
	return diffResult(got, gotErr, want, wantErr)
}

// referenceLenses returns each lens of Default that has a reference loop,
// once, and a whitespace-separated KeyValue, which Default does not
// register.
func referenceLenses() []Lens {
	out := []Lens{NewKeyValue("keyvalue-ws", "")}
	for _, e := range Default().entries {
		if !slices.Contains(out, e.lens) && referenceFor(e.lens) != nil {
			out = append(out, e.lens)
		}
	}
	return out
}

type corpusFile struct {
	path string
	data []byte
}

// referenceCorpus returns the distinct text files of UbuntuHost and of a
// two-image Fleet for seeds 1 to 10, at misconfiguration rate 0.5.
func referenceCorpus() []corpusFile {
	var out []corpusFile
	seen := map[string]bool{}
	add := func(m *entity.Mem) {
		for _, p := range m.Files() {
			data, err := m.ReadFile(p)
			if err != nil || !utf8.Valid(data) || seen[string(data)] {
				continue
			}
			seen[string(data)] = true
			out = append(out, corpusFile{path: p, data: data})
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		p := fixtures.Profile{Seed: seed, MisconfigRate: 0.5}
		host, _ := fixtures.UbuntuHost("host", p)
		add(host)
		reg, _ := fixtures.Fleet(2, p)
		for i := 0; i < 2; i++ {
			img, err := reg.Pull(fmt.Sprintf("app-%03d:v1", i))
			if err != nil {
				panic(err)
			}
			add(img.Entity())
		}
	}
	return out
}

// referenceMutations are the strings mutate inserts: line ends, a lone
// "\r", a trailing backslash, each comment marker with and without space
// before it, tabs, and section and tag brackets.
var referenceMutations = []string{
	"\r\n", "\r", "\n", "\\", "\\\n", "\\\r\n", "\\ \n",
	"#", " #", "\t#", ";", " ;", "\t;", "!", " !", "\t!",
	"\t", " ", "[", "]", "<", "</", ">", "=", ":",
}

// mutate returns a copy of src with one to four seeded edits: an insert of
// one of referenceMutations anywhere, at a line's end or at its start, a
// deleted byte, or the last byte cut.
func mutate(r *rand.Rand, src []byte) []byte {
	out := slices.Clone(src)
	for n := 1 + r.Intn(4); n > 0; n-- {
		at := r.Intn(len(out) + 1)
		switch k := r.Intn(8); {
		case k < 5:
			if nl := bytes.IndexByte(out[at:], '\n'); k >= 2 && nl >= 0 {
				at += nl + (k-2)/2 // k 2-3 a line's end, k 4 the next line's start
			}
			out = slices.Insert(out, at, []byte(referenceMutations[r.Intn(len(referenceMutations))])...)
		case k < 7 && at < len(out):
			out = slices.Delete(out, at, at+1)
		case len(out) > 0:
			out = out[:len(out)-1]
		}
	}
	return out
}

// referenceFor returns the reference loop of l's type, bound to l, or nil
// for a lens with no line loop of its own.
func referenceFor(l Lens) func(path string, content []byte) (*Result, error) {
	switch l := l.(type) {
	case *KeyValue:
		return func(path string, content []byte) (*Result, error) { return refKeyValue(l, path, content) }
	case *Sysctl:
		return refSysctl
	case *SSHD:
		return refSSHD
	case *Properties:
		return refProperties
	case *INI:
		return func(path string, content []byte) (*Result, error) { return refINI(l, path, content) }
	case *Apache:
		return refApache
	case *Audit:
		return refAudit
	case *Modprobe:
		return refModprobe
	case *Tabular:
		return func(path string, content []byte) (*Result, error) { return refTabular(l, path, content) }
	case *Crontab:
		return refCrontab
	}
	return nil
}

// refStripLineComment removes a trailing comment introduced by marker when
// it is at line start or preceded by whitespace.
func refStripLineComment(line, marker string) string {
	if idx := strings.Index(line, marker); idx == 0 {
		return ""
	}
	for i := 0; i+len(marker) <= len(line); i++ {
		if strings.HasPrefix(line[i:], marker) && i > 0 && (line[i-1] == ' ' || line[i-1] == '\t') {
			return strings.TrimRight(line[:i], " \t")
		}
	}
	return line
}

// refSplitLines normalizes newlines and splits content into lines.
func refSplitLines(content []byte) []string {
	s := strings.ReplaceAll(string(content), "\r\n", "\n")
	return strings.Split(s, "\n")
}

func refKeyValue(l *KeyValue, path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	for i, line := range refSplitLines(content) {
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		key, value, ok := refSplitKeyValue(line, l.sep)
		if !ok {
			return nil, parseErrorf(l.name, path, i+1, "expected 'key%svalue', got %q", displaySep(l.sep), line)
		}
		node := root.Add(key, value)
		node.Line = i + 1
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

func refSysctl(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	for i, line := range refSplitLines(content) {
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		key, value, ok := refSplitKeyValue(line, "=")
		if !ok {
			return nil, parseErrorf("sysctl", path, i+1, "expected 'key = value', got %q", line)
		}
		treePath := strings.ReplaceAll(key, ".", "/")
		node, err := root.Put(treePath, value)
		if err != nil {
			return nil, parseErrorf("sysctl", path, i+1, "key %q: %v", key, err)
		}
		node.Line = i + 1
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

func refSSHD(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	current := root
	for i, line := range refSplitLines(content) {
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" {
			continue
		}
		parts := fields(line)
		if len(parts) == 0 {
			continue
		}
		key := parts[0]
		value := strings.TrimSpace(line[len(key):])
		// sshd_config also accepts "Key=value".
		if eq := strings.IndexByte(key, '='); eq > 0 {
			value = key[eq+1:] + value
			key = key[:eq]
		} else if strings.HasPrefix(value, "=") {
			value = strings.TrimSpace(value[1:])
		}
		if strings.EqualFold(key, "Match") {
			section := root.Section("Match")
			section.Value = value
			section.Line = i + 1
			current = section
			continue
		}
		node := current.Add(key, value)
		node.Line = i + 1
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

func refProperties(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	lines := refSplitLines(content)
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "!") {
			continue
		}
		// Line continuations: a trailing backslash joins the next line.
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + strings.TrimSpace(lines[i])
		}
		sepIdx := -1
		for j := 0; j < len(line); j++ {
			c := line[j]
			if c == '\\' {
				j++
				continue
			}
			if c == '=' || c == ':' {
				sepIdx = j
				break
			}
		}
		var key, value string
		if sepIdx < 0 {
			key, value = line, ""
		} else {
			key = strings.TrimSpace(line[:sepIdx])
			value = strings.TrimSpace(line[sepIdx+1:])
		}
		key = strings.NewReplacer(`\=`, "=", `\:`, ":", `\ `, " ").Replace(key)
		node := root.Add(key, value)
		node.Line = i + 1
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

// refSplitKeyValue splits a line at the separator; sep=="" means
// whitespace.
func refSplitKeyValue(line, sep string) (key, value string, ok bool) {
	if sep == "" {
		parts := fields(line)
		if len(parts) == 0 {
			return "", "", false
		}
		return parts[0], strings.TrimSpace(line[len(parts[0]):]), true
	}
	idx := strings.Index(line, sep)
	if idx <= 0 {
		return "", "", false
	}
	return strings.TrimSpace(line[:idx]), strings.TrimSpace(line[idx+len(sep):]), true
}

func refINI(l *INI, path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	current := root
	for i, line := range refSplitLines(content) {
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		line = strings.TrimSpace(refStripLineComment(line, ";"))
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, parseErrorf(l.name, path, i+1, "unterminated section header %q", line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" {
				return nil, parseErrorf(l.name, path, i+1, "empty section header")
			}
			section := root.Section(name)
			section.Line = i + 1
			current = section
			continue
		}
		if strings.HasPrefix(line, "!") {
			node := current.Add("#include", strings.TrimSpace(line[1:]))
			node.Line = i + 1
			continue
		}
		if idx := strings.IndexByte(line, '='); idx > 0 {
			key := strings.TrimSpace(line[:idx])
			value := strings.TrimSpace(line[idx+1:])
			value = unquoteINI(value)
			node := current.Add(key, value)
			node.Line = i + 1
			continue
		}
		// Bare flag key, e.g. "skip-networking".
		node := current.Add(line, "")
		node.Line = i + 1
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

func refApache(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	stack := []*configtree.Node{root}
	lines := refSplitLines(content)
	for i := 0; i < len(lines); i++ {
		lineNum := i + 1
		line := strings.TrimSpace(lines[i])
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(lines[i])
		}
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" {
			continue
		}
		current := stack[len(stack)-1]
		switch {
		case strings.HasPrefix(line, "</"):
			if !strings.HasSuffix(line, ">") {
				return nil, parseErrorf("apache", path, lineNum, "malformed closing tag %q", line)
			}
			name := strings.TrimSpace(line[2 : len(line)-1])
			if len(stack) == 1 {
				return nil, parseErrorf("apache", path, lineNum, "closing </%s> without opening section", name)
			}
			open := stack[len(stack)-1]
			if !strings.EqualFold(open.Label, name) {
				return nil, parseErrorf("apache", path, lineNum, "closing </%s> does not match open <%s>", name, open.Label)
			}
			stack = stack[:len(stack)-1]
		case strings.HasPrefix(line, "<"):
			if !strings.HasSuffix(line, ">") {
				return nil, parseErrorf("apache", path, lineNum, "malformed section tag %q", line)
			}
			inner := strings.TrimSpace(line[1 : len(line)-1])
			parts := fields(inner)
			if len(parts) == 0 {
				return nil, parseErrorf("apache", path, lineNum, "empty section tag")
			}
			section := current.Section(parts[0])
			section.Value = strings.Join(parts[1:], " ")
			section.Line = lineNum
			stack = append(stack, section)
		default:
			parts := fields(line)
			node := current.Add(parts[0], strings.TrimSpace(line[len(parts[0]):]))
			node.Line = lineNum
		}
	}
	if len(stack) != 1 {
		return nil, parseErrorf("apache", path, len(lines), "unclosed section <%s>", stack[len(stack)-1].Label)
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

func refAudit(path string, content []byte) (*Result, error) {
	t := schema.New(path, auditColumns...)
	t.File = path
	for i, line := range refSplitLines(content) {
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" {
			continue
		}
		row, err := parseAuditRule(line)
		if err != nil {
			return nil, parseErrorf("audit", path, i+1, "%v", err)
		}
		if err := t.AddRow(row...); err != nil {
			return nil, parseErrorf("audit", path, i+1, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}

func refModprobe(path string, content []byte) (*Result, error) {
	t := schema.New(path, "directive", "module", "args", "raw")
	t.File = path
	lines := refSplitLines(content)
	for i := 0; i < len(lines); i++ {
		lineNum := i + 1
		line := strings.TrimSpace(lines[i])
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(lines[i])
		}
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" {
			continue
		}
		parts := fields(line)
		if !modprobeDirectives[parts[0]] {
			return nil, parseErrorf("modprobe", path, lineNum, "unknown directive %q", parts[0])
		}
		if len(parts) < 2 {
			return nil, parseErrorf("modprobe", path, lineNum, "directive %q requires a module name", parts[0])
		}
		args := ""
		if len(parts) > 2 {
			args = strings.Join(parts[2:], " ")
		}
		if err := t.AddRow(parts[0], parts[1], args, line); err != nil {
			return nil, parseErrorf("modprobe", path, lineNum, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}

func refTabular(l *Tabular, path string, content []byte) (*Result, error) {
	t := schema.New(path, l.columns...)
	t.File = path
	for i, line := range refSplitLines(content) {
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" {
			continue
		}
		var parts []string
		if l.delimiter == "" {
			parts = fields(line)
		} else {
			parts = strings.Split(line, l.delimiter)
		}
		if len(parts) < l.minFields {
			return nil, parseErrorf(l.name, path, i+1, "expected at least %d fields, got %d in %q", l.minFields, len(parts), line)
		}
		if len(parts) > len(l.columns) {
			if l.lastCatchAll || l.delimiter == "" {
				head := parts[:len(l.columns)-1]
				tail := strings.Join(parts[len(l.columns)-1:], delimiterOrSpace(l.delimiter))
				parts = append(append([]string(nil), head...), tail)
			} else {
				return nil, parseErrorf(l.name, path, i+1, "expected at most %d fields, got %d in %q", len(l.columns), len(parts), line)
			}
		}
		if err := t.AddRow(parts...); err != nil {
			return nil, parseErrorf(l.name, path, i+1, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}

func refCrontab(path string, content []byte) (*Result, error) {
	t := schema.New(path, "kind", "minute", "hour", "dom", "month", "dow", "user", "command")
	t.File = path
	for i, line := range refSplitLines(content) {
		line = strings.TrimSpace(refStripLineComment(line, "#"))
		if line == "" {
			continue
		}
		if idx := strings.IndexByte(line, '='); idx > 0 && !strings.ContainsAny(line[:idx], " \t*") {
			if err := t.AddRow("env", "", "", "", "", "", "", line); err != nil {
				return nil, parseErrorf("crontab", path, i+1, "%v", err)
			}
			continue
		}
		parts := fields(line)
		if len(parts) < 7 {
			return nil, parseErrorf("crontab", path, i+1, "expected 'm h dom mon dow user command', got %q", line)
		}
		command := strings.Join(parts[6:], " ")
		row := []string{"job", parts[0], parts[1], parts[2], parts[3], parts[4], parts[5], command}
		if err := t.AddRow(row...); err != nil {
			return nil, parseErrorf("crontab", path, i+1, "%v", err)
		}
	}
	return &Result{Kind: KindSchema, Table: t}, nil
}

// diffResult describes the first difference between a lens's parse and
// the reference's, or returns "" when they are the same: the same error
// text, or the same labels, values, files, line numbers and child order of
// the tree, or the same name, columns, file and rows of the table.
func diffResult(got *Result, gotErr error, want *Result, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
		}
		return ""
	}
	if got.Kind != want.Kind {
		return fmt.Sprintf("kind %v, reference kind %v", got.Kind, want.Kind)
	}
	if (got.Tree == nil) != (want.Tree == nil) || (got.Table == nil) != (want.Table == nil) {
		return "tree or table set on one side only"
	}
	if got.Tree != nil {
		return diffNode(got.Tree, want.Tree, "")
	}
	g, w := got.Table, want.Table
	if g.Name != w.Name || g.File != w.File || !slices.Equal(g.Columns, w.Columns) {
		return fmt.Sprintf("table %q %q %q, reference %q %q %q", g.Name, g.File, g.Columns, w.Name, w.File, w.Columns)
	}
	if len(g.Rows) != len(w.Rows) {
		return fmt.Sprintf("%d rows, reference %d", len(g.Rows), len(w.Rows))
	}
	for i := range g.Rows {
		if !slices.Equal(g.Rows[i], w.Rows[i]) {
			return fmt.Sprintf("row %d %q, reference %q", i+1, g.Rows[i], w.Rows[i])
		}
	}
	return ""
}

func diffNode(g, w *configtree.Node, at string) string {
	at += "/" + w.Label
	if g.Label != w.Label || g.Value != w.Value || g.File != w.File || g.Line != w.Line {
		return fmt.Sprintf("node %s: %q=%q %s:%d, reference %q=%q %s:%d",
			at, g.Label, g.Value, g.File, g.Line, w.Label, w.Value, w.File, w.Line)
	}
	if len(g.Children) != len(w.Children) {
		return fmt.Sprintf("node %s: %d children, reference %d", at, len(g.Children), len(w.Children))
	}
	for i := range g.Children {
		if d := diffNode(g.Children[i], w.Children[i], at); d != "" {
			return d
		}
	}
	return ""
}
