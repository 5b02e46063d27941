package lens

import (
	"strings"

	"configvalidator/internal/configtree"
)

// INI parses INI-style files with [section] headers and key=value entries,
// the format used by MySQL (my.cnf) among others. Keys before the first
// section header attach to the root; bare keys (flags such as skip-networking
// in my.cnf) become nodes with empty values. The "!include"/"!includedir"
// directives used by MySQL are recorded under an "#include" label so rules
// can assert on them without the lens performing file I/O.
type INI struct {
	name string
}

var _ Lens = (*INI)(nil)

// NewINI returns an INI lens registered under the given name (e.g. "mysql").
func NewINI(name string) *INI { return &INI{name: name} }

// Name implements Lens.
func (l *INI) Name() string { return l.name }

// Parse implements Lens.
func (l *INI) Parse(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	current := root
	for r := newLineReader(content); r.scan("#;", false); {
		line := r.text
		if line[0] == '[' {
			if !strings.HasSuffix(line, "]") {
				return nil, parseErrorf(l.name, path, r.start, "unterminated section header %q", line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" {
				return nil, parseErrorf(l.name, path, r.start, "empty section header")
			}
			section := root.Section(name)
			section.Line = r.start
			current = section
			continue
		}
		if line[0] == '!' {
			node := current.Add("#include", strings.TrimSpace(line[1:]))
			node.Line = r.start
			continue
		}
		if idx := strings.IndexByte(line, '='); idx > 0 {
			key := strings.TrimSpace(line[:idx])
			value := strings.TrimSpace(line[idx+1:])
			value = unquoteINI(value)
			node := current.Add(key, value)
			node.Line = r.start
			continue
		}
		// Bare flag key, e.g. "skip-networking".
		node := current.Add(line, "")
		node.Line = r.start
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

func unquoteINI(v string) string {
	if len(v) >= 2 {
		if (v[0] == '"' && v[len(v)-1] == '"') || (v[0] == '\'' && v[len(v)-1] == '\'') {
			return v[1 : len(v)-1]
		}
	}
	return v
}
