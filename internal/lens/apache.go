package lens

import (
	"strings"

	"configvalidator/internal/configtree"
)

// Apache parses Apache httpd configuration: one directive per line
// ("Keyword arguments") plus container sections delimited by
// <Section args> ... </Section>. Continuation lines ending in '\' are
// joined. The paper (§6) calls out apache2.conf's modular style as the
// harder-to-parse tree case; this lens preserves the nesting exactly.
type Apache struct{}

var _ Lens = (*Apache)(nil)

// NewApache returns the apache lens.
func NewApache() *Apache { return &Apache{} }

// Name implements Lens.
func (l *Apache) Name() string { return "apache" }

// Parse implements Lens.
func (l *Apache) Parse(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	stack := []*configtree.Node{root}
	r := newLineReader(content)
	for r.scan("#", true) {
		line, lineNum := r.text, r.start
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
			key := firstField(line)
			node := current.Add(key, strings.TrimSpace(line[len(key):]))
			node.Line = lineNum
		}
	}
	if len(stack) != 1 {
		return nil, parseErrorf("apache", path, r.n, "unclosed section <%s>", stack[len(stack)-1].Label)
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}
