package lens

import (
	"strings"

	"configvalidator/internal/configtree"
)

// Nginx parses nginx configuration files: semicolon-terminated directives
// and brace-delimited blocks, nested arbitrarily. A directive "listen 443
// ssl;" becomes a node labelled "listen" with value "443 ssl"; a block
// "server { ... }" becomes a section labelled "server" whose value holds the
// block arguments (e.g. "location /api" -> label "location", value "/api").
type Nginx struct{}

var _ Lens = (*Nginx)(nil)

// NewNginx returns the nginx lens.
func NewNginx() *Nginx { return &Nginx{} }

// Name implements Lens.
func (l *Nginx) Name() string { return "nginx" }

// Parse implements Lens.
func (l *Nginx) Parse(path string, content []byte) (*Result, error) {
	root := configtree.New(path)
	root.File = path
	tok := newNginxTokenizer(string(content))
	if err := parseNginxBlock(tok, root, path, true); err != nil {
		return nil, err
	}
	return &Result{Kind: KindTree, Tree: root}, nil
}

// parseNginxBlock consumes tokens into parent until '}' (or EOF at top
// level).
func parseNginxBlock(tok *nginxTokenizer, parent *configtree.Node, path string, top bool) error {
	var words []string
	var firstLine int
	for {
		t, ok := tok.next()
		if !ok {
			if !top {
				return parseErrorf("nginx", path, tok.line, "unexpected end of file inside block")
			}
			if len(words) > 0 {
				return parseErrorf("nginx", path, firstLine, "directive %q missing terminating ';'", strings.Join(words, " "))
			}
			return nil
		}
		switch t.kind {
		case nginxWord:
			if len(words) == 0 {
				firstLine = t.line
			}
			words = append(words, t.text)
		case nginxSemi:
			if len(words) == 0 {
				continue // stray semicolon
			}
			node := parent.Add(words[0], strings.Join(words[1:], " "))
			node.Line = firstLine
			words = nil
		case nginxOpen:
			if len(words) == 0 {
				return parseErrorf("nginx", path, t.line, "'{' without a block name")
			}
			section := parent.Section(words[0])
			section.Value = strings.Join(words[1:], " ")
			section.Line = firstLine
			words = nil
			if err := parseNginxBlock(tok, section, path, false); err != nil {
				return err
			}
		case nginxClose:
			if top {
				return parseErrorf("nginx", path, t.line, "unbalanced '}'")
			}
			if len(words) > 0 {
				return parseErrorf("nginx", path, firstLine, "directive %q missing terminating ';'", strings.Join(words, " "))
			}
			return nil
		}
	}
}

type nginxTokenKind int

const (
	nginxWord nginxTokenKind = iota + 1
	nginxSemi
	nginxOpen
	nginxClose
)

type nginxToken struct {
	kind nginxTokenKind
	text string
	line int
}

type nginxTokenizer struct {
	src  string
	pos  int
	line int
}

func newNginxTokenizer(src string) *nginxTokenizer {
	return &nginxTokenizer{src: src, line: 1}
}

func (t *nginxTokenizer) next() (nginxToken, bool) {
	for t.pos < len(t.src) {
		c := t.src[t.pos]
		switch {
		case c == '\n':
			t.line++
			t.pos++
		case c == ' ' || c == '\t' || c == '\r':
			t.pos++
		case c == '#':
			for t.pos < len(t.src) && t.src[t.pos] != '\n' {
				t.pos++
			}
		case c == ';':
			t.pos++
			return nginxToken{kind: nginxSemi, line: t.line}, true
		case c == '{':
			t.pos++
			return nginxToken{kind: nginxOpen, line: t.line}, true
		case c == '}':
			t.pos++
			return nginxToken{kind: nginxClose, line: t.line}, true
		case c == '"' || c == '\'':
			start := t.pos
			quote := c
			t.pos++
			for t.pos < len(t.src) && t.src[t.pos] != quote {
				if t.src[t.pos] == '\\' && t.pos+1 < len(t.src) {
					t.pos++
				}
				if t.pos < len(t.src) && t.src[t.pos] == '\n' {
					t.line++
				}
				t.pos++
			}
			if t.pos < len(t.src) {
				t.pos++ // closing quote
			}
			raw := t.src[start:t.pos]
			// Keep the unquoted text; rule values in the paper are unquoted.
			text := strings.Trim(raw, string(quote))
			return nginxToken{kind: nginxWord, text: text, line: t.line}, true
		default:
			start := t.pos
			startLine := t.line
			for t.pos < len(t.src) {
				c := t.src[t.pos]
				if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' || c == '{' || c == '}' || c == '#' {
					break
				}
				t.pos++
			}
			return nginxToken{kind: nginxWord, text: t.src[start:t.pos], line: startLine}, true
		}
	}
	return nginxToken{}, false
}
