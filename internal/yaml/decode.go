package yaml

import (
	"strconv"
	"strings"
)

// Decode parses a single YAML document. An empty input decodes to nil.
// Inputs containing more than one document are rejected; use DecodeAll.
func Decode(data []byte) (any, error) {
	docs, err := DecodeAll(data)
	if err != nil {
		return nil, err
	}
	switch len(docs) {
	case 0:
		return nil, nil
	case 1:
		return docs[0], nil
	default:
		return nil, syntaxErrorf(1, 1, "expected a single document, found %d", len(docs))
	}
}

// DecodeAll parses a (possibly multi-document) YAML stream and returns one
// value per document.
func DecodeAll(data []byte) ([]any, error) {
	raw := strings.Split(strings.ReplaceAll(string(data), "\r\n", "\n"), "\n")
	var docs []any
	var cur []srcLine
	flush := func() error {
		significant := false
		for _, ln := range cur {
			if !ln.blank {
				significant = true
				break
			}
		}
		if !significant {
			cur = nil
			return nil
		}
		p := &parser{lines: cur}
		v, err := p.parseBlock(0)
		if err != nil {
			return err
		}
		p.skipBlanks()
		if p.pos < len(p.lines) {
			ln := p.lines[p.pos]
			return syntaxErrorf(ln.num, ln.indent+1, "unexpected content %q after document value", ln.text)
		}
		docs = append(docs, v)
		cur = nil
		return nil
	}
	for i, rawLine := range raw {
		num := i + 1
		trimmed := strings.TrimRight(rawLine, " \t")
		bare := strings.TrimSpace(trimmed)
		if bare == "---" || strings.HasPrefix(bare, "--- ") {
			if err := flush(); err != nil {
				return nil, err
			}
			rest := strings.TrimPrefix(bare, "---")
			rest = strings.TrimSpace(stripComment(rest))
			if rest != "" {
				cur = append(cur, srcLine{num: num, indent: 0, text: rest})
			}
			continue
		}
		if bare == "..." {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(bare, "%") && len(cur) == 0 {
			continue // directive such as %YAML 1.1
		}
		if bare == "" || strings.HasPrefix(bare, "#") {
			// Keep blank lines so block scalars can preserve them.
			cur = append(cur, srcLine{num: num, indent: 0, text: "", blank: true, raw: rawLine})
			continue
		}
		indent, err := indentOf(trimmed, num)
		if err != nil {
			return nil, err
		}
		cur = append(cur, srcLine{num: num, indent: indent, text: trimmed[indent:], raw: rawLine})
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return docs, nil
}

// srcLine is one significant source line with its indentation resolved.
type srcLine struct {
	num    int
	indent int
	text   string // content without leading indentation or trailing space
	blank  bool   // blank or comment-only line (kept for block scalars)
	raw    string // original text, used by block scalars
}

type parser struct {
	lines []srcLine
	pos   int
}

// peek returns the next significant (non-blank) line without consuming it.
func (p *parser) peek() (srcLine, bool) {
	for i := p.pos; i < len(p.lines); i++ {
		if !p.lines[i].blank {
			return p.lines[i], true
		}
	}
	return srcLine{}, false
}

// advanceTo moves pos to the given significant line index.
func (p *parser) skipBlanks() {
	for p.pos < len(p.lines) && p.lines[p.pos].blank {
		p.pos++
	}
}

// parseBlock parses a block-level value whose content is indented at least
// minIndent columns.
func (p *parser) parseBlock(minIndent int) (any, error) {
	ln, ok := p.peek()
	if !ok || ln.indent < minIndent {
		return nil, nil
	}
	if ln.text == "-" || strings.HasPrefix(ln.text, "- ") {
		return p.parseSequence(ln.indent)
	}
	if keyLen := mappingKeyLen(ln.text); keyLen >= 0 {
		return p.parseMapping(ln.indent)
	}
	// A bare scalar document (single line, or flow collection).
	p.skipBlanks()
	p.pos++
	content := stripComment(ln.text)
	return parseInline(content, ln.num, ln.indent)
}

func (p *parser) parseMapping(indent int) (any, error) {
	m := NewMap()
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent {
			// Deeper indentation here means a stray continuation line.
			if ok && ln.indent > indent {
				return nil, syntaxErrorf(ln.num, ln.indent+1, "unexpected indentation")
			}
			return m, nil
		}
		keyLen := mappingKeyLen(ln.text)
		if keyLen < 0 {
			return nil, syntaxErrorf(ln.num, ln.indent+1, "expected 'key: value' mapping entry, got %q", ln.text)
		}
		key, err := parseKey(ln.text[:keyLen], ln.num)
		if err != nil {
			return nil, err
		}
		if m.Has(key) {
			return nil, syntaxErrorf(ln.num, ln.indent+1, "duplicate mapping key %q", key)
		}
		rest := strings.TrimSpace(ln.text[keyLen+1:])
		p.skipBlanks()
		p.pos++ // consume the key line
		val, err := p.parseEntryValue(rest, ln)
		if err != nil {
			return nil, err
		}
		m.Set(key, val)
		m.SetKeyPos(key, Pos{Line: ln.num, Col: ln.indent + 1})
	}
}

// parseEntryValue parses the value following "key:" or "- " where rest is
// the remainder of the introducing line.
func (p *parser) parseEntryValue(rest string, ln srcLine) (any, error) {
	restNoComment := strings.TrimSpace(stripComment(rest))
	switch {
	case isBlockScalarHeader(restNoComment):
		return p.parseBlockScalar(restNoComment, ln.indent)
	case restNoComment == "":
		// Nested block or null.
		next, ok := p.peek()
		if ok && next.indent > ln.indent {
			return p.parseBlock(ln.indent + 1)
		}
		return nil, nil
	default:
		return parseInline(restNoComment, ln.num, ln.indent)
	}
}

func (p *parser) parseSequence(indent int) (any, error) {
	seq := []any{}
	for {
		ln, ok := p.peek()
		if !ok || ln.indent != indent {
			if ok && ln.indent > indent {
				return nil, syntaxErrorf(ln.num, ln.indent+1, "unexpected indentation")
			}
			return seq, nil
		}
		if ln.text != "-" && !strings.HasPrefix(ln.text, "- ") {
			return nil, syntaxErrorf(ln.num, ln.indent+1, "expected sequence item, got %q", ln.text)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " "))
		p.skipBlanks()
		if rest == "" {
			p.pos++ // bare "-": nested block item
			next, ok := p.peek()
			if ok && next.indent > indent {
				item, err := p.parseBlock(indent + 1)
				if err != nil {
					return nil, err
				}
				seq = append(seq, item)
			} else {
				seq = append(seq, nil)
			}
			continue
		}
		if keyLen := mappingKeyLen(rest); keyLen >= 0 && !isBlockScalarHeader(strings.TrimSpace(stripComment(rest))) {
			// Compact mapping: "- key: value". Rewrite the current line as the
			// first mapping entry at the item's content indentation and parse a
			// mapping from there.
			offset := len(ln.text) - len(rest)
			p.lines[p.pos] = srcLine{num: ln.num, indent: indent + offset, text: rest}
			item, err := p.parseMapping(indent + offset)
			if err != nil {
				return nil, err
			}
			seq = append(seq, item)
			continue
		}
		p.pos++
		item, err := p.parseEntryValue(rest, ln)
		if err != nil {
			return nil, err
		}
		seq = append(seq, item)
	}
}

// parseBlockScalar handles | and > scalars. header is "|", ">", optionally
// followed by a chomping indicator (+ or -).
func (p *parser) parseBlockScalar(header string, parentIndent int) (any, error) {
	style := header[0]
	chomp := byte(0)
	if len(header) > 1 {
		chomp = header[1]
	}
	var body []string
	blockIndent := -1
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.blank {
			body = append(body, "")
			p.pos++
			continue
		}
		if ln.indent <= parentIndent {
			break
		}
		if blockIndent == -1 {
			blockIndent = ln.indent
		}
		if ln.indent < blockIndent {
			break
		}
		body = append(body, ln.raw[blockIndent:])
		p.pos++
	}
	// Trim trailing blank lines recorded past the scalar's end.
	for len(body) > 0 && body[len(body)-1] == "" {
		body = body[:len(body)-1]
	}
	var s string
	if style == '|' {
		s = strings.Join(body, "\n")
	} else {
		s = foldLines(body)
	}
	switch chomp {
	case '-':
		return s, nil
	case '+':
		return s + "\n", nil
	default:
		if s == "" {
			return "", nil
		}
		return s + "\n", nil
	}
}

func foldLines(body []string) string {
	var b strings.Builder
	prevBlank := true
	for i, line := range body {
		switch {
		case line == "":
			b.WriteByte('\n')
			prevBlank = true
		case i == 0 || prevBlank:
			b.WriteString(line)
			prevBlank = false
		default:
			b.WriteByte(' ')
			b.WriteString(line)
		}
	}
	return b.String()
}

// mappingKeyLen returns the byte length of the mapping key in line (the text
// before the value-introducing colon), or -1 when line is not a mapping
// entry. The colon must be outside quotes and followed by a space or EOL.
func mappingKeyLen(line string) int {
	inSingle, inDouble := false, false
	depth := 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inSingle:
			if c == '\'' {
				inSingle = false
			}
		case inDouble:
			if c == '\\' {
				i++
			} else if c == '"' {
				inDouble = false
			}
		case c == '\'':
			inSingle = true
		case c == '"':
			inDouble = true
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0:
			if i+1 == len(line) || line[i+1] == ' ' || line[i+1] == '\t' {
				return i
			}
		case c == '#' && depth == 0 && i > 0 && (line[i-1] == ' ' || line[i-1] == '\t'):
			return -1
		}
	}
	return -1
}

// parseKey interprets a mapping key, unquoting when necessary.
func parseKey(s string, lineNum int) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", syntaxErrorf(lineNum, 1, "empty mapping key")
	}
	if s[0] == '\'' || s[0] == '"' {
		v, rest, err := parseQuoted(s, lineNum)
		if err != nil {
			return "", err
		}
		if strings.TrimSpace(rest) != "" {
			return "", syntaxErrorf(lineNum, 1, "unexpected content after quoted key")
		}
		return v, nil
	}
	if s[0] == '&' || s[0] == '*' || s[0] == '!' {
		return "", syntaxErrorf(lineNum, 1, "anchors, aliases, and tags are not supported (key %q)", s)
	}
	return s, nil
}

// parseInline parses a value that fits on one line: a flow collection, a
// quoted string, or a plain scalar.
func parseInline(s string, lineNum, col int) (any, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	switch s[0] {
	case '[', '{':
		fp := &flowParser{src: s, line: lineNum}
		v, err := fp.parseValue()
		if err != nil {
			return nil, err
		}
		fp.skipSpace()
		if fp.pos < len(fp.src) {
			return nil, syntaxErrorf(lineNum, col+fp.pos+1, "unexpected content %q after flow value", fp.src[fp.pos:])
		}
		return v, nil
	case '\'', '"':
		v, rest, err := parseQuoted(s, lineNum)
		if err != nil {
			return nil, err
		}
		if strings.TrimSpace(rest) != "" {
			return nil, syntaxErrorf(lineNum, col+1, "unexpected content after quoted scalar")
		}
		return v, nil
	case '&', '*':
		return nil, syntaxErrorf(lineNum, col+1, "anchors and aliases are not supported")
	}
	if strings.HasPrefix(s, "!!") {
		return nil, syntaxErrorf(lineNum, col+1, "tags are not supported")
	}
	return plainScalar(s), nil
}

// parseQuoted parses a leading quoted string and returns the remainder.
func parseQuoted(s string, lineNum int) (string, string, error) {
	quote := s[0]
	// Up to the first escape — a backslash in a double-quoted scalar, a
	// doubled quote in a single-quoted one — the scalar is a substring of
	// the input: when the closing quote comes first, return it without
	// copying.
	i := 1
	for ; i < len(s); i++ {
		if c := s[i]; c == quote {
			if quote == '\'' && i+1 < len(s) && s[i+1] == '\'' {
				break
			}
			return s[1:i], s[i+1:], nil
		} else if c == '\\' && quote == '"' {
			break
		}
	}
	var b strings.Builder
	b.WriteString(s[1:i])
	for i < len(s) {
		c := s[i]
		if quote == '\'' {
			if c == '\'' {
				if i+1 < len(s) && s[i+1] == '\'' { // escaped quote
					b.WriteByte('\'')
					i += 2
					continue
				}
				return b.String(), s[i+1:], nil
			}
			b.WriteByte(c)
			i++
			continue
		}
		// double quote
		if c == '"' {
			return b.String(), s[i+1:], nil
		}
		if c == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
			i++
			continue
		}
		b.WriteByte(c)
		i++
	}
	return "", "", syntaxErrorf(lineNum, 1, "unterminated %c-quoted string", quote)
}

// plainScalar resolves an unquoted scalar to its typed value.
func plainScalar(s string) any {
	switch s {
	case "null", "Null", "NULL", "~":
		return nil
	case "true", "True", "TRUE":
		return true
	case "false", "False", "FALSE":
		return false
	}
	if looksNumeric(s) {
		if n, err := strconv.ParseInt(s, 0, 64); err == nil {
			return n
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	return s
}

func looksNumeric(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	if c == '+' || c == '-' {
		if len(s) == 1 {
			return false
		}
		c = s[1]
	}
	return c >= '0' && c <= '9' || c == '.'
}

// flowParser parses flow collections: [a, b] and {k: v}.
type flowParser struct {
	src  string
	pos  int
	line int
}

func (f *flowParser) skipSpace() {
	for f.pos < len(f.src) && (f.src[f.pos] == ' ' || f.src[f.pos] == '\t') {
		f.pos++
	}
}

func (f *flowParser) errf(format string, args ...any) error {
	return syntaxErrorf(f.line, f.pos+1, format, args...)
}

func (f *flowParser) parseValue() (any, error) {
	f.skipSpace()
	if f.pos >= len(f.src) {
		return nil, f.errf("unexpected end of flow value")
	}
	switch f.src[f.pos] {
	case '[':
		return f.parseSeq()
	case '{':
		return f.parseMap()
	case '\'', '"':
		v, rest, err := parseQuoted(f.src[f.pos:], f.line)
		if err != nil {
			return nil, err
		}
		f.pos = len(f.src) - len(rest)
		return v, nil
	case '&', '*':
		return nil, f.errf("anchors and aliases are not supported")
	}
	return f.parsePlain()
}

func (f *flowParser) parsePlain() (any, error) {
	start := f.pos
	for f.pos < len(f.src) {
		c := f.src[f.pos]
		if c == ',' || c == ']' || c == '}' || c == ':' {
			if c == ':' && (f.pos+1 >= len(f.src) || f.src[f.pos+1] != ' ') {
				// colon not followed by space is part of a plain scalar
				f.pos++
				continue
			}
			break
		}
		f.pos++
	}
	s := strings.TrimSpace(f.src[start:f.pos])
	if s == "" {
		return nil, f.errf("empty flow scalar")
	}
	return plainScalar(s), nil
}

func (f *flowParser) parseSeq() (any, error) {
	f.pos++ // consume '['
	seq := []any{}
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == ']' {
		f.pos++
		return seq, nil
	}
	for {
		v, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, f.errf("unterminated flow sequence")
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case ']':
			f.pos++
			return seq, nil
		default:
			return nil, f.errf("expected ',' or ']' in flow sequence, got %q", f.src[f.pos])
		}
	}
}

func (f *flowParser) parseMap() (any, error) {
	f.pos++ // consume '{'
	m := NewMap()
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == '}' {
		f.pos++
		return m, nil
	}
	for {
		f.skipSpace()
		keyStart := f.pos
		var key string
		if f.pos < len(f.src) && (f.src[f.pos] == '\'' || f.src[f.pos] == '"') {
			v, rest, err := parseQuoted(f.src[f.pos:], f.line)
			if err != nil {
				return nil, err
			}
			f.pos = len(f.src) - len(rest)
			key = v
		} else {
			start := f.pos
			for f.pos < len(f.src) && f.src[f.pos] != ':' && f.src[f.pos] != ',' && f.src[f.pos] != '}' {
				f.pos++
			}
			key = strings.TrimSpace(f.src[start:f.pos])
		}
		f.skipSpace()
		if f.pos >= len(f.src) || f.src[f.pos] != ':' {
			return nil, f.errf("expected ':' after flow mapping key %q", key)
		}
		f.pos++
		v, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		if m.Has(key) {
			return nil, f.errf("duplicate flow mapping key %q", key)
		}
		m.Set(key, v)
		m.SetKeyPos(key, Pos{Line: f.line, Col: keyStart + 1})
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, f.errf("unterminated flow mapping")
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case '}':
			f.pos++
			return m, nil
		default:
			return nil, f.errf("expected ',' or '}' in flow mapping, got %q", f.src[f.pos])
		}
	}
}

// isBlockScalarHeader reports whether s introduces a literal or folded block
// scalar ("|", ">", optionally with a +/- chomping indicator).
func isBlockScalarHeader(s string) bool {
	if s == "" {
		return false
	}
	if s[0] != '|' && s[0] != '>' {
		return false
	}
	return len(s) == 1 || (len(s) == 2 && (s[1] == '+' || s[1] == '-'))
}

// stripComment removes a trailing comment from a line, respecting quoting.
// A '#' begins a comment only at line start or when preceded by whitespace.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inSingle:
			if c == '\'' {
				inSingle = false
			}
		case inDouble:
			if c == '\\' {
				i++
			} else if c == '"' {
				inDouble = false
			}
		case c == '\'':
			inSingle = true
		case c == '"':
			inDouble = true
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return strings.TrimRight(s[:i], " \t")
		}
	}
	return s
}

// indentOf counts leading spaces; tab indentation is a YAML error.
func indentOf(s string, lineNum int) (int, error) {
	n := 0
	for n < len(s) {
		switch s[n] {
		case ' ':
			n++
		case '\t':
			return 0, syntaxErrorf(lineNum, n+1, "tab characters are not allowed in indentation")
		default:
			return n, nil
		}
	}
	return n, nil
}
