package yaml

import (
	"strconv"
	"strings"
)

// maxDepth bounds how deeply collections may nest, block and flow levels
// counted together. Without a bound, a few megabytes of '[' would recurse
// until the goroutine stack overflows, which recover cannot catch.
const maxDepth = 10000

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
//
// The stream is read once. Each line is cut, measured and classified as it
// is read into one line table shared by the whole stream; a document is
// parsed from its sub-slice of the table as soon as its end is seen.
func DecodeAll(data []byte) ([]any, error) {
	src := string(data)
	p := &parser{table: make([]srcLine, 0, strings.Count(src, "\n")+1)}
	for num, rest := 1, src; ; num++ {
		// "\r\n" and "\n" end a line; a lone '\r' stays part of it.
		i := strings.IndexByte(rest, '\n')
		if i < 0 {
			if err := p.addLine(rest, num); err != nil {
				return nil, err
			}
			break
		}
		line := rest[:i]
		if i > 0 && line[i-1] == '\r' {
			line = line[:i-1]
		}
		if err := p.addLine(line, num); err != nil {
			return nil, err
		}
		rest = rest[i+1:]
	}
	if err := p.endDocument(); err != nil {
		return nil, err
	}
	return p.docs, nil
}

// keyLenUnknown marks a line whose mapping key has not been measured yet.
const keyLenUnknown = -2

// srcLine is one source line with its indentation resolved.
type srcLine struct {
	text   string // content without leading indentation or trailing space
	raw    string // original text, used by block scalars
	num    int
	indent int
	keyLen int  // cached mappingKeyLen(text), or keyLenUnknown
	blank  bool // blank or comment-only line (kept for block scalars)
}

// mappingKeyLen returns mappingKeyLen(ln.text), measuring it once.
func (ln *srcLine) mappingKeyLen() int {
	if ln.keyLen == keyLenUnknown {
		ln.keyLen = mappingKeyLen(ln.text)
	}
	return ln.keyLen
}

// parser holds the line table of a stream and the state of the document
// being parsed. Collections are built on two scratch stacks, items for
// sequences and entries for mappings: a collection pushes onto a stack as
// it is parsed and is copied out, exactly sized, when it closes. A nested
// collection closes before its parent pushes again, so one stack serves
// every level.
type parser struct {
	table       []srcLine // every line read so far
	docStart    int       // index in table of the current document's first line
	significant bool      // the current document has a non-blank line
	docs        []any

	lines   []srcLine // the document being parsed
	pos     int
	depth   int // collections open around the current position
	items   []any
	entries []entry
}

// addLine classifies one source line: a document marker ends the current
// document, a directive before any content is skipped, and anything else
// joins the current document.
func (p *parser) addLine(raw string, num int) error {
	end := len(raw)
	for end > 0 && (raw[end-1] == ' ' || raw[end-1] == '\t') {
		end--
	}
	trimmed := raw[:end]
	indent := 0
	for indent < len(trimmed) && trimmed[indent] == ' ' {
		indent++
	}
	bare := strings.TrimSpace(trimmed[indent:])
	switch {
	case bare == "---" || strings.HasPrefix(bare, "--- "):
		if err := p.endDocument(); err != nil {
			return err
		}
		if rest := strings.TrimSpace(stripComment(bare[3:])); rest != "" {
			p.significant = true
			p.table = append(p.table, srcLine{num: num, text: rest, keyLen: keyLenUnknown})
		}
		return nil
	case bare == "...":
		return p.endDocument()
	case strings.HasPrefix(bare, "%") && len(p.table) == p.docStart:
		return nil // directive such as %YAML 1.1
	case bare == "" || bare[0] == '#':
		// Keep blank lines so block scalars can preserve them.
		p.table = append(p.table, srcLine{num: num, blank: true})
		return nil
	}
	if trimmed[indent] == '\t' {
		return syntaxErrorf(num, indent+1, "tab characters are not allowed in indentation")
	}
	p.significant = true
	p.table = append(p.table, srcLine{
		text: trimmed[indent:], raw: raw,
		num: num, indent: indent, keyLen: keyLenUnknown,
	})
	return nil
}

// endDocument parses the current document, unless it holds only blank
// lines, and starts the next one.
func (p *parser) endDocument() error {
	lines := p.table[p.docStart:]
	p.docStart = len(p.table)
	if !p.significant {
		return nil
	}
	p.significant = false
	p.lines, p.pos = lines, 0
	v, err := p.parseBlock(0)
	if err != nil {
		return err
	}
	p.skipBlanks()
	if p.pos < len(p.lines) {
		ln := &p.lines[p.pos]
		return syntaxErrorf(ln.num, ln.indent+1, "unexpected content %q after document value", ln.text)
	}
	p.docs = append(p.docs, v)
	return nil
}

// peek returns the next significant (non-blank) line without consuming it,
// or nil at the end of the document.
func (p *parser) peek() *srcLine {
	for i := p.pos; i < len(p.lines); i++ {
		if !p.lines[i].blank {
			return &p.lines[i]
		}
	}
	return nil
}

// skipBlanks moves pos to the next significant line.
func (p *parser) skipBlanks() {
	for p.pos < len(p.lines) && p.lines[p.pos].blank {
		p.pos++
	}
}

// enter opens one more level of collection nesting at line:col, failing
// past maxDepth. The caller decrements depth when the collection closes.
func (p *parser) enter(line, col int) error {
	p.depth++
	if p.depth > maxDepth {
		return syntaxErrorf(line, col, "collections nested more than %d levels deep", maxDepth)
	}
	return nil
}

// parseBlock parses a block-level value whose content is indented at least
// minIndent columns.
func (p *parser) parseBlock(minIndent int) (any, error) {
	ln := p.peek()
	if ln == nil || ln.indent < minIndent {
		return nil, nil
	}
	if isSequenceItem(ln.text) {
		return p.parseSequence(ln)
	}
	if ln.mappingKeyLen() >= 0 {
		return p.parseMapping(ln)
	}
	// A bare scalar document (single line, or flow collection).
	p.skipBlanks()
	p.pos++
	return p.parseInline(stripComment(ln.text), ln.num, ln.indent)
}

// parseMapping parses the block mapping whose first key line is first.
func (p *parser) parseMapping(first *srcLine) (any, error) {
	indent := first.indent
	if err := p.enter(first.num, indent+1); err != nil {
		return nil, err
	}
	base := len(p.entries)
	var index map[string]int32
	for {
		ln := p.peek()
		if ln == nil || ln.indent != indent {
			// Deeper indentation here means a stray continuation line.
			if ln != nil && ln.indent > indent {
				return nil, syntaxErrorf(ln.num, ln.indent+1, "unexpected indentation")
			}
			p.depth--
			return p.closeMap(base, index), nil
		}
		keyLen := ln.mappingKeyLen()
		if keyLen < 0 {
			return nil, syntaxErrorf(ln.num, indent+1, "expected 'key: value' mapping entry, got %q", ln.text)
		}
		key, err := parseKey(ln.text[:keyLen], ln.num)
		if err != nil {
			return nil, err
		}
		if p.hasKey(base, index, key) {
			return nil, syntaxErrorf(ln.num, indent+1, "duplicate mapping key %q", key)
		}
		rest := strings.TrimSpace(ln.text[keyLen+1:])
		pos := Pos{Line: ln.num, Col: indent + 1}
		p.skipBlanks()
		p.pos++ // consume the key line
		val, err := p.parseEntryValue(rest, ln)
		if err != nil {
			return nil, err
		}
		index = p.pushEntry(base, index, entry{key: key, val: val, pos: pos})
	}
}

// hasKey reports whether the mapping open at base already holds key.
func (p *parser) hasKey(base int, index map[string]int32, key string) bool {
	return indexOf(p.entries[base:], index, key) >= 0
}

// pushEntry adds e to the mapping open at base and returns its index,
// which is built once the mapping outgrows a linear scan.
func (p *parser) pushEntry(base int, index map[string]int32, e entry) map[string]int32 {
	p.entries = append(p.entries, e)
	switch n := len(p.entries) - base; {
	case index != nil:
		index[e.key] = int32(n - 1)
	case n > linearScanMax:
		index = newMapIndex(p.entries[base:])
	}
	return index
}

// closeMap copies the mapping open at base off the scratch stack.
func (p *parser) closeMap(base int, index map[string]int32) *Map {
	m := &Map{index: index}
	if n := len(p.entries) - base; n > 0 {
		m.entries = make([]entry, n)
		copy(m.entries, p.entries[base:])
		m.start = m.entries[0].pos
	}
	p.entries = p.entries[:base]
	return m
}

// closeSeq copies the sequence open at base off the scratch stack.
func (p *parser) closeSeq(base int) []any {
	seq := make([]any, len(p.items)-base)
	copy(seq, p.items[base:])
	p.items = p.items[:base]
	return seq
}

// parseEntryValue parses the value following "key:" or "- " where rest is
// the remainder of the introducing line.
func (p *parser) parseEntryValue(rest string, ln *srcLine) (any, error) {
	restNoComment := strings.TrimSpace(stripComment(rest))
	switch {
	case isBlockScalarHeader(restNoComment):
		return p.parseBlockScalar(restNoComment, ln.indent)
	case restNoComment == "":
		// Nested block or null.
		if next := p.peek(); next != nil && next.indent > ln.indent {
			return p.parseBlock(ln.indent + 1)
		}
		return nil, nil
	default:
		return p.parseInline(restNoComment, ln.num, ln.indent)
	}
}

// isSequenceItem reports whether a line's text is a block sequence item.
func isSequenceItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// parseSequence parses the block sequence whose first item line is first.
func (p *parser) parseSequence(first *srcLine) (any, error) {
	indent := first.indent
	if err := p.enter(first.num, indent+1); err != nil {
		return nil, err
	}
	base := len(p.items)
	for {
		ln := p.peek()
		if ln == nil || ln.indent != indent {
			if ln != nil && ln.indent > indent {
				return nil, syntaxErrorf(ln.num, ln.indent+1, "unexpected indentation")
			}
			p.depth--
			return p.closeSeq(base), nil
		}
		if !isSequenceItem(ln.text) {
			return nil, syntaxErrorf(ln.num, indent+1, "expected sequence item, got %q", ln.text)
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " "))
		p.skipBlanks()
		if rest == "" {
			p.pos++ // bare "-": nested block item
			if next := p.peek(); next != nil && next.indent > indent {
				item, err := p.parseBlock(indent + 1)
				if err != nil {
					return nil, err
				}
				p.items = append(p.items, item)
			} else {
				p.items = append(p.items, nil)
			}
			continue
		}
		if keyLen := mappingKeyLen(rest); keyLen >= 0 && !isBlockScalarHeader(strings.TrimSpace(stripComment(rest))) {
			// Compact mapping: "- key: value". Rewrite the current line as the
			// first mapping entry at the item's content indentation and parse a
			// mapping from there.
			offset := len(ln.text) - len(rest)
			*ln = srcLine{text: rest, num: ln.num, indent: indent + offset, keyLen: keyLen}
			item, err := p.parseMapping(ln)
			if err != nil {
				return nil, err
			}
			p.items = append(p.items, item)
			continue
		}
		p.pos++
		item, err := p.parseEntryValue(rest, ln)
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, item)
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
		ln := &p.lines[p.pos]
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

// keyScanStop marks the bytes that can change mappingKeyLen's state outside
// quotes; the scan skips every other byte.
var keyScanStop = [256]bool{'\'': true, '"': true, '[': true, '{': true, ']': true, '}': true, ':': true, '#': true}

// mappingKeyLen returns the byte length of the mapping key in line (the text
// before the value-introducing colon), or -1 when line is not a mapping
// entry. The colon must be outside quotes and followed by a space or EOL.
func mappingKeyLen(line string) int {
	depth := 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		if !keyScanStop[c] {
			continue
		}
		switch c {
		case '\'':
			j := strings.IndexByte(line[i+1:], '\'')
			if j < 0 {
				return -1
			}
			i += j + 1
		case '"':
			if i = closingDoubleQuote(line, i+1); i < 0 {
				return -1
			}
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ':':
			if depth == 0 && (i+1 == len(line) || line[i+1] == ' ' || line[i+1] == '\t') {
				return i
			}
		case '#':
			if depth == 0 && i > 0 && (line[i-1] == ' ' || line[i-1] == '\t') {
				return -1
			}
		}
	}
	return -1
}

// closingDoubleQuote returns the index of the '"' that closes a
// double-quoted run whose content starts at i, skipping backslash escapes,
// or -1 when the run is unterminated.
func closingDoubleQuote(s string, i int) int {
	for ; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
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
func (p *parser) parseInline(s string, lineNum, col int) (any, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	switch s[0] {
	case '[', '{':
		fp := flowParser{p: p, src: s, line: lineNum}
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

// flowParser parses flow collections, [a, b] and {k: v}, onto the scratch
// stacks of the block parser p.
type flowParser struct {
	p    *parser
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
	p := f.p
	if err := p.enter(f.line, f.pos+1); err != nil {
		return nil, err
	}
	f.pos++ // consume '['
	base := len(p.items)
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == ']' {
		f.pos++
		p.depth--
		return p.closeSeq(base), nil
	}
	for {
		v, err := f.parseValue()
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, v)
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, f.errf("unterminated flow sequence")
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case ']':
			f.pos++
			p.depth--
			return p.closeSeq(base), nil
		default:
			return nil, f.errf("expected ',' or ']' in flow sequence, got %q", f.src[f.pos])
		}
	}
}

func (f *flowParser) parseMap() (any, error) {
	p := f.p
	if err := p.enter(f.line, f.pos+1); err != nil {
		return nil, err
	}
	f.pos++ // consume '{'
	base := len(p.entries)
	var index map[string]int32
	f.skipSpace()
	if f.pos < len(f.src) && f.src[f.pos] == '}' {
		f.pos++
		p.depth--
		return p.closeMap(base, nil), nil
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
		if p.hasKey(base, index, key) {
			return nil, f.errf("duplicate flow mapping key %q", key)
		}
		index = p.pushEntry(base, index, entry{key: key, val: v, pos: Pos{Line: f.line, Col: keyStart + 1}})
		f.skipSpace()
		if f.pos >= len(f.src) {
			return nil, f.errf("unterminated flow mapping")
		}
		switch f.src[f.pos] {
		case ',':
			f.pos++
		case '}':
			f.pos++
			p.depth--
			return p.closeMap(base, index), nil
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
	if strings.IndexByte(s, '#') < 0 {
		return s
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			j := strings.IndexByte(s[i+1:], '\'')
			if j < 0 {
				return s
			}
			i += j + 1
		case '"':
			if i = closingDoubleQuote(s, i+1); i < 0 {
				return s
			}
		case '#':
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return strings.TrimRight(s[:i], " \t")
			}
		}
	}
	return s
}
