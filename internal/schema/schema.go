// Package schema defines the SQL-table-like structure that the data
// normalizer produces for "schema pattern" configuration files — files such
// as /etc/passwd, /etc/fstab, or /etc/audit/audit.rules where each line is a
// row whose fields have positional meaning.
//
// CVL schema rules query these tables through a small constraint language
// mirroring the paper's examples:
//
//	query_constraints: "dir = ?"
//	query_constraints_value: ["/tmp"]
//	query_columns: "*"
//
// Constraints support =, !=, <, <=, >, >=, LIKE and IN, combined with
// AND/OR/NOT and parentheses. Two values compare numerically when both parse
// as numbers other than NaN, in string order otherwise (Compare). In a LIKE
// pattern, '_' matches one character and '%' any run of characters,
// newlines included (Like).
package schema

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a named relation with ordered columns and rows.
type Table struct {
	// Name identifies the table, typically the source file path.
	Name string
	// Columns are the field names in positional order.
	Columns []string
	// Rows hold the data; each row has len(Columns) fields.
	Rows [][]string
	// File is the source file, when known.
	File string
}

// New creates an empty table with the given columns.
func New(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: append([]string(nil), columns...)}
}

// AddRow appends a row. Short rows are padded with empty fields; long rows
// are an error.
func (t *Table) AddRow(fields ...string) error {
	if len(fields) > len(t.Columns) {
		return fmt.Errorf("schema: table %s: row has %d fields, columns are %d", t.Name, len(fields), len(t.Columns))
	}
	row := make([]string, len(t.Columns))
	copy(row, fields)
	t.Rows = append(t.Rows, row)
	return nil
}

// ColumnIndex returns the position of the named column.
func (t *Table) ColumnIndex(name string) (int, bool) {
	for i, c := range t.Columns {
		if c == name {
			return i, true
		}
	}
	return -1, false
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Query describes a selection over a table.
type Query struct {
	// Columns is the projection: nil, empty, or ["*"] selects all columns.
	Columns []string
	// Constraints is the filter expression, e.g. "dir = ? AND fstype != ?".
	// Empty selects all rows.
	Constraints string
	// Args provide values for the '?' placeholders, in order.
	Args []string
}

// Select evaluates the query and returns a new table with the matching rows
// and projected columns.
func (t *Table) Select(q Query) (*Table, error) {
	var expr boolExpr
	if strings.TrimSpace(q.Constraints) != "" {
		p := &constraintParser{input: q.Constraints, args: q.Args}
		var err error
		expr, err = p.parse()
		if err != nil {
			return nil, fmt.Errorf("schema: table %s: %w", t.Name, err)
		}
		if p.argPos < len(q.Args) {
			return nil, fmt.Errorf("schema: table %s: %d placeholder values supplied, %d used", t.Name, len(q.Args), p.argPos)
		}
	}

	projIdx, projCols, err := t.projection(q.Columns)
	if err != nil {
		return nil, err
	}
	out := &Table{Name: t.Name, Columns: projCols, File: t.File}
	for _, row := range t.Rows {
		if expr != nil {
			ok, evalErr := expr.eval(t, row)
			if evalErr != nil {
				return nil, fmt.Errorf("schema: table %s: %w", t.Name, evalErr)
			}
			if !ok {
				continue
			}
		}
		proj := make([]string, len(projIdx))
		for i, ci := range projIdx {
			proj[i] = row[ci]
		}
		out.Rows = append(out.Rows, proj)
	}
	return out, nil
}

func (t *Table) projection(cols []string) ([]int, []string, error) {
	if len(cols) == 0 || (len(cols) == 1 && cols[0] == "*") {
		idx := make([]int, len(t.Columns))
		for i := range idx {
			idx[i] = i
		}
		return idx, append([]string(nil), t.Columns...), nil
	}
	idx := make([]int, 0, len(cols))
	names := make([]string, 0, len(cols))
	for _, c := range cols {
		i, ok := t.ColumnIndex(c)
		if !ok {
			return nil, nil, fmt.Errorf("schema: table %s has no column %q", t.Name, c)
		}
		idx = append(idx, i)
		names = append(names, c)
	}
	return idx, names, nil
}

// String renders the table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Name)
	b.WriteString(" (")
	b.WriteString(strings.Join(t.Columns, ", "))
	b.WriteString(")\n")
	for _, r := range t.Rows {
		b.WriteString("  ")
		b.WriteString(strings.Join(r, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// boolExpr is a parsed constraint expression.
type boolExpr interface {
	eval(t *Table, row []string) (bool, error)
}

type binaryBool struct {
	op    string // "AND" or "OR"
	left  boolExpr
	right boolExpr
}

func (b *binaryBool) eval(t *Table, row []string) (bool, error) {
	l, err := b.left.eval(t, row)
	if err != nil {
		return false, err
	}
	if b.op == "AND" && !l {
		return false, nil
	}
	if b.op == "OR" && l {
		return true, nil
	}
	return b.right.eval(t, row)
}

type notExpr struct{ inner boolExpr }

func (n *notExpr) eval(t *Table, row []string) (bool, error) {
	v, err := n.inner.eval(t, row)
	return !v, err
}

// eval applies the atom to its column's cell in row.
func (a *Atom) eval(t *Table, row []string) (bool, error) {
	idx, ok := t.ColumnIndex(a.Column)
	if !ok {
		return false, fmt.Errorf("no column %q", a.Column)
	}
	return a.Holds(row[idx]), nil
}

// Holds reports whether a cell satisfies the atom: the one evaluation of a
// comparison, which Select applies to every row and the semantic rule
// checker uses as its membership test.
func (a *Atom) Holds(cell string) bool {
	switch a.Op {
	case "=":
		return Compare(cell, a.Values[0]) == 0
	case "!=":
		return Compare(cell, a.Values[0]) != 0
	case "<":
		return Compare(cell, a.Values[0]) < 0
	case "<=":
		return Compare(cell, a.Values[0]) <= 0
	case ">":
		return Compare(cell, a.Values[0]) > 0
	case ">=":
		return Compare(cell, a.Values[0]) >= 0
	case "LIKE":
		return Like(a.Values[0], cell)
	case "IN":
		for _, v := range a.Values {
			if Compare(cell, v) == 0 {
				return true
			}
		}
	}
	return false
}

// Compare orders two cells: numerically when both are numbers (Number),
// in string order otherwise. A NaN is not a number, so it compares as the
// string it is.
func Compare(a, b string) int {
	if mayParseFloat(a) && mayParseFloat(b) {
		fa, okA := Number(a)
		fb, okB := Number(b)
		if okA && okB {
			return cmp.Compare(fa, fb)
		}
	}
	return strings.Compare(a, b)
}

// Number reports whether a cell compares as a number, and its value:
// strconv.ParseFloat accepts the whole string (so surrounding spaces make
// it text) and the value is not NaN.
func Number(s string) (float64, bool) {
	if !mayParseFloat(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f)
}

// mayParseFloat is a necessary condition for strconv.ParseFloat to
// accept s: after an optional sign, s starts with a digit, '.', or the
// first letter of "inf"/"infinity"/"nan". Ruling out the rest up front
// spares comparisons of non-numeric cells the *NumError that a failed
// parse allocates.
func mayParseFloat(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// Like reports whether s matches the SQL LIKE pattern: '_' matches exactly
// one character, '%' any run of characters (newlines included), and every
// other byte itself; there is no escape character. A byte that is not
// valid UTF-8 counts as one character.
//
// On a mismatch only the last '%' takes one more character: an earlier
// '%' never has to, since the later one absorbs whatever it would have.
// So a match costs at most len(s) × len(pattern) steps.
func Like(pattern, s string) bool {
	p, i := 0, 0        // next pattern byte, next byte of s
	star, mark := -1, 0 // the last '%' seen and where its run ends
	for i < len(s) {
		switch {
		case p < len(pattern) && pattern[p] == '%':
			star, mark = p, i
			p++
		case p < len(pattern) && pattern[p] == '_':
			_, w := utf8.DecodeRuneInString(s[i:])
			p, i = p+1, i+w
		case p < len(pattern) && pattern[p] == s[i]:
			p, i = p+1, i+1
		case star >= 0:
			_, w := utf8.DecodeRuneInString(s[mark:])
			mark += w
			p, i = star+1, mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// constraintParser parses the constraint mini-language.
type constraintParser struct {
	input  string
	pos    int
	args   []string
	argPos int
}

func (p *constraintParser) parse() (boolExpr, error) {
	expr, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.input) {
		return nil, fmt.Errorf("constraint: unexpected input at %q", p.input[p.pos:])
	}
	return expr, nil
}

func (p *constraintParser) parseOr() (boolExpr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.consumeKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryBool{op: "OR", left: left, right: right}
	}
	return left, nil
}

func (p *constraintParser) parseAnd() (boolExpr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.consumeKeyword("AND") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binaryBool{op: "AND", left: left, right: right}
	}
	return left, nil
}

func (p *constraintParser) parseUnary() (boolExpr, error) {
	if p.consumeKeyword("NOT") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &notExpr{inner: inner}, nil
	}
	p.skipSpace()
	if p.pos < len(p.input) && p.input[p.pos] == '(' {
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.input) || p.input[p.pos] != ')' {
			return nil, fmt.Errorf("constraint: missing ')'")
		}
		p.pos++
		return inner, nil
	}
	return p.parseComparison()
}

func (p *constraintParser) parseComparison() (boolExpr, error) {
	col, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	op, err := p.parseOperator()
	if err != nil {
		return nil, err
	}
	if op == "IN" {
		vals, err := p.parseInList()
		if err != nil {
			return nil, err
		}
		return &Atom{Column: col, Op: op, Values: vals}, nil
	}
	val, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return &Atom{Column: col, Op: op, Values: []string{val}}, nil
}

func (p *constraintParser) parseIdent() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		if c == '_' || c == '.' || c == '-' || c == '/' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", fmt.Errorf("constraint: expected column name at %q", p.input[start:])
	}
	return p.input[start:p.pos], nil
}

func (p *constraintParser) parseOperator() (string, error) {
	p.skipSpace()
	rest := p.input[p.pos:]
	for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
		if strings.HasPrefix(rest, op) {
			p.pos += len(op)
			return op, nil
		}
	}
	upper := strings.ToUpper(rest)
	for _, kw := range []string{"LIKE", "IN"} {
		if strings.HasPrefix(upper, kw) && (len(rest) == len(kw) || rest[len(kw)] == ' ' || rest[len(kw)] == '(') {
			p.pos += len(kw)
			return kw, nil
		}
	}
	return "", fmt.Errorf("constraint: expected operator at %q", rest)
}

func (p *constraintParser) parseValue() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.input) {
		return "", fmt.Errorf("constraint: expected value at end of input")
	}
	switch c := p.input[p.pos]; c {
	case '?':
		p.pos++
		if p.argPos >= len(p.args) {
			return "", fmt.Errorf("constraint: not enough placeholder values (need more than %d)", len(p.args))
		}
		v := p.args[p.argPos]
		p.argPos++
		return v, nil
	case '\'', '"':
		end := strings.IndexByte(p.input[p.pos+1:], c)
		if end < 0 {
			return "", fmt.Errorf("constraint: unterminated quoted value")
		}
		v := p.input[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		return v, nil
	default:
		start := p.pos
		for p.pos < len(p.input) {
			ch := p.input[p.pos]
			if ch == ' ' || ch == ')' || ch == ',' {
				break
			}
			p.pos++
		}
		if p.pos == start {
			return "", fmt.Errorf("constraint: expected value at %q", p.input[start:])
		}
		return p.input[start:p.pos], nil
	}
}

func (p *constraintParser) parseInList() ([]string, error) {
	p.skipSpace()
	if p.pos >= len(p.input) || p.input[p.pos] != '(' {
		return nil, fmt.Errorf("constraint: IN requires a parenthesized list")
	}
	p.pos++
	var vals []string
	for {
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		p.skipSpace()
		if p.pos >= len(p.input) {
			return nil, fmt.Errorf("constraint: unterminated IN list")
		}
		switch p.input[p.pos] {
		case ',':
			p.pos++
		case ')':
			p.pos++
			return vals, nil
		default:
			return nil, fmt.Errorf("constraint: expected ',' or ')' in IN list at %q", p.input[p.pos:])
		}
	}
}

// consumeKeyword consumes kw (case-insensitive, word-bounded) when present.
func (p *constraintParser) consumeKeyword(kw string) bool {
	p.skipSpace()
	if p.pos+len(kw) > len(p.input) {
		return false
	}
	if !strings.EqualFold(p.input[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	end := p.pos + len(kw)
	if end < len(p.input) {
		c := p.input[end]
		if c != ' ' && c != '(' {
			return false
		}
	}
	p.pos = end
	return true
}

func (p *constraintParser) skipSpace() {
	for p.pos < len(p.input) && (p.input[p.pos] == ' ' || p.input[p.pos] == '\t') {
		p.pos++
	}
}
