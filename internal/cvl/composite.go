package cvl

import (
	"fmt"
	"strings"
)

// CompositeExpr is a parsed composite-rule expression (Listing 1):
//
//	mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem"
//	  && sysctl.net.ipv4.ip_forward && nginx.listen
//
// Grammar:
//
//	expr    := or
//	or      := and ('||' and)*
//	and     := unary ('&&' unary)*
//	unary   := '!'? primary
//	primary := '(' expr ')' | ref (('==' | '!=') literal)?
//	ref     := entity '.' key ('.CONFIGPATH=[' section '].VALUE')?
//
// A bare ref is truthy when the referenced per-entity rule passes (the rule
// engine "performs a logical conjunction/disjunction over the per-entity
// rule evaluations", §3.1); when no rule by that name exists, it falls back
// to configuration-key existence. A ref with the CONFIGPATH/VALUE suffix
// (or with a comparison operator) reads the configuration value directly.
type CompositeExpr struct {
	root compositeNode
	src  string
}

// String returns a canonical rendering that re-parses to an equivalent
// expression.
func (e *CompositeExpr) String() string {
	return e.root.render()
}

// Refs returns every entity reference in the expression, in order.
func (e *CompositeExpr) Refs() []CompositeRef {
	var out []CompositeRef
	e.root.collect(&out)
	return out
}

// CompositeRef is one entity reference in a composite expression.
type CompositeRef struct {
	// Entity is the manifest entity name, e.g. "mysql".
	Entity string
	// Key is the rule or configuration key, e.g. "ssl-ca" or
	// "net.ipv4.ip_forward".
	Key string
	// Section is the CONFIGPATH section, e.g. "mysqld"; empty when absent.
	Section string
	// WantValue is true when the ref reads a config value (the
	// ...CONFIGPATH=[x].VALUE form) rather than a rule result.
	WantValue bool
	// Op is "==", "!=", or "" for a bare (truthiness) reference.
	Op string
	// Literal is the quoted comparison operand.
	Literal string
}

func (r CompositeRef) render() string {
	var b strings.Builder
	b.WriteString(r.Entity)
	b.WriteByte('.')
	b.WriteString(r.Key)
	if r.WantValue {
		fmt.Fprintf(&b, ".CONFIGPATH=[%s].VALUE", r.Section)
	}
	if r.Op != "" {
		fmt.Fprintf(&b, " %s %q", r.Op, r.Literal)
	}
	return b.String()
}

// CompositeResolver supplies per-entity facts during evaluation.
type CompositeResolver interface {
	// RuleResult returns whether the named rule passed on the entity, and
	// whether such a rule result exists at all.
	RuleResult(entityName, ruleName string) (passed, found bool)
	// ConfigValue returns the configuration value for key (optionally
	// within section) on the entity, and whether it exists.
	ConfigValue(entityName, key, section string) (value string, found bool)
}

// SameRuleName reports whether a composite reference's rule name names a
// rule: dotted and slashed spellings are equivalent, so the reference
// sysctl.net.ipv4.ip_forward binds to the rule net/ipv4/ip_forward.
func SameRuleName(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if x, y := a[i], b[i]; x != y && (x != '.' && x != '/' || y != '.' && y != '/') {
			return false
		}
	}
	return true
}

// Eval evaluates the expression against the resolver.
func (e *CompositeExpr) Eval(res CompositeResolver) (bool, error) {
	return e.root.eval(res)
}

type compositeNode interface {
	eval(res CompositeResolver) (bool, error)
	render() string
	collect(out *[]CompositeRef)
}

type binaryNode struct {
	op          string // "&&" or "||"
	left, right compositeNode
}

func (n *binaryNode) eval(res CompositeResolver) (bool, error) {
	l, err := n.left.eval(res)
	if err != nil {
		return false, err
	}
	if n.op == "&&" && !l {
		return false, nil
	}
	if n.op == "||" && l {
		return true, nil
	}
	return n.right.eval(res)
}

func (n *binaryNode) render() string {
	return "(" + n.left.render() + " " + n.op + " " + n.right.render() + ")"
}

func (n *binaryNode) collect(out *[]CompositeRef) {
	n.left.collect(out)
	n.right.collect(out)
}

type notNode struct{ inner compositeNode }

func (n *notNode) eval(res CompositeResolver) (bool, error) {
	v, err := n.inner.eval(res)
	return !v, err
}

func (n *notNode) render() string              { return "!" + n.inner.render() }
func (n *notNode) collect(out *[]CompositeRef) { n.inner.collect(out) }

type refNode struct{ ref CompositeRef }

func (n *refNode) eval(res CompositeResolver) (bool, error) {
	r := n.ref
	if r.Op != "" || r.WantValue {
		value, found := res.ConfigValue(r.Entity, r.Key, r.Section)
		if r.Op == "" {
			// Bare CONFIGPATH...VALUE ref: truthy when a non-empty value exists.
			return found && value != "", nil
		}
		if !found {
			// A missing key never equals a literal; != treats missing as true.
			return r.Op == "!=", nil
		}
		if r.Op == "==" {
			return value == r.Literal, nil
		}
		return value != r.Literal, nil
	}
	if passed, found := res.RuleResult(r.Entity, r.Key); found {
		return passed, nil
	}
	// Fallback: configuration-key existence.
	_, found := res.ConfigValue(r.Entity, r.Key, "")
	return found, nil
}

func (n *refNode) render() string              { return n.ref.render() }
func (n *refNode) collect(out *[]CompositeRef) { *out = append(*out, n.ref) }

// ParseComposite parses a composite-rule expression.
func ParseComposite(src string) (*CompositeExpr, error) {
	p := &compositeParser{src: src}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("cvl: composite_rule: unexpected input at %q", p.src[p.pos:])
	}
	return &CompositeExpr{root: root, src: src}, nil
}

type compositeParser struct {
	src string
	pos int
}

func (p *compositeParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *compositeParser) errf(format string, args ...any) error {
	return fmt.Errorf("cvl: composite_rule: offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *compositeParser) parseOr() (compositeNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.consume("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: "||", left: left, right: right}
	}
	return left, nil
}

func (p *compositeParser) parseAnd() (compositeNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.consume("&&") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &binaryNode{op: "&&", left: left, right: right}
	}
	return left, nil
}

func (p *compositeParser) parseUnary() (compositeNode, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '!' && !strings.HasPrefix(p.src[p.pos:], "!=") {
		p.pos++
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &notNode{inner: inner}, nil
	}
	return p.parsePrimary()
}

func (p *compositeParser) parsePrimary() (compositeNode, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, p.errf("unexpected end of expression")
	}
	if p.src[p.pos] == '(' {
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, p.errf("missing ')'")
		}
		p.pos++
		return inner, nil
	}
	ref, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.consume("==") {
		ref.Op = "=="
	} else if p.consume("!=") {
		ref.Op = "!="
	}
	if ref.Op != "" {
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		ref.Literal = lit
	}
	return &refNode{ref: ref}, nil
}

// parseRef reads entity '.' key ('.CONFIGPATH=[' section '].VALUE')?.
func (p *compositeParser) parseRef() (CompositeRef, error) {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if isRefChar(c) {
			p.pos++
			continue
		}
		// '=' is part of the ref only in the CONFIGPATH=[...] form.
		if c == '=' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '[' {
			p.pos++
			continue
		}
		break
	}
	raw := p.src[start:p.pos]
	if raw == "" {
		return CompositeRef{}, p.errf("expected an entity reference")
	}
	dot := strings.IndexByte(raw, '.')
	if dot <= 0 || dot == len(raw)-1 {
		return CompositeRef{}, p.errf("reference %q must be entity.key", raw)
	}
	ref := CompositeRef{Entity: raw[:dot]}
	rest := raw[dot+1:]
	const marker = ".CONFIGPATH=["
	if idx := strings.Index(rest, marker); idx >= 0 {
		tail := rest[idx+len(marker):]
		end := strings.Index(tail, "].VALUE")
		if end < 0 || end+len("].VALUE") != len(tail) {
			return CompositeRef{}, p.errf("reference %q: CONFIGPATH form must end with '].VALUE'", raw)
		}
		ref.Key = rest[:idx]
		ref.Section = tail[:end]
		ref.WantValue = true
	} else {
		ref.Key = rest
	}
	if ref.Key == "" {
		return CompositeRef{}, p.errf("reference %q has an empty key", raw)
	}
	return ref, nil
}

func (p *compositeParser) parseLiteral() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return "", p.errf("expected a literal after comparison operator")
	}
	c := p.src[p.pos]
	if c == '"' || c == '\'' {
		end := strings.IndexByte(p.src[p.pos+1:], c)
		if end < 0 {
			return "", p.errf("unterminated literal")
		}
		lit := p.src[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		return lit, nil
	}
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == ')' {
			break
		}
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected a literal")
	}
	return p.src[start:p.pos], nil
}

func (p *compositeParser) consume(op string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], op) {
		p.pos += len(op)
		return true
	}
	return false
}

func isRefChar(c byte) bool {
	return c == '.' || c == '-' || c == '_' || c == '/' || c == '[' || c == ']' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
