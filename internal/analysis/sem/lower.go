package sem

import (
	"fmt"
	"strconv"
	"strings"

	"configvalidator/internal/cvl"
	"configvalidator/internal/lens"
	"configvalidator/internal/schema"
)

// defaultLenses resolves a rule's file_context entries to lenses, the
// same way the engine picks a lens for a discovered config file.
var defaultLenses = lens.Default()

// RowMode classifies a schema rule's row-count expectation.
type RowMode int

// Row modes.
const (
	// RowNone means the rule places no analyzable row-count constraint.
	RowNone RowMode = iota
	// RowForbid means no row may satisfy the constraints (expect_rows 0).
	RowForbid
	// RowRequire means at least one row must satisfy the constraints.
	RowRequire
)

// RuleIR is one rule lowered into the constraint IR: its value matchers
// as abstract sets, presence behavior, and derived pass/fail facts.
type RuleIR struct {
	// Rule is the source rule.
	Rule *cvl.Rule
	// Unit names the resolved rule set the rule was lowered in.
	Unit string
	// Lens is the lens its file_context resolves to; "" when unknown.
	Lens string
	// Key is the constrained configuration key (tree: the config key;
	// script: the feature); "" when the rule has no key slot.
	Key string

	// Pref and NonPref approximate the preferred / non-preferred
	// matchers' languages; nil when the list is absent or the rule
	// splits its values (value_separator), whose matchers judge elements.
	Pref, NonPref *Set
	// PrefExact / NonPrefExact report whether the approximations are
	// exact languages rather than over-approximations.
	PrefExact, NonPrefExact bool

	// Pass over-approximates the values on which the rule passes;
	// Viol over-approximates the values on which it fails. Exact flags
	// as above. Both are nil when the rule matches no values at all.
	Pass, Viol           *Set
	PassExact, ViolExact bool

	// AbsentPass mirrors the rule's behavior when the key is missing.
	AbsentPass bool

	// Row constraints for schema rules whose conjunctive constraints
	// all address one column: RowCol is the column, RowRegion the
	// region of column values the constraints select.
	RowMode   RowMode
	RowCol    string
	RowRegion *Set
	RowExact  bool

	// CanNeverPass / CanNeverFail are proven evaluation constants:
	// the rule fails (or passes) on every possible configuration.
	CanNeverPass bool
	CanNeverFail bool

	// check is the rule's value check as the engine compiles it; every
	// opaque set above tests membership with it.
	check cvl.ValueCheck

	// slotID groups rules that constrain the same value slot.
	slotID string
	// valueSlot groups schema rules whose value matchers apply to the
	// same projected rows and columns.
	valueSlot string
}

// IR is the lowered form of one resolved rule set (post-inheritance,
// post-override): the input of the semantic checker.
type IR struct {
	// Unit names the rule set, typically the rule file path.
	Unit string
	// Rules holds the lowered rules in input order.
	Rules []*RuleIR
}

// ByName returns the first lowered rule a composite reference's rule name
// names, under the engine's equivalence (cvl.SameRuleName).
func (ir *IR) ByName(name string) (*RuleIR, bool) {
	for _, r := range ir.Rules {
		if cvl.SameRuleName(r.Rule.Name, name) {
			return r, true
		}
	}
	return nil, false
}

// Lower lowers a resolved rule set into the constraint IR. Rules must be
// post-inheritance: every entry is an effective rule, with overridden
// parents already replaced.
func Lower(unit string, rules []*cvl.Rule) *IR {
	ir := &IR{Unit: unit}
	for _, r := range rules {
		if r == nil || r.Disabled {
			continue
		}
		ri := lowerRule(r)
		ri.Unit = unit
		ir.Rules = append(ir.Rules, ri)
	}
	return ir
}

func lowerRule(r *cvl.Rule) *RuleIR {
	ri := &RuleIR{Rule: r, AbsentPass: r.AbsentPass}
	switch r.Type {
	case cvl.TypeTree:
		ri.Key = r.Name
		ri.Lens = lensNameFor(r.FileContext)
		// A tree rule judges the nodes its config paths name in the files
		// its file_context selects: rules share a slot only on all three.
		paths := r.ConfigPath
		if len(paths) == 0 {
			paths = []string{""}
		}
		ri.slotID = fmt.Sprintf("tree|%q|%q|%s", r.FileContext, paths, r.Name)
		lowerValueMatchers(ri)
	case cvl.TypeScript:
		ri.Key = r.ScriptFeature
		ri.slotID = "script|" + r.ScriptFeature
		lowerValueMatchers(ri)
	case cvl.TypeSchema:
		lowerSchema(ri)
	case cvl.TypePath:
		lowerPath(ri)
	case cvl.TypeComposite:
		// Composite semantics live in the checker's truth-table pass.
	}
	return ri
}

// lensNameFor resolves the first file_context entry that maps to a
// registered lens.
func lensNameFor(contexts []string) string {
	for _, fc := range contexts {
		if l, ok := defaultLenses.ForFile(fc); ok {
			return l.Name()
		}
	}
	return ""
}

// lowerValueMatchers fills Pref/NonPref/Pass/Viol from the rule's value
// lists, as cvl.ValueCheck runs them: a candidate fails when it matches
// the non-preferred values, then must match the preferred values when
// that list is non-empty. A rule with a value_separator judges each
// element of a value, so its sets are opaque: membership runs the check.
func lowerValueMatchers(ri *RuleIR) {
	r := ri.Rule
	if len(r.PreferredValue) == 0 && len(r.NonPreferredValue) == 0 {
		return
	}
	ri.check = cvl.NewValueCheck(r)
	if ri.check.Separated() {
		ri.Pass = Pred(fmt.Sprintf("values whose %q-separated elements all pass", r.ValueSeparator),
			func(v string) bool { why, ok := ri.judge(v); return ok && why == cvl.ValueOK })
		ri.Viol = Pred(fmt.Sprintf("values with a %q-separated element that fails", r.ValueSeparator),
			func(v string) bool { why, ok := ri.judge(v); return ok && why != cvl.ValueOK })
		return
	}
	if len(r.PreferredValue) > 0 {
		ri.Pref, ri.PrefExact = matchDomain(&ri.check.Preferred, r.PreferredValue, r.PreferredMatch, r.CaseInsensitive)
	}
	if len(r.NonPreferredValue) > 0 {
		ri.NonPref, ri.NonPrefExact = matchDomain(&ri.check.NonPreferred, r.NonPreferredValue, r.NonPreferredMatch, r.CaseInsensitive)
	}
	pass, passExact := Any(), true
	if ri.NonPref != nil {
		comp, compExact := ri.NonPref.Complement()
		pass, passExact = comp, compExact && ri.NonPrefExact
	}
	if ri.Pref != nil {
		inter, interExact := pass.Intersect(ri.Pref)
		pass, passExact = inter, passExact && ri.PrefExact && interExact
	}
	ri.Pass, ri.PassExact = pass, passExact

	switch {
	case ri.Pref != nil && ri.NonPref == nil:
		ri.Viol, ri.ViolExact = ri.Pref.Complement()
		ri.ViolExact = ri.ViolExact && ri.PrefExact
	case ri.Pref == nil && ri.NonPref != nil:
		ri.Viol, ri.ViolExact = ri.NonPref, ri.NonPrefExact
	default:
		comp, compExact := ri.Pref.Complement()
		viol, unionExact := ri.NonPref.Union(comp)
		ri.Viol, ri.ViolExact = viol, compExact && unionExact && ri.PrefExact && ri.NonPrefExact
	}

	ri.CanNeverPass = ri.Pass.ProvablyEmpty() && !ri.AbsentPass
	ri.CanNeverFail = ri.Viol.ProvablyEmpty() && ri.AbsentPass
}

// lowerSchema handles schema rules: the row-count constraint decomposes
// into a per-column region when every conjunctive atom addresses the same
// column, and value matchers group by their projection (constraints,
// arguments, columns).
func lowerSchema(ri *RuleIR) {
	r := ri.Rule
	if len(r.PreferredValue) > 0 || len(r.NonPreferredValue) > 0 {
		ri.valueSlot = "schema|" + r.QueryConstraints + "\x00" +
			strings.Join(r.QueryConstraintsValue, "\x01") + "\x00" +
			strings.Join(r.QueryColumns, "\x01") + "\x00" + r.ExpectRows
		lowerValueMatchers(ri)
		// A schema rule's absent case is "no matching rows"; the engine
		// has no absent_pass for schema, so neither constant applies.
		ri.CanNeverPass = ri.Pass != nil && ri.Pass.ProvablyEmpty()
		ri.CanNeverFail = false
	}
	ri.RowMode = rowModeOf(r.ExpectRows)
	if ri.RowMode == RowNone || r.QueryConstraints == "" {
		return
	}
	atoms, conjunctive, err := schema.ConjunctiveAtoms(r.QueryConstraints, r.QueryConstraintsValue)
	if err != nil || !conjunctive || len(atoms) == 0 {
		ri.RowMode = RowNone
		return
	}
	col := atoms[0].Column
	region, exact := Any(), true
	for _, a := range atoms {
		if a.Column != col {
			ri.RowMode = RowNone // multi-column constraints don't decompose
			return
		}
		ar, arExact := atomRegion(a)
		inter, interExact := region.Intersect(ar)
		region, exact = inter, exact && arExact && interExact
	}
	ri.RowCol = col
	ri.RowRegion = region
	ri.RowExact = exact
	if ri.RowMode == RowRequire && region.ProvablyEmpty() {
		ri.CanNeverPass = true
	}
}

// rowModeOf classifies expect_rows: "0" (or "<=0") forbids matching rows;
// "N" / ">=N" with N >= 1 requires at least one.
func rowModeOf(expect string) RowMode {
	expect = strings.TrimSpace(expect)
	switch {
	case expect == "":
		return RowNone
	case expect == "0" || expect == "<=0":
		return RowForbid
	case strings.HasPrefix(expect, ">="):
		if n, err := strconv.Atoi(strings.TrimSpace(expect[2:])); err == nil && n >= 1 {
			return RowRequire
		}
	case strings.HasPrefix(expect, "<="):
		return RowNone
	default:
		if n, err := strconv.Atoi(expect); err == nil && n >= 1 {
			return RowRequire
		}
	}
	return RowNone
}

// atomRegion converts one column comparison into the set of column
// values satisfying it, as schema.Compare orders cells: against a numeric
// operand, a number compares by value and any other cell in string order,
// so the region has a numeric and a string-order side. A comparison the
// domains cannot express becomes an opaque set that tests cells with the
// atom itself.
func atomRegion(a schema.Atom) (*Set, bool) {
	if a.Op == "IN" {
		parts, exact := Empty(), true
		for _, v := range a.Values {
			r, rExact := atomRegion(schema.Atom{Column: a.Column, Op: "=", Values: []string{v}})
			u, uExact := parts.Union(r)
			parts, exact = u, exact && rExact && uExact
		}
		return parts, exact
	}
	v := a.Values[0]
	f, numeric := schema.Number(v)
	switch {
	case a.Op == "LIKE":
		// A pattern has no set form.
	case !numeric:
		// Every cell compares with v in string order.
		switch a.Op {
		case "=":
			return Finite(v), true
		case "!=":
			return Except(v), true
		}
	// Numbers compare with f; a non-number never equals the numeric v, so
	// the string-order side holds the non-numbers the operator admits.
	case a.Op == "=":
		return Numeric(interval[float64]{lo: f, hi: f}), true
	case a.Op == "!=":
		return numericRegion([]interval[float64]{{loUnb: true, hi: f, hiOpen: true}, {lo: f, loOpen: true, hiUnb: true}},
			[]interval[string]{{loUnb: true, hiUnb: true}}), true
	case a.Op == "<" || a.Op == "<=":
		open := a.Op == "<"
		return numericRegion([]interval[float64]{{loUnb: true, hi: f, hiOpen: open}},
			[]interval[string]{{loUnb: true, hi: v, hiOpen: open}}), true
	case a.Op == ">" || a.Op == ">=":
		open := a.Op == ">"
		return numericRegion([]interval[float64]{{lo: f, loOpen: open, hiUnb: true}},
			[]interval[string]{{lo: v, loOpen: open, hiUnb: true}}), true
	}
	return Pred(a.Op+" "+strconv.Quote(v), a.Holds), false // tested cell by cell
}

// lowerPath derives pass facts for path rules: an exact permission that
// exceeds the rule's own max_permission mask is unsatisfiable.
func lowerPath(ri *RuleIR) {
	r := ri.Rule
	if r.Permission >= 0 && r.MaxPermission >= 0 && r.Permission&^r.MaxPermission != 0 {
		ri.CanNeverPass = true
	}
}

// matchDomain approximates the set of candidate values the matcher m,
// compiled from values under spec, accepts.
func matchDomain(m *cvl.Matcher, values []string, spec cvl.MatchSpec, caseInsensitive bool) (*Set, bool) {
	if spec.IsZero() {
		spec = cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAny}
	}
	var acc *Set
	accExact := true
	for i, v := range values {
		s, exact := oneValueSet(m, i, v, spec.Kind, caseInsensitive)
		if acc == nil {
			acc, accExact = s, exact
			continue
		}
		if spec.Quant == cvl.QuantAll {
			inter, interExact := acc.Intersect(s)
			acc, accExact = inter, accExact && exact && interExact
		} else {
			u, uExact := acc.Union(s)
			acc, accExact = u, accExact && exact && uExact
		}
	}
	if acc == nil {
		return Empty(), true // the engine matches nothing against an empty list
	}
	return acc, accExact
}

// oneValueSet approximates the values the i-th operand v of m accepts on
// its own. Only an exact, case-sensitive literal and a regex with a
// finite or digit-pattern language have a set form; every other operand
// is an opaque set tested with m itself.
func oneValueSet(m *cvl.Matcher, i int, v string, kind cvl.MatchKind, caseInsensitive bool) (*Set, bool) {
	var desc string
	switch kind {
	case cvl.MatchExact:
		if !caseInsensitive {
			return Finite(v), true
		}
		desc = "equal (case-insensitive) to " + strconv.Quote(v)
	case cvl.MatchSubstr:
		desc = "containing " + strconv.Quote(v)
	case cvl.MatchRegex:
		if s, exact := regexSet(v, caseInsensitive); s != nil {
			return s, exact
		}
		desc = "matching /" + v + "/"
	default:
		return Any(), false
	}
	return Pred(desc, func(x string) bool {
		ok, err := m.MatchesOne(i, x)
		return ok && err == nil
	}), false
}

// typeSet renders a lens-declared value type as an abstract set
// over-approximating the key's legal values.
func typeSet(vt lens.ValueType) *Set {
	switch vt.Kind {
	case lens.KindEnum:
		return Finite(vt.Enum...)
	case lens.KindPort:
		return numRange(0, 65535)
	case lens.KindUint:
		return atLeast(0, false)
	case lens.KindInt:
		return Numeric(interval[float64]{loUnb: true, hiUnb: true})
	default:
		return Any()
	}
}

// judge runs the rule's value check on one value as the engine does; ok
// is false when the check errs (a bad regex), which makes the rule
// neither pass nor fail.
func (ri *RuleIR) judge(value string) (why cvl.Mismatch, ok bool) {
	why, _, err := ri.check.Check(value)
	return why, err == nil
}

// describeOr renders a set description with a fallback for nil sets.
func describeOr(s *Set, fallback string) string {
	if s == nil {
		return fallback
	}
	return s.Describe()
}
