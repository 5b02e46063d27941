package sem

import (
	"fmt"
	"sort"

	"configvalidator/internal/cvl"
	"configvalidator/internal/lens"
)

// Semantic diagnostic codes. The analysis package re-exports these in its
// catalog; they live here so the checker has no dependency on it.
const (
	// CodeUnsat: a rule's (or a slot's joint) value constraints admit no
	// value at all.
	CodeUnsat = "CVL401"
	// CodeSubsumed: a rule can never fire independently of another rule
	// on the same slot.
	CodeSubsumed = "CVL402"
	// CodeInheritConflict: a child override admits no value the replaced
	// parent rule admitted.
	CodeInheritConflict = "CVL403"
	// CodeCompositeTautology: a composite expression is always true.
	CodeCompositeTautology = "CVL404"
	// CodeCompositeContradiction: a composite expression is always false.
	CodeCompositeContradiction = "CVL405"
	// CodeSeverityConflict: overlapping rules assign different severities
	// to a shared violating value.
	CodeSeverityConflict = "CVL406"
	// CodeTypeMismatch: a value matcher can never match the key's
	// lens-declared type.
	CodeTypeMismatch = "CVL407"
)

// Finding is one semantic diagnostic, anchored to rules rather than file
// positions; the analysis layer maps rules back to source locations.
type Finding struct {
	// Code is the CVL4xx diagnostic code.
	Code string
	// Rule is the primary rule the finding is about.
	Rule *cvl.Rule
	// Msg is the human-readable description.
	Msg string
	// Related names other rules involved (the subsuming rule, the
	// replaced parent, conflicting siblings, folded composite members).
	Related []RelatedRule
}

// RelatedRule is a secondary rule referenced by a finding.
type RelatedRule struct {
	Rule *cvl.Rule
	Msg  string
}

// Entity binds a manifest entity name to the rule units (rule file
// paths) evaluated for it, in evaluation order.
type Entity struct {
	Name  string
	Units []string
}

// Check runs the semantic checker over lowered rule units. entities is
// optional; when present, composite references resolve against each
// entity's units so member-rule constants can be folded into the
// composite truth tables.
func Check(units []*IR, entities []Entity) []Finding {
	c := &checker{
		units:    units,
		unitByID: make(map[string]*IR, len(units)),
	}
	for _, u := range units {
		if _, dup := c.unitByID[u.Unit]; !dup {
			c.unitByID[u.Unit] = u
		}
	}
	c.entities = entities
	for _, u := range units {
		c.checkUnit(u)
	}
	c.checkComposites()
	return c.dedupe()
}

// CheckReplacement compares a parent rule with the child rule that
// replaced it during inheritance resolution and reports CVL403 when the
// two admit provably disjoint value sets — the override does not narrow
// the inherited constraint, it contradicts it.
func CheckReplacement(parent, child *cvl.Rule) []Finding {
	if parent == nil || child == nil {
		return nil
	}
	pi, ci := lowerRule(parent), lowerRule(child)
	var out []Finding
	// Replacing a parent's exact preferred literals with different
	// literals is the normal override idiom — that is what override is
	// for. A contradiction is only meaningful when the parent expressed a
	// broader envelope: a regex or numeric matcher, or a rule defined
	// purely by its non-preferred values (the child then prefers exactly
	// what the parent forbade).
	deliberate := len(parent.PreferredValue) > 0 &&
		(parent.PreferredMatch.IsZero() || parent.PreferredMatch.Kind == cvl.MatchExact)
	if !deliberate && pi.Pass != nil && ci.Pass != nil &&
		!pi.Pass.ProvablyEmpty() && !ci.Pass.ProvablyEmpty() &&
		ci.Pass.ProvablyDisjoint(pi.Pass) {
		out = append(out, Finding{
			Code: CodeInheritConflict,
			Rule: child,
			Msg: fmt.Sprintf("override of rule %q accepts %s, disjoint from the inherited rule's accepted values %s",
				child.Name, ci.Pass.Describe(), pi.Pass.Describe()),
			Related: []RelatedRule{{Rule: parent, Msg: "inherited rule accepts " + pi.Pass.Describe()}},
		})
	}
	if pi.RowMode != RowNone && pi.RowMode == ci.RowMode && pi.RowCol == ci.RowCol &&
		pi.RowMode == RowRequire && pi.RowRegion != nil && ci.RowRegion != nil &&
		!pi.RowRegion.ProvablyEmpty() && !ci.RowRegion.ProvablyEmpty() &&
		ci.RowRegion.ProvablyDisjoint(pi.RowRegion) {
		out = append(out, Finding{
			Code: CodeInheritConflict,
			Rule: child,
			Msg: fmt.Sprintf("override of rule %q requires rows with %s in %s, disjoint from the inherited rule's required %s",
				child.Name, ci.RowCol, ci.RowRegion.Describe(), pi.RowRegion.Describe()),
			Related: []RelatedRule{{Rule: parent, Msg: "inherited rule requires " + pi.RowRegion.Describe()}},
		})
	}
	return out
}

type checker struct {
	units    []*IR
	unitByID map[string]*IR
	entities []Entity
	findings []Finding
}

func (c *checker) report(f Finding) { c.findings = append(c.findings, f) }

// checkUnit runs the per-rule and per-slot checks for one unit.
func (c *checker) checkUnit(u *IR) {
	slots := make(map[string][]*RuleIR)
	for _, ri := range u.Rules {
		c.checkRule(ri)
		if id := ri.slotID; id != "" {
			slots[id] = append(slots[id], ri)
		}
		if id := ri.valueSlot; id != "" {
			slots[id] = append(slots[id], ri)
		}
	}
	ids := make([]string, 0, len(slots))
	for id := range slots {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		c.checkSlot(slots[id])
	}
	c.checkRowRegions(u)
}

// checkRule emits the single-rule findings: unsatisfiable matchers
// (CVL401) and matchers incompatible with the key's declared type
// (CVL407).
func (c *checker) checkRule(ri *RuleIR) {
	r := ri.Rule
	if ri.Pass != nil && ri.Pass.ProvablyEmpty() {
		msg := fmt.Sprintf("rule %q can never pass: no value satisfies preferred %s while avoiding non-preferred %s",
			r.Name, describeOr(ri.Pref, "(none)"), describeOr(ri.NonPref, "(none)"))
		if ri.NonPref == nil {
			msg = fmt.Sprintf("rule %q can never pass: the preferred matcher %s matches no value", r.Name, describeOr(ri.Pref, "(none)"))
		}
		c.report(Finding{Code: CodeUnsat, Rule: r, Msg: msg})
	}
	if r.Type == cvl.TypePath && ri.CanNeverPass {
		c.report(Finding{Code: CodeUnsat, Rule: r, Msg: fmt.Sprintf(
			"rule %q can never pass: permission %04o has bits outside max_permission %04o",
			r.Name, r.Permission, r.MaxPermission)})
	}
	if ri.RowMode == RowRequire && ri.RowRegion != nil && ri.RowRegion.ProvablyEmpty() {
		c.report(Finding{Code: CodeUnsat, Rule: r, Msg: fmt.Sprintf(
			"rule %q can never pass: expect_rows %q but the constraints on column %q select %s",
			r.Name, r.ExpectRows, ri.RowCol, ri.RowRegion.Describe())})
	}
	c.checkDeclaredType(ri)
}

// checkDeclaredType proves CVL407: a matcher list disjoint from every
// legal value of the key under its lens.
func (c *checker) checkDeclaredType(ri *RuleIR) {
	if ri.Lens == "" || ri.Key == "" {
		return
	}
	vt, ok := lens.DeclaredType(ri.Lens, ri.Key)
	if !ok {
		return
	}
	legal := typeSet(vt)
	r := ri.Rule
	if ri.Pref != nil && !ri.Pref.ProvablyEmpty() && ri.Pref.ProvablyDisjoint(legal) {
		c.report(Finding{Code: CodeTypeMismatch, Rule: r, Msg: fmt.Sprintf(
			"rule %q prefers %s, but key %q under the %q lens only takes %s values (%s)",
			r.Name, ri.Pref.Describe(), ri.Key, ri.Lens, vt.Kind, legal.Describe())})
	}
	if ri.NonPref != nil && !ri.NonPref.ProvablyEmpty() && ri.NonPref.ProvablyDisjoint(legal) {
		c.report(Finding{Code: CodeTypeMismatch, Rule: r, Msg: fmt.Sprintf(
			"rule %q rejects %s, but key %q under the %q lens only takes %s values (%s) — the check can never fire",
			r.Name, ri.NonPref.Describe(), ri.Key, ri.Lens, vt.Kind, legal.Describe())})
	}
}

// checkSlot runs the joint checks over rules constraining the same value
// slot: joint unsatisfiability (CVL401), subsumption (CVL402), and
// severity conflicts (CVL406).
func (c *checker) checkSlot(rules []*RuleIR) {
	if len(rules) < 2 {
		return
	}
	// Joint conjunction: all rules with value checks must be satisfiable
	// together, since every one of them evaluates the same value.
	conj, all := Any(), true
	for _, ri := range rules {
		if ri.Pass == nil {
			all = false
			break
		}
		conj, _ = conj.Intersect(ri.Pass)
	}
	if all && conj.ProvablyEmpty() {
		first := rules[0]
		var related []RelatedRule
		for _, ri := range rules[1:] {
			related = append(related, RelatedRule{Rule: ri.Rule, Msg: "accepts " + ri.Pass.Describe()})
		}
		anyEmptyAlone := false
		for _, ri := range rules {
			if ri.Pass.ProvablyEmpty() {
				anyEmptyAlone = true // already reported per-rule
			}
		}
		if !anyEmptyAlone {
			c.report(Finding{Code: CodeUnsat, Rule: first.Rule, Msg: fmt.Sprintf(
				"rules on %s are jointly unsatisfiable: no value passes all of them",
				slotLabel(first)), Related: related})
		}
	}
	for i, a := range rules {
		for j, b := range rules {
			if i == j {
				continue
			}
			c.checkSubsumed(a, b, i < j)
			if i < j {
				c.checkSeverity(a, b)
			}
		}
	}
}

// checkSubsumed reports CVL402 when b's violations are a subset of a's:
// whenever b fires, a fires too, so b never fires independently.
// reportMutual keeps mutually-subsuming (identical) pairs from being
// reported twice.
func (c *checker) checkSubsumed(a, b *RuleIR, reportMutual bool) {
	if a.Viol == nil || b.Viol == nil || !a.ViolExact {
		return
	}
	if b.Viol.ProvablyEmpty() || !b.Viol.SubsetOf(a.Viol) {
		return
	}
	// Presence semantics: if b fires on an absent key while a passes,
	// b still fires independently.
	if !b.AbsentPass && a.AbsentPass {
		return
	}
	if b.ViolExact && a.Viol.SubsetOf(b.Viol) && !reportMutual {
		return // mutual: the i<j orientation already reported it
	}
	c.report(Finding{
		Code: CodeSubsumed,
		Rule: b.Rule,
		Msg: fmt.Sprintf("rule %q is subsumed by rule %q: every value it rejects (%s) is already rejected there, so it never fires independently",
			b.Rule.Name, a.Rule.Name, b.Viol.Describe()),
		Related: []RelatedRule{{Rule: a.Rule, Msg: "rejects " + a.Viol.Describe()}},
	})
}

// checkSeverity reports CVL406 when two same-slot rules share a concrete
// violating value but label it with different severities. The witness is
// confirmed by running both rules' value checks on it.
func (c *checker) checkSeverity(a, b *RuleIR) {
	if a.Rule.Severity == "" || b.Rule.Severity == "" || a.Rule.Severity == b.Rule.Severity {
		return
	}
	if a.Viol == nil || b.Viol == nil {
		return
	}
	w, ok := a.Viol.Witness(b.Viol)
	if !ok {
		return
	}
	whyA, okA := a.judge(w)
	whyB, okB := b.judge(w)
	if !okA || !okB || whyA == cvl.ValueOK || whyB == cvl.ValueOK {
		return
	}
	c.report(Finding{
		Code: CodeSeverityConflict,
		Rule: b.Rule,
		Msg: fmt.Sprintf("rules %q (severity %s) and %q (severity %s) both reject value %q but disagree on severity",
			a.Rule.Name, a.Rule.Severity, b.Rule.Name, b.Rule.Severity, w),
		Related: []RelatedRule{{Rule: a.Rule, Msg: "severity " + a.Rule.Severity}},
	})
}

// checkRowRegions proves CVL401 across schema rules of one unit whose
// row constraints address the same column: a rule requiring rows inside a
// region every row of which another rule forbids can never pass.
func (c *checker) checkRowRegions(u *IR) {
	byCol := make(map[string][]*RuleIR)
	for _, ri := range u.Rules {
		if ri.RowMode != RowNone && ri.RowRegion != nil {
			byCol[ri.RowCol] = append(byCol[ri.RowCol], ri)
		}
	}
	cols := make([]string, 0, len(byCol))
	for col := range byCol {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		group := byCol[col]
		for _, need := range group {
			if need.RowMode != RowRequire {
				continue
			}
			for _, ban := range group {
				if ban.RowMode != RowForbid || ban == need {
					continue
				}
				// Every row the require-rule accepts is forbidden: need
				// the forbidden region to be exact (an over-approximated
				// ban could cover rows it does not actually forbid).
				if !ban.RowExact || !need.RowRegion.SubsetOf(ban.RowRegion) {
					continue
				}
				c.report(Finding{
					Code: CodeUnsat,
					Rule: need.Rule,
					Msg: fmt.Sprintf("rule %q requires rows with %s in %s, but rule %q forbids every such row",
						need.Rule.Name, col, need.RowRegion.Describe(), ban.Rule.Name),
					Related: []RelatedRule{{Rule: ban.Rule, Msg: "forbids rows with " + col + " in " + ban.RowRegion.Describe()}},
				})
			}
		}
	}
}

func slotLabel(ri *RuleIR) string {
	switch ri.Rule.Type {
	case cvl.TypeSchema:
		return fmt.Sprintf("schema query %q", ri.Rule.QueryConstraints)
	case cvl.TypeScript:
		return fmt.Sprintf("feature %q", ri.Key)
	default:
		return fmt.Sprintf("key %q", ri.Key)
	}
}

// --- composite truth tables (CVL404 / CVL405) ---

// maxAssignments bounds truth-table enumeration per composite.
const maxAssignments = 4096

// missingValue marks an absent configuration key in a value variable's
// domain.
const missingValue = "\x00missing"

type varKey struct {
	isValue bool
	entity  string
	key     string
	section string
}

// compositeFact is a proven evaluation constant for a rule referenced by
// a composite.
type compositeFact struct {
	value  bool
	member *cvl.Rule
}

// checkComposites enumerates each composite's truth table over its free
// variables, folding proven member-rule constants, and iterates to a
// fixpoint so composites proven constant feed into composites that
// reference them.
func (c *checker) checkComposites() {
	type compo struct {
		ri     *RuleIR
		entity string // entity whose units define this composite; "" unknown
	}
	var composites []compo
	definedIn := make(map[*cvl.Rule]string)
	if len(c.entities) > 0 {
		for _, e := range c.entities {
			for _, unit := range e.Units {
				u := c.unitByID[unit]
				if u == nil {
					continue
				}
				for _, ri := range u.Rules {
					if ri.Rule.Type == cvl.TypeComposite && ri.Rule.CompositeExpr != nil {
						if _, seen := definedIn[ri.Rule]; !seen {
							definedIn[ri.Rule] = e.Name
						}
					}
				}
			}
		}
	}
	seen := make(map[*cvl.Rule]bool)
	for _, u := range c.units {
		for _, ri := range u.Rules {
			if ri.Rule.Type == cvl.TypeComposite && ri.Rule.CompositeExpr != nil && !seen[ri.Rule] {
				seen[ri.Rule] = true
				composites = append(composites, compo{ri: ri, entity: definedIn[ri.Rule]})
			}
		}
	}
	if len(composites) == 0 {
		return
	}
	// proven maps (entity, rule name) to a proven composite constant.
	proven := make(map[varKey]compositeFact)
	reported := make(map[*cvl.Rule]bool)
	for round := 0; round < len(composites)+1; round++ {
		changed := false
		for _, co := range composites {
			if reported[co.ri.Rule] {
				continue
			}
			verdict, consts, ok := c.tabulate(co.ri.Rule, proven)
			if !ok || verdict == nil {
				continue
			}
			reported[co.ri.Rule] = true
			changed = true
			if co.entity != "" {
				proven[varKey{entity: co.entity, key: co.ri.Rule.Name}] = compositeFact{value: *verdict, member: co.ri.Rule}
			}
			var related []RelatedRule
			for _, cf := range consts {
				if cf.member != nil {
					word := "never passes"
					if cf.value {
						word = "always passes"
					}
					related = append(related, RelatedRule{Rule: cf.member, Msg: "member rule " + word})
				}
			}
			if *verdict {
				c.report(Finding{Code: CodeCompositeTautology, Rule: co.ri.Rule, Msg: fmt.Sprintf(
					"composite rule %q is always true given its member rules' domains: %s",
					co.ri.Rule.Name, co.ri.Rule.CompositeExpr.String()), Related: related})
			} else {
				c.report(Finding{Code: CodeCompositeContradiction, Rule: co.ri.Rule, Msg: fmt.Sprintf(
					"composite rule %q is always false given its member rules' domains: %s",
					co.ri.Rule.Name, co.ri.Rule.CompositeExpr.String()), Related: related})
			}
		}
		if !changed {
			break
		}
	}
}

// tabulate enumerates the truth table of one composite. It returns the
// constant verdict (nil when the expression can go both ways), the
// member constants that were folded, and ok=false when the table is too
// large to enumerate.
func (c *checker) tabulate(r *cvl.Rule, proven map[varKey]compositeFact) (*bool, []compositeFact, bool) {
	refs := r.CompositeExpr.Refs()
	boolConst := make(map[varKey]compositeFact)
	var boolVars []varKey
	valueDomains := make(map[varKey][]string)
	boolSeen := make(map[varKey]bool)
	for _, ref := range refs {
		if ref.WantValue || ref.Op != "" {
			vk := varKey{isValue: true, entity: ref.Entity, key: ref.Key, section: ref.Section}
			if ref.Op != "" && !containsStr(valueDomains[vk], ref.Literal) {
				valueDomains[vk] = append(valueDomains[vk], ref.Literal)
			} else if _, ok := valueDomains[vk]; !ok {
				valueDomains[vk] = nil
			}
			continue
		}
		vk := varKey{entity: ref.Entity, key: ref.Key}
		if boolSeen[vk] {
			continue
		}
		boolSeen[vk] = true
		if cf, ok := c.resolveRuleConst(ref.Entity, ref.Key, proven); ok {
			boolConst[vk] = cf
		} else {
			boolVars = append(boolVars, vk)
		}
	}
	// Complete each value domain with "", a distinct other value, and the
	// missing marker.
	valueVars := make([]varKey, 0, len(valueDomains))
	for vk := range valueDomains {
		valueVars = append(valueVars, vk)
	}
	sort.Slice(valueVars, func(i, j int) bool { return varLess(valueVars[i], valueVars[j]) })
	sort.Slice(boolVars, func(i, j int) bool { return varLess(boolVars[i], boolVars[j]) })
	total := 1
	for _, vk := range valueVars {
		dom := valueDomains[vk]
		if !containsStr(dom, "") {
			dom = append(dom, "")
		}
		dom = append(dom, freshOther(dom), missingValue)
		valueDomains[vk] = dom
		total *= len(dom)
		if total > maxAssignments {
			return nil, nil, false
		}
	}
	for range boolVars {
		total *= 2
		if total > maxAssignments {
			return nil, nil, false
		}
	}

	res := &tableResolver{boolConst: boolConst, bools: make(map[varKey]bool), values: make(map[varKey]string)}
	anyTrue, anyFalse := false, false
	for idx := 0; idx < total; idx++ {
		n := idx
		for _, vk := range boolVars {
			res.bools[vk] = n%2 == 1
			n /= 2
		}
		for _, vk := range valueVars {
			dom := valueDomains[vk]
			res.values[vk] = dom[n%len(dom)]
			n /= len(dom)
		}
		v, err := r.CompositeExpr.Eval(res)
		if err != nil {
			return nil, nil, false
		}
		if v {
			anyTrue = true
		} else {
			anyFalse = true
		}
		if anyTrue && anyFalse {
			return nil, nil, true
		}
	}
	var consts []compositeFact
	keys := make([]varKey, 0, len(boolConst))
	for vk := range boolConst {
		keys = append(keys, vk)
	}
	sort.Slice(keys, func(i, j int) bool { return varLess(keys[i], keys[j]) })
	for _, vk := range keys {
		consts = append(consts, boolConst[vk])
	}
	verdict := anyTrue
	return &verdict, consts, true
}

// resolveRuleConst resolves a bare composite reference to a proven
// constant: a member rule that can never pass or never fail, or a
// composite already proven constant.
func (c *checker) resolveRuleConst(entity, key string, proven map[varKey]compositeFact) (compositeFact, bool) {
	if cf, ok := proven[varKey{entity: entity, key: key}]; ok {
		return cf, true
	}
	for _, e := range c.entities {
		if e.Name != entity {
			continue
		}
		for _, unit := range e.Units {
			u := c.unitByID[unit]
			if u == nil {
				continue
			}
			ri, ok := u.ByName(key)
			if !ok || ri.Rule.Type == cvl.TypeComposite {
				continue
			}
			if ri.CanNeverPass {
				return compositeFact{value: false, member: ri.Rule}, true
			}
			if ri.CanNeverFail {
				return compositeFact{value: true, member: ri.Rule}, true
			}
			return compositeFact{}, false // rule exists, outcome open
		}
	}
	return compositeFact{}, false
}

// tableResolver answers composite references from one enumerated
// assignment.
type tableResolver struct {
	boolConst map[varKey]compositeFact
	bools     map[varKey]bool
	values    map[varKey]string
}

func (t *tableResolver) RuleResult(entity, rule string) (bool, bool) {
	vk := varKey{entity: entity, key: rule}
	if cf, ok := t.boolConst[vk]; ok {
		return cf.value, true
	}
	if v, ok := t.bools[vk]; ok {
		return v, true
	}
	return false, false
}

func (t *tableResolver) ConfigValue(entity, key, section string) (string, bool) {
	vk := varKey{isValue: true, entity: entity, key: key, section: section}
	v, ok := t.values[vk]
	if !ok {
		// A bare reference fell back to key existence but no value
		// variable exists for the key: model existence as a dedicated
		// boolean drawn from the bool table.
		bk := varKey{entity: entity, key: key}
		if b, ok := t.bools[bk]; ok && b {
			return "present", true
		}
		if cf, ok := t.boolConst[bk]; ok && cf.value {
			return "present", true
		}
		return "", false
	}
	if v == missingValue {
		return "", false
	}
	return v, true
}

func containsStr(list []string, v string) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// freshOther returns a value distinct from every domain member, standing
// for "any other present value".
func freshOther(dom []string) string {
	cand := "other"
	for containsStr(dom, cand) {
		cand += "'"
	}
	return cand
}

func varLess(a, b varKey) bool {
	if a.isValue != b.isValue {
		return !a.isValue
	}
	if a.entity != b.entity {
		return a.entity < b.entity
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.section < b.section
}

// dedupe removes findings repeated across units (shared rule pointers
// from inheritance) and orders the result deterministically.
func (c *checker) dedupe() []Finding {
	type fkey struct {
		code string
		rule *cvl.Rule
		msg  string
	}
	seen := make(map[fkey]bool)
	out := make([]Finding, 0, len(c.findings))
	for _, f := range c.findings {
		k := fkey{f.Code, f.Rule, f.Msg}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Rule.Source != b.Rule.Source {
			return a.Rule.Source < b.Rule.Source
		}
		if a.Rule.Line != b.Rule.Line {
			return a.Rule.Line < b.Rule.Line
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	return out
}
