package analysis

import (
	"sort"

	"configvalidator/internal/analysis/sem"
	"configvalidator/internal/cvl"
)

// --- pass 7: inheritance replacement checks (cross-file CVL205) ---

// checkReplacedRules re-runs the preferred/non-preferred contradiction
// check across inheritance replacements: a value the parent rule prefers
// that the child's replacement lists as non-preferred marks an override
// that silently inverts the inherited intent. The same-file CVL205 check
// (checkRuleSemantics) cannot see this because inheritance replaces
// rules wholesale.
func (a *analyzer) checkReplacedRules() {
	for _, pair := range a.replacements {
		pr, cr := pair.parent.rule, pair.child.rule
		if pr == nil || cr == nil {
			continue
		}
		if !exactish(pr.PreferredMatch) || !exactish(cr.NonPreferredMatch) {
			continue
		}
		nonPref := cvl.NewMatcher(cr.NonPreferredValue, cr.NonPreferredMatch, cr.CaseInsensitive)
		for _, v := range pr.PreferredValue {
			if rejected, _ := nonPref.Matches(v); !rejected {
				continue
			}
			d := a.diagFor(pair.child, CodeContradiction, "non_preferred_value", cr.Name,
				"value %q is preferred by the inherited rule in %s but non-preferred here; the override inverts the inherited intent", v, pair.parent.file)
			d.Related = []RelatedPos{a.relatedFor(pair.parent, "preferred_value", "inherited rule prefers "+quote(v))}
			a.diags = append(a.diags, d)
		}
	}
}

// --- pass 8: constraint-level semantic analysis (CVL4xx) ---

// checkSemantics lowers every resolved rule file into the sem constraint
// IR and runs the abstract-domain checker over it, mapping rule-anchored
// findings back to source positions.
func (a *analyzer) checkSemantics() {
	if a.opts.NoSemantic {
		return
	}
	var units []*sem.IR
	for _, path := range a.ruleFiles {
		if eff := a.effective(path); len(eff) > 0 {
			units = append(units, sem.Lower(path, eff))
		}
	}
	var entities []sem.Entity
	if len(a.entityFiles) > 0 {
		names := make([]string, 0, len(a.entityFiles))
		for name := range a.entityFiles {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			entities = append(entities, sem.Entity{Name: name, Units: a.entityFiles[name]})
		}
	}
	for _, f := range sem.Check(units, entities) {
		a.reportFinding(f)
	}
	for _, pair := range a.replacements {
		if pair.parent.rule == nil || pair.child.rule == nil {
			continue
		}
		for _, f := range sem.CheckReplacement(pair.parent.rule, pair.child.rule) {
			a.reportFinding(f)
		}
	}
}

// reportFinding converts one sem finding into a positioned diagnostic.
func (a *analyzer) reportFinding(f sem.Finding) {
	e := a.entries[f.Rule]
	if e == nil {
		return
	}
	d := a.diagFor(e, f.Code, anchorKey(f), f.Rule.Name, "%s", f.Msg)
	for _, rel := range f.Related {
		re := a.entries[rel.Rule]
		if re == nil {
			continue
		}
		d.Related = append(d.Related, a.relatedFor(re, anchorKeyFor(rel.Rule, f.Code), rel.Msg))
	}
	a.diags = append(a.diags, d)
}

// anchorKey picks the rule-mapping key a finding should point at.
func anchorKey(f sem.Finding) string {
	return anchorKeyFor(f.Rule, f.Code)
}

func anchorKeyFor(r *cvl.Rule, code string) string {
	switch code {
	case sem.CodeCompositeTautology, sem.CodeCompositeContradiction:
		return "composite_rule"
	case sem.CodeSeverityConflict:
		return "severity"
	}
	if len(r.PreferredValue) > 0 {
		return "preferred_value"
	}
	if len(r.NonPreferredValue) > 0 {
		return "non_preferred_value"
	}
	if r.QueryConstraints != "" {
		return "query_constraints"
	}
	return ""
}

// diagFor builds a diagnostic anchored at a rule entry's key (or its
// start when key is "" or absent).
func (a *analyzer) diagFor(e *ruleEntry, code, key, rule, format string, args ...any) Diagnostic {
	before := len(a.diags)
	a.report(code, e.file, e.keyPos(key), rule, format, args...)
	d := a.diags[before]
	a.diags = a.diags[:before]
	return d
}

// relatedFor builds a secondary location for a rule entry.
func (a *analyzer) relatedFor(e *ruleEntry, key, msg string) RelatedPos {
	line, col := posOr(e.keyPos(key))
	name := ""
	if e.rule != nil {
		name = e.rule.Name
	}
	return RelatedPos{File: e.file, Line: line, Col: col, Rule: name, Msg: msg}
}

func quote(v string) string { return `"` + v + `"` }
