package engine

import (
	"strings"

	"configvalidator/internal/configtree"
	"configvalidator/internal/cvl"
)

// compiledRule is a resolved CVL rule lowered once into the form
// evaluation reads: tree queries parsed, match operands prepared, and the
// report message of each common outcome built. A CachedSource compiles a
// rule file when it first resolves it and keeps the compiled rules as
// long as the source lives; ValidateRules compiles its list per call.
// Compiled rules are shared by concurrent evaluations and never change
// after compile, apart from their lazily compiled regexes.
type compiledRule struct {
	rule *cvl.Rule

	nonPreferred, preferred matchSet

	// Tree rules.
	queries  []configtree.Query // config_path entries joined with the rule name
	required []requiredKey      // require_other_configs

	// Messages: the rule's description for each outcome or, when that is
	// empty, the default text. msgAbsent is the key-not-present message of
	// tree rules and the path-not-found message of path rules.
	msgPass, msgFail, msgAbsent, msgNA string
}

// requiredKey is one require_other_configs key: present when "**/key"
// matches or the tree root has it as a direct child.
type requiredKey struct {
	key      string
	anywhere configtree.Query
}

// compileRules lowers each rule.
func compileRules(rules []*cvl.Rule) []*compiledRule {
	out := make([]*compiledRule, len(rules))
	for i, r := range rules {
		out[i] = compileRule(r)
	}
	return out
}

func compileRule(r *cvl.Rule) *compiledRule {
	c := &compiledRule{
		rule:         r,
		nonPreferred: newMatchSet(r.NonPreferredValue, r.NonPreferredMatch, r.CaseInsensitive),
		preferred:    newMatchSet(r.PreferredValue, r.PreferredMatch, r.CaseInsensitive),
		msgNA:        r.Name + " not applicable",
	}
	// The default message suffix of each outcome; "" marks an outcome the
	// rule type does not have.
	var pass, fail, absent string
	switch r.Type {
	case cvl.TypeTree:
		c.compileTree()
		pass, fail, absent = " is configured correctly", " has a non-preferred value", " is not present"
	case cvl.TypeSchema:
		pass, fail = " passed", " failed"
	case cvl.TypePath:
		if r.Exists != nil && !*r.Exists {
			pass, fail = " is absent as required", " must not exist"
		} else {
			pass, absent = " metadata is correct", " does not exist"
		}
	case cvl.TypeScript:
		pass, fail = " runtime state is correct", " runtime state check failed"
	case cvl.TypeComposite:
		pass, fail = " holds across entities", " does not hold"
	}
	c.msgPass = describe(r.MatchedDescription, r.Name, pass)
	c.msgFail = describe(r.NotMatchedDescription, r.Name, fail)
	c.msgAbsent = describe(r.NotPresentDescription, r.Name, absent)
	return c
}

// compileTree parses a tree rule's queries.
func (c *compiledRule) compileTree() {
	r := c.rule
	paths := r.ConfigPath
	if len(paths) == 0 {
		paths = []string{""}
	}
	c.queries = make([]configtree.Query, len(paths))
	for i, p := range paths {
		c.queries[i] = configtree.Compile(joinTreePath(p, r.Name))
	}
	c.required = make([]requiredKey, len(r.RequireOtherConfigs))
	for i, key := range r.RequireOtherConfigs {
		c.required[i] = requiredKey{key: key, anywhere: configtree.Compile("**/" + key)}
	}
}

// describe returns desc, or name+suffix when desc is empty: the default
// text is built only for a rule without its own description. An empty
// suffix leaves the message unset.
func describe(desc, name, suffix string) string {
	switch {
	case suffix == "":
		return ""
	case desc != "":
		return desc
	}
	return name + suffix
}

func joinTreePath(configPath, name string) string {
	configPath = strings.Trim(configPath, "/")
	if configPath == "" {
		return name
	}
	return configPath + "/" + name
}

// applicable filters rules in place to those an entry's tag filter and
// the entity type select; rules must be a slice the caller owns.
func applicable(rules []*compiledRule, tags []string, entityType string) []*compiledRule {
	out := rules[:0]
	for _, c := range rules {
		if c.rule.MatchesTags(tags) && c.rule.AppliesToType(entityType) {
			out = append(out, c)
		}
	}
	return out
}
