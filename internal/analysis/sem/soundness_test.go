package sem

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
	"configvalidator/internal/schema"
)

// The soundness harness holds the analyzer to what it claims: a finding
// is reported only when it is proved. It generates seeded rules and
// values, runs them through the real engine (engine.ValidateRules) and
// schema.Select, and counts, class by class, every case where a set,
// constant or witness the analyzer derived disagrees with what actually
// runs.

// contradictions counts the disagreements of each class and keeps a few
// examples of each for the failure message.
type contradictions struct {
	counts   map[string]int
	examples map[string][]string
}

func (c *contradictions) add(class, format string, args ...any) {
	if c.counts == nil {
		c.counts, c.examples = map[string]int{}, map[string][]string{}
	}
	c.counts[class]++
	if len(c.examples[class]) < 3 {
		c.examples[class] = append(c.examples[class], fmt.Sprintf(format, args...))
	}
}

// report fails the test once per class that saw a contradiction.
func (c *contradictions) report(t *testing.T, checked int) {
	t.Helper()
	classes := make([]string, 0, len(c.counts))
	for class := range c.counts {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		t.Errorf("%s: %d of %d checks contradict, e.g.\n\t%s",
			class, c.counts[class], checked, strings.Join(c.examples[class], "\n\t"))
	}
}

var (
	// harnessWords are the exact and substring operands; they are also
	// values, so matches and near-misses both occur.
	harnessWords = []string{"a", "b", "ab", "A", "yes", "YES", "no", "22", "2x", "é", ""}
	// harnessRegexes mix patterns with finite, digit-range and opaque
	// languages, a line-anchored one and an invalid one.
	harnessRegexes = []string{"^a$", "^(a|b)$", "a", "^[ab]$", "(?m)^a$", "(?i)^a$", "b$",
		"^[0-9]{2}$", "^(yes|no)$", "(bad", "^$", "^.$"}
	// harnessValues are further observed values: separated lists, padded
	// and multi-line values.
	harnessValues = []string{"a,b", "a b", "a;b", "b, a", " a ", "a,", ",", " ", "x\na", "a\nx",
		"ab,yes", "YES;no", "22,2x", "aé", "AB"}
	harnessSeps  = []string{",", " ", ";"}
	harnessSpecs = []cvl.MatchSpec{{},
		{Kind: cvl.MatchExact, Quant: cvl.QuantAny}, {Kind: cvl.MatchExact, Quant: cvl.QuantAll},
		{Kind: cvl.MatchSubstr, Quant: cvl.QuantAny}, {Kind: cvl.MatchSubstr, Quant: cvl.QuantAll},
		{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}, {Kind: cvl.MatchRegex, Quant: cvl.QuantAll}}
)

// genTreeRule draws a tree rule with one or two value lists of one or two
// values each, any match spec (the default included), and optional
// case_insensitive, value_separator and absent_pass.
func genTreeRule(r *rand.Rand, name, group string) *cvl.Rule {
	rule := &cvl.Rule{Type: cvl.TypeTree, Name: name, ConfigPath: []string{group},
		CaseInsensitive: r.Intn(4) == 0, AbsentPass: r.Intn(3) == 0}
	if r.Intn(4) == 0 {
		rule.ValueSeparator = harnessSeps[r.Intn(len(harnessSeps))]
	}
	list := func() ([]string, cvl.MatchSpec) {
		spec := harnessSpecs[r.Intn(len(harnessSpecs))]
		pool := harnessWords
		if spec.Kind == cvl.MatchRegex {
			pool = harnessRegexes
		}
		vals := make([]string, 1+r.Intn(2))
		for i := range vals {
			vals[i] = pool[r.Intn(len(pool))]
		}
		return vals, spec
	}
	hasPref := r.Intn(10) < 7
	if hasPref {
		rule.PreferredValue, rule.PreferredMatch = list()
	}
	if !hasPref || r.Intn(2) == 0 {
		rule.NonPreferredValue, rule.NonPreferredMatch = list()
	}
	return rule
}

// candidates draws n values to observe for rule: its operands and their
// upper-case forms, operands joined by its separator, and pool values.
func candidates(r *rand.Rand, rule *cvl.Rule, n int) []string {
	pick := func() string {
		i := r.Intn(len(harnessWords) + len(harnessValues))
		if i < len(harnessWords) {
			return harnessWords[i]
		}
		return harnessValues[i-len(harnessWords)]
	}
	var out []string
	for _, v := range append(append([]string(nil), rule.PreferredValue...), rule.NonPreferredValue...) {
		out = append(out, v, strings.ToUpper(v))
	}
	if sep := rule.ValueSeparator; sep != "" {
		out = append(out, pick()+sep+pick(), " "+pick()+" "+sep, sep)
	}
	for len(out) < n {
		out = append(out, pick())
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

// runTree validates rules against one JSON file holding doc and returns
// each rule's status.
func runTree(t *testing.T, rules []*cvl.Rule, doc map[string]any) map[*cvl.Rule]engine.Status {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	host := entity.NewMem("host", entity.TypeHost)
	host.AddFile("/etc/app/conf.json", data)
	rep, err := engine.New(nil).ValidateRules(host, rules, []string{"/etc/app"})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[*cvl.Rule]engine.Status, len(rep.Results))
	for _, res := range rep.Results {
		out[res.Rule] = res.Status
	}
	return out
}

// member reports whether v is certainly in s.
func member(s *Set, v string) bool {
	m, known := s.Contains(v)
	return known && m
}

// outside reports whether v is certainly not in s.
func outside(s *Set, v string) bool {
	m, known := s.Contains(v)
	return known && !m
}

// checkVerdict holds one engine verdict on an observed value against the
// rule's lowered sets and constants.
func checkVerdict(c *contradictions, ri *RuleIR, v string, st engine.Status) {
	r := ri.Rule
	switch st {
	case engine.StatusPass:
		if ri.CanNeverPass {
			c.add("CanNeverPass rule passes", "%s passes on %q", ruleText(r), v)
		}
		if ri.Pass != nil && outside(ri.Pass, v) {
			c.add("value outside Pass passes", "%s passes on %q, outside %s", ruleText(r), v, ri.Pass.Describe())
		}
		if ri.Viol != nil && ri.ViolExact && member(ri.Viol, v) {
			c.add("value inside exact Viol passes", "%s passes on %q, inside %s", ruleText(r), v, ri.Viol.Describe())
		}
	case engine.StatusFail:
		if ri.CanNeverFail {
			c.add("CanNeverFail rule fails", "%s fails on %q", ruleText(r), v)
		}
		if ri.Viol != nil && outside(ri.Viol, v) {
			c.add("value outside Viol fails", "%s fails on %q, outside %s", ruleText(r), v, ri.Viol.Describe())
		}
		if ri.Pass != nil && ri.PassExact && member(ri.Pass, v) {
			c.add("value inside exact Pass fails", "%s fails on %q, inside %s", ruleText(r), v, ri.Pass.Describe())
		}
	}
}

func ruleText(r *cvl.Rule) string {
	return fmt.Sprintf("rule{pref %q %v, nonpref %q %v, ci %v, sep %q, absent_pass %v}",
		r.PreferredValue, r.PreferredMatch, r.NonPreferredValue, r.NonPreferredMatch,
		r.CaseInsensitive, r.ValueSeparator, r.AbsentPass)
}

// TestSoundnessTreeRules runs 3,000 generated tree rules on 16 observed
// values each and on an absent key. A value outside Pass, or inside an
// exact Viol, must never pass; a value outside Viol, or inside an exact
// Pass, must never fail; a CanNeverPass rule never passes and a
// CanNeverFail rule never fails.
func TestSoundnessTreeRules(t *testing.T) {
	const nRules, nValues, perGroup = 3000, 16, 60
	r := rand.New(rand.NewSource(22))
	rules := make([]*cvl.Rule, nRules)
	irs := make([]*RuleIR, nRules)
	values := make([][]string, nRules)
	for i := range rules {
		rules[i] = genTreeRule(r, "k"+strconv.Itoa(i%perGroup), "g"+strconv.Itoa(i/perGroup))
		irs[i] = lowerRule(rules[i])
		values[i] = candidates(r, rules[i], nValues)
	}
	var c contradictions
	checked, decided := 0, 0
	for round := 0; round <= nValues; round++ {
		doc := map[string]any{"unrelated": "x"}
		if round < nValues {
			for i, rule := range rules {
				group, _ := doc[rule.ConfigPath[0]].(map[string]string)
				if group == nil {
					group = map[string]string{}
					doc[rule.ConfigPath[0]] = group
				}
				group[rule.Name] = values[i][round]
			}
		}
		statuses := runTree(t, rules, doc)
		for i, rule := range rules {
			st, ri := statuses[rule], irs[i]
			checked++
			if st == engine.StatusPass || st == engine.StatusFail {
				decided++
			}
			if round == nValues { // the key is absent
				if st == engine.StatusPass && ri.CanNeverPass {
					c.add("CanNeverPass rule passes", "%s passes with the key absent", ruleText(rule))
				}
				if st == engine.StatusFail && ri.CanNeverFail {
					c.add("CanNeverFail rule fails", "%s fails with the key absent", ruleText(rule))
				}
				continue
			}
			checkVerdict(&c, ri, values[i][round], st)
		}
	}
	if decided < checked*3/4 {
		t.Errorf("only %d of %d verdicts passed or failed", decided, checked)
	}
	c.report(t, checked)
}

// TestSoundnessSlotsSeparateFiles pins that tree rules on one key name
// judge one value only when they share file_context and config_path:
// sshd's Port preferring 22 and my.cnf's mysqld/Port preferring 3306 both
// pass on one host, so no finding may treat them as one value.
func TestSoundnessSlotsSeparateFiles(t *testing.T) {
	sshd := &cvl.Rule{Type: cvl.TypeTree, Name: "Port", FileContext: []string{"sshd_config"}, PreferredValue: []string{"22"}}
	mysql := &cvl.Rule{Type: cvl.TypeTree, Name: "Port", ConfigPath: []string{"mysqld"}, FileContext: []string{"my.cnf"}, PreferredValue: []string{"3306"}}
	host := entity.NewMem("host", entity.TypeHost)
	host.AddFile("/etc/ssh/sshd_config", []byte("Port 22\n"))
	host.AddFile("/etc/mysql/my.cnf", []byte("[mysqld]\nPort = 3306\n"))
	rep, err := engine.New(nil).ValidateRules(host, []*cvl.Rule{sshd, mysql}, []string{"/etc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Status != engine.StatusPass {
			t.Fatalf("%s: %v %s, want PASS", res.Rule.FileContext, res.Status, res.Detail)
		}
	}
	for _, f := range Check([]*IR{Lower("u", []*cvl.Rule{sshd, mysql})}, nil) {
		t.Errorf("%s on rules that both pass on one host: %s", f.Code, f.Msg)
	}
}

var witnessRE = regexp.MustCompile(`both reject value ("(?:[^"\\]|\\.)*")`)

// TestSoundnessSeverityWitness generates pairs of tree rules on one key
// with different severities: every CVL406 must name a value on which the
// engine fails both rules.
func TestSoundnessSeverityWitness(t *testing.T) {
	const nPairs = 3000
	r := rand.New(rand.NewSource(406))
	var rules []*cvl.Rule
	doc := map[string]any{}
	witness := map[*cvl.Rule]string{}
	for p := 0; p < nPairs; p++ {
		group := "g" + strconv.Itoa(p)
		a, b := genTreeRule(r, "k", group), genTreeRule(r, "k", group)
		a.Severity, b.Severity = "high", "low"
		for _, f := range Check([]*IR{Lower("u", []*cvl.Rule{a, b})}, nil) {
			if f.Code != CodeSeverityConflict {
				continue
			}
			m := witnessRE.FindStringSubmatch(f.Msg)
			if m == nil {
				t.Fatalf("no witness in %q", f.Msg)
			}
			w, err := strconv.Unquote(m[1])
			if err != nil {
				t.Fatal(err)
			}
			rules = append(rules, a, b)
			witness[a], witness[b] = w, w
			doc[group] = map[string]string{"k": w}
		}
	}
	if len(rules) < 200 {
		t.Fatalf("only %d CVL406 findings in %d pairs; the harness checks too little", len(rules)/2, nPairs)
	}
	var c contradictions
	for rule, st := range runTree(t, rules, doc) {
		if st != engine.StatusFail {
			c.add("CVL406 witness not failed by both rules", "%s is %v on witness %q", ruleText(rule), st, witness[rule])
		}
	}
	c.report(t, len(rules))
}

var (
	// harnessCells are the cells of the table and the operands of the
	// comparisons: numbers in several spellings, NaN, padded numbers and
	// other strings.
	harnessCells = []string{"0", "5", "10", "-5", "+5", "5.0", "1e1", "-0", "inf", "-Inf", "0x1p3",
		"2x", "abc", "", "nan", "NaN", " 5", "5 ", "x5", "a\nb", "%", "_", "é", "Z", "1_0"}
	harnessLike = []string{"%", "_", "5%", "%5", "%x%", "_x", "a_b", "%\n%", "__", "é", "%_%", "2_", ""}
	harnessOps  = []string{"=", "!=", "<", "<=", ">", ">=", "IN", "LIKE"}
)

// TestSoundnessRowRegions generates 1,200 single-column conjunctive
// constraints over a table of one column. An exact row region must hold
// exactly the cells schema.Select selects, an inexact one at least those;
// a region proved inside an exact one (CVL401) or disjoint from another
// (CVL403) must be so on the table.
func TestSoundnessRowRegions(t *testing.T) {
	const n, pairs = 1200, 40000
	r := rand.New(rand.NewSource(7))
	tbl := schema.New("t", "c")
	for _, cell := range harnessCells {
		if err := tbl.AddRow(cell); err != nil {
			t.Fatal(err)
		}
	}
	cell := func() string { return harnessCells[r.Intn(len(harnessCells))] }
	type constraint struct {
		ri       *RuleIR
		selected map[string]bool
	}
	var c contradictions
	cs := make([]constraint, n)
	checked := 0
	for i := range cs {
		var atoms, args []string
		nAtoms := 1
		if r.Intn(2) == 0 {
			nAtoms += r.Intn(3)
		}
		for ; nAtoms > 0; nAtoms-- {
			switch op := harnessOps[r.Intn(len(harnessOps))]; op {
			case "IN":
				k := 1 + r.Intn(3)
				atoms = append(atoms, "c IN ("+strings.Repeat("?, ", k-1)+"?)")
				for ; k > 0; k-- {
					args = append(args, cell())
				}
			case "LIKE":
				atoms = append(atoms, "c LIKE ?")
				args = append(args, harnessLike[r.Intn(len(harnessLike))])
			default:
				atoms = append(atoms, "c "+op+" ?")
				args = append(args, cell())
			}
		}
		q := schema.Query{Constraints: strings.Join(atoms, " AND "), Args: args}
		ri := lowerRule(&cvl.Rule{Type: cvl.TypeSchema, Name: "q" + strconv.Itoa(i),
			QueryConstraints: q.Constraints, QueryConstraintsValue: q.Args, ExpectRows: ">=1"})
		if ri.RowMode != RowRequire || ri.RowRegion == nil {
			t.Fatalf("%s %q: no row region", q.Constraints, q.Args)
		}
		out, err := tbl.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		sel := map[string]bool{}
		for _, row := range out.Rows {
			sel[row[0]] = true
		}
		for _, v := range harnessCells {
			checked++
			switch {
			case sel[v] && outside(ri.RowRegion, v):
				c.add("selected cell outside the row region", "%s %q selects %q, outside %s",
					q.Constraints, q.Args, v, ri.RowRegion.Describe())
			case !sel[v] && ri.RowExact && member(ri.RowRegion, v):
				c.add("exact row region holds an unselected cell", "%s %q does not select %q, inside %s",
					q.Constraints, q.Args, v, ri.RowRegion.Describe())
			}
		}
		cs[i] = constraint{ri, sel}
	}
	for k := 0; k < pairs; k++ {
		need, ban := cs[r.Intn(n)], cs[r.Intn(n)]
		if ban.ri.RowExact && need.ri.RowRegion.SubsetOf(ban.ri.RowRegion) {
			for v := range need.selected {
				if !ban.selected[v] {
					c.add("CVL401 row proof refuted", "%s %q selects %q, which %s %q, proved to cover it, does not",
						need.ri.Rule.QueryConstraints, need.ri.Rule.QueryConstraintsValue, v,
						ban.ri.Rule.QueryConstraints, ban.ri.Rule.QueryConstraintsValue)
				}
			}
		}
		if need.ri.RowRegion.ProvablyDisjoint(ban.ri.RowRegion) {
			for v := range need.selected {
				if ban.selected[v] {
					c.add("CVL403 row proof refuted", "%s %q and %s %q, proved disjoint, both select %q",
						need.ri.Rule.QueryConstraints, need.ri.Rule.QueryConstraintsValue,
						ban.ri.Rule.QueryConstraints, ban.ri.Rule.QueryConstraintsValue, v)
				}
			}
		}
	}
	c.report(t, checked)
}
