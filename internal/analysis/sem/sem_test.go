package sem

import (
	"strings"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/schema"
)

// --- abstract domain ---

func TestFiniteIntersect(t *testing.T) {
	a := Finite("1", "2", "3")
	b := Finite("2", "3", "4")
	inter, exact := a.Intersect(b)
	if !exact {
		t.Fatalf("finite intersect should be exact")
	}
	if got := inter.Describe(); !strings.Contains(got, `"2"`) || !strings.Contains(got, `"3"`) {
		t.Fatalf("unexpected intersection %s", got)
	}
	if member, _ := inter.Contains("1"); member {
		t.Fatalf("1 should not survive the intersection")
	}
}

func TestNumericOps(t *testing.T) {
	ports := numRange(0, 65535)
	high := atLeast(1024, false)
	inter, exact := ports.Intersect(high)
	if !exact || inter.ProvablyEmpty() {
		t.Fatalf("intersect [0,65535] with [1024,inf) should be exact and non-empty")
	}
	if member, _ := inter.Contains("22"); member {
		t.Fatalf("22 is below 1024")
	}
	if member, _ := inter.Contains("8080"); !member {
		t.Fatalf("8080 should be a member")
	}
	if !Finite("22").ProvablyDisjoint(high) {
		t.Fatalf("{22} should be provably disjoint from [1024,inf)")
	}
	if !numRange(10, 20).SubsetOf(numRange(0, 100)) {
		t.Fatalf("[10,20] should be a subset of [0,100]")
	}
	if numRange(10, 200).SubsetOf(numRange(0, 100)) {
		t.Fatalf("[10,200] is not a subset of [0,100]")
	}
	// NaN and padded numbers are not numbers (schema.Number).
	for _, v := range []string{"nan", "NaN", " 5", "5 "} {
		if member, _ := atMost(5, true).Contains(v); member {
			t.Errorf("(-inf, 5) contains %q", v)
		}
		if member, _ := numRange(5, 5).Contains(v); member {
			t.Errorf("[5, 5] contains %q", v)
		}
	}
	if member, _ := numRange(5, 5).Contains("5.0"); !member {
		t.Error("[5, 5] does not contain 5.0")
	}
}

func TestExceptAndComplement(t *testing.T) {
	s := Finite("a", "b")
	comp, exact := s.Complement()
	if !exact {
		t.Fatalf("complement of a finite set is exact")
	}
	if member, _ := comp.Contains("a"); member {
		t.Fatalf("complement should exclude a")
	}
	if member, _ := comp.Contains("z"); !member {
		t.Fatalf("complement should include z")
	}
	inter, exact := comp.Intersect(Finite("a", "c"))
	if !exact {
		t.Fatalf("except/finite intersect is exact")
	}
	if member, _ := inter.Contains("a"); member {
		t.Fatalf("a must not survive")
	}
	if member, _ := inter.Contains("c"); !member {
		t.Fatalf("c must survive")
	}
}

func TestUnion(t *testing.T) {
	u, exact := Finite("a").Union(Finite("b"))
	if !exact {
		t.Fatalf("finite union is exact")
	}
	for _, v := range []string{"a", "b"} {
		if member, _ := u.Contains(v); !member {
			t.Fatalf("%s missing from union", v)
		}
	}
	n, _ := numRange(1, 5).Union(numRange(10, 20))
	if member, _ := n.Contains("7"); member {
		t.Fatalf("7 is in neither interval")
	}
}

func TestWitness(t *testing.T) {
	w, ok := Finite("x", "y").Witness(Except("x"))
	if !ok || w != "y" {
		t.Fatalf("witness = %q, %v; want y", w, ok)
	}
	w, ok = numRange(10, 20).Witness(numRange(15, 30))
	if !ok {
		t.Fatalf("expected a numeric witness")
	}
	if member, _ := numRange(15, 20).Contains(w); !member {
		t.Fatalf("witness %q outside the overlap", w)
	}
}

// --- regex approximation ---

func TestRegexSetFinite(t *testing.T) {
	s, exact := regexSet("^[1-4]$", false)
	if !exact {
		t.Fatalf("^[1-4]$ should enumerate exactly")
	}
	for _, v := range []string{"1", "4"} {
		if member, _ := s.Contains(v); !member {
			t.Fatalf("%s should match", v)
		}
	}
	if member, _ := s.Contains("5"); member {
		t.Fatalf("5 must not match")
	}
}

func TestRegexSetBoundedAlternation(t *testing.T) {
	// The CIS idiom for 1..300.
	s, exact := regexSet("^([1-9]|[1-9][0-9]|[1-2][0-9][0-9]|300)$", false)
	if !exact {
		t.Fatalf("bounded alternation should enumerate exactly")
	}
	for _, v := range []string{"1", "99", "300"} {
		if member, _ := s.Contains(v); !member {
			t.Fatalf("%s should match", v)
		}
	}
	for _, v := range []string{"0", "301"} {
		if member, _ := s.Contains(v); member {
			t.Fatalf("%s must not match", v)
		}
	}
}

// portHighRegex matches exactly the integers 1024..65535.
const portHighRegex = `^(102[4-9]|10[3-9][0-9]|1[1-9][0-9]{2}|[2-9][0-9]{3}|[1-5][0-9]{4}|6[0-4][0-9]{3}|65[0-4][0-9]{2}|655[0-2][0-9]|6553[0-5])$`

// regexPref lowers a tree rule preferring pattern and returns its
// preferred set: regexSet's approximation, or the opaque set that tests
// values with the rule's compiled matcher.
func regexPref(pattern string) *Set {
	return lowerRule(&cvl.Rule{Type: cvl.TypeTree, Name: "k", PreferredValue: []string{pattern},
		PreferredMatch: cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}}).Pref
}

func TestRegexSetDigitIntervals(t *testing.T) {
	// regexp/syntax factors the branches' common prefixes into nested
	// alternations; the interval reading must see through them.
	numeric, exact := regexSet(portHighRegex, false)
	if numeric == nil || numeric.kind != kindNumeric || exact {
		t.Fatalf("port regex approximated as %v, want an inexact numeric set", numeric)
	}
	for v, want := range map[string]bool{"1023": false, "1024": true, "1100": true, "2000": true, "65535": true, "65536": false} {
		if member, _ := numeric.Contains(v); member != want {
			t.Errorf("numeric set contains %s = %v, want %v", v, member, want)
		}
	}
	if !Numeric(interval[float64]{lo: 0, hi: 1023}).ProvablyDisjoint(numeric) {
		t.Errorf("ports below 1024 should be provably disjoint from the numeric set %s", numeric.Describe())
	}
	s := regexPref(portHighRegex)
	if s.ProvablyEmpty() {
		t.Fatalf("port regex should not be empty")
	}
	if member, _ := s.Contains("22"); member {
		t.Fatalf("22 is below 1024")
	}
	if member, _ := s.Contains("1024"); !member {
		t.Fatalf("1024 should be a member")
	}
	if member, _ := s.Contains("65535"); !member {
		t.Fatalf("65535 should be a member")
	}
	if !Finite("22").ProvablyDisjoint(s) {
		t.Fatalf("{22} should be provably disjoint from the port range")
	}
}

func TestRegexSetUnanchoredFallsBack(t *testing.T) {
	if s, _ := regexSet("ssl", false); s != nil {
		t.Fatalf("unanchored pattern approximated as %s", s.Describe())
	}
	s := regexPref("ssl")
	if member, _ := s.Contains("openssl-1.0"); !member {
		t.Fatalf("membership should stay precise on the fallback")
	}
	if member, _ := s.Contains("tls"); member {
		t.Fatalf("tls does not contain ssl")
	}
}

// --- lowering ---

func treeRule(name string, pref, nonpref []string) *cvl.Rule {
	return &cvl.Rule{Type: cvl.TypeTree, Name: name, PreferredValue: pref, NonPreferredValue: nonpref}
}

func TestLowerPassViol(t *testing.T) {
	ri := lowerRule(treeRule("Port", []string{"22"}, nil))
	if ri.Pass == nil || ri.Viol == nil {
		t.Fatalf("expected pass and viol sets")
	}
	if member, _ := ri.Pass.Contains("22"); !member {
		t.Fatalf("22 should pass")
	}
	if member, _ := ri.Viol.Contains("22"); member {
		t.Fatalf("22 should not violate")
	}
	if member, _ := ri.Viol.Contains("23"); !member {
		t.Fatalf("23 should violate")
	}
}

func TestLowerUnsat(t *testing.T) {
	ri := lowerRule(treeRule("X", []string{"a"}, []string{"a"}))
	if !ri.Pass.ProvablyEmpty() {
		t.Fatalf("preferring and rejecting the same value is unsatisfiable")
	}
	if !ri.CanNeverPass {
		t.Fatalf("CanNeverPass should be set")
	}
}

func TestLowerSchemaRowRegion(t *testing.T) {
	r := &cvl.Rule{
		Type: cvl.TypeSchema, Name: "no_low_ports",
		QueryConstraints:      "port < ?",
		QueryConstraintsValue: []string{"1024"},
		ExpectRows:            "0",
	}
	ri := lowerRule(r)
	if ri.RowMode != RowForbid || ri.RowCol != "port" {
		t.Fatalf("unexpected row lowering: mode=%v col=%q", ri.RowMode, ri.RowCol)
	}
	if member, _ := ri.RowRegion.Contains("80"); !member {
		t.Fatalf("80 should be inside the forbidden region")
	}
	if member, _ := ri.RowRegion.Contains("8080"); member {
		t.Fatalf("8080 is outside the forbidden region")
	}
}

func TestLowerPathConflict(t *testing.T) {
	r := &cvl.Rule{Type: cvl.TypePath, Name: "/etc/shadow", Permission: 0o644, MaxPermission: 0o600}
	if !lowerRule(r).CanNeverPass {
		t.Fatalf("0644 exceeds max 0600: rule can never pass")
	}
	r2 := &cvl.Rule{Type: cvl.TypePath, Name: "/etc/passwd", Permission: 0o600, MaxPermission: 0o644}
	if lowerRule(r2).CanNeverPass {
		t.Fatalf("0600 within max 0644 is satisfiable")
	}
}

// --- checker ---

func findingCodes(fs []Finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Code)
	}
	return out
}

func hasCode(fs []Finding, code string) bool {
	for _, f := range fs {
		if f.Code == code {
			return true
		}
	}
	return false
}

func TestCheckUnsatSingle(t *testing.T) {
	ir := Lower("unit.yaml", []*cvl.Rule{treeRule("X", []string{"a"}, []string{"a"})})
	fs := Check([]*IR{ir}, nil)
	if !hasCode(fs, CodeUnsat) {
		t.Fatalf("want CVL401, got %v", findingCodes(fs))
	}
}

func TestCheckSubsumed(t *testing.T) {
	a := &cvl.Rule{Type: cvl.TypeScript, Name: "wide", ScriptFeature: "selinux",
		NonPreferredValue: []string{"disabled", "permissive"}}
	b := &cvl.Rule{Type: cvl.TypeScript, Name: "narrow", ScriptFeature: "selinux",
		NonPreferredValue: []string{"disabled"}}
	fs := Check([]*IR{Lower("u", []*cvl.Rule{a, b})}, nil)
	if !hasCode(fs, CodeSubsumed) {
		t.Fatalf("want CVL402, got %v", findingCodes(fs))
	}
	for _, f := range fs {
		if f.Code == CodeSubsumed && f.Rule != b {
			t.Fatalf("the narrow rule should be the subsumed one")
		}
	}
}

func TestCheckInheritConflict(t *testing.T) {
	parent := &cvl.Rule{Type: cvl.TypeTree, Name: "Port", Source: "base.yaml",
		PreferredValue: []string{portHighRegex}, PreferredMatch: cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}}
	child := &cvl.Rule{Type: cvl.TypeTree, Name: "Port", Source: "child.yaml", Override: true,
		PreferredValue: []string{"22"}}
	fs := CheckReplacement(parent, child)
	if !hasCode(fs, CodeInheritConflict) {
		t.Fatalf("want CVL403, got %v", findingCodes(fs))
	}
	if fs[0].Rule != child || len(fs[0].Related) != 1 || fs[0].Related[0].Rule != parent {
		t.Fatalf("finding should anchor on the child and relate the parent")
	}
	// Narrowing (subset) must stay silent.
	narrowed := &cvl.Rule{Type: cvl.TypeTree, Name: "Port", Source: "child.yaml", Override: true,
		PreferredValue: []string{"2222"}}
	if fs := CheckReplacement(parent, narrowed); len(fs) != 0 {
		t.Fatalf("narrowing override is benign, got %v", findingCodes(fs))
	}
}

func mustComposite(t *testing.T, src string) *cvl.CompositeExpr {
	t.Helper()
	e, err := cvl.ParseComposite(src)
	if err != nil {
		t.Fatalf("parse composite %q: %v", src, err)
	}
	return e
}

func TestCheckCompositeTautologyContradiction(t *testing.T) {
	taut := &cvl.Rule{Type: cvl.TypeComposite, Name: "always", Source: "u",
		CompositeExpr: mustComposite(t, "db.ssl || !db.ssl")}
	contra := &cvl.Rule{Type: cvl.TypeComposite, Name: "never", Source: "u",
		CompositeExpr: mustComposite(t, "db.ssl && !db.ssl")}
	open := &cvl.Rule{Type: cvl.TypeComposite, Name: "open", Source: "u",
		CompositeExpr: mustComposite(t, "db.ssl && web.tls")}
	fs := Check([]*IR{Lower("u", []*cvl.Rule{taut, contra, open})}, nil)
	if !hasCode(fs, CodeCompositeTautology) || !hasCode(fs, CodeCompositeContradiction) {
		t.Fatalf("want CVL404 and CVL405, got %v", findingCodes(fs))
	}
	for _, f := range fs {
		if f.Rule == open {
			t.Fatalf("satisfiable composite must not be flagged")
		}
	}
}

func TestCheckCompositeValueDomains(t *testing.T) {
	// Comparing one key against two distinct literals conjunctively is a
	// contradiction; against the same literal disjunctively with != it is
	// a tautology.
	contra := &cvl.Rule{Type: cvl.TypeComposite, Name: "two_values", Source: "u",
		CompositeExpr: mustComposite(t, `db.mode.CONFIGPATH=[main].VALUE == "a" && db.mode.CONFIGPATH=[main].VALUE == "b"`)}
	taut := &cvl.Rule{Type: cvl.TypeComposite, Name: "eq_or_ne", Source: "u",
		CompositeExpr: mustComposite(t, `db.mode.CONFIGPATH=[main].VALUE == "a" || db.mode.CONFIGPATH=[main].VALUE != "a"`)}
	fs := Check([]*IR{Lower("u", []*cvl.Rule{contra, taut})}, nil)
	if !hasCode(fs, CodeCompositeContradiction) {
		t.Fatalf("want CVL405, got %v", findingCodes(fs))
	}
	if !hasCode(fs, CodeCompositeTautology) {
		t.Fatalf("want CVL404, got %v", findingCodes(fs))
	}
}

func TestCheckCompositeConstantFolding(t *testing.T) {
	member := treeRule("ssl", []string{"on"}, []string{"on"}) // can never pass
	comp := &cvl.Rule{Type: cvl.TypeComposite, Name: "needs_ssl", Source: "u",
		CompositeExpr: mustComposite(t, "db.ssl && db.other")}
	ir := Lower("u", []*cvl.Rule{member, comp})
	fs := Check([]*IR{ir}, []Entity{{Name: "db", Units: []string{"u"}}})
	if !hasCode(fs, CodeCompositeContradiction) {
		t.Fatalf("member rule can never pass, so the conjunction is constant false; got %v", findingCodes(fs))
	}
	var related bool
	for _, f := range fs {
		if f.Code == CodeCompositeContradiction {
			for _, rel := range f.Related {
				if rel.Rule == member {
					related = true
				}
			}
		}
	}
	if !related {
		t.Fatalf("the folded member rule should be listed as related")
	}
}

// A composite reference folds against a rule under the engine's name
// equivalence: sysctl.net.ipv4.ip_forward names net/ipv4/ip_forward.
func TestCheckCompositeFoldsDottedReference(t *testing.T) {
	member := treeRule("net/ipv4/ip_forward", []string{"0"}, []string{"0"}) // can never pass
	comp := &cvl.Rule{Type: cvl.TypeComposite, Name: "routing_off", Source: "u",
		CompositeExpr: mustComposite(t, "sysctl.net.ipv4.ip_forward && sysctl.other")}
	ir := Lower("u", []*cvl.Rule{member, comp})
	if ri, ok := ir.ByName("net.ipv4.ip_forward"); !ok || ri.Rule != member {
		t.Fatalf("ByName(net.ipv4.ip_forward) = %v, %v; want the slashed rule", ri, ok)
	}
	fs := Check([]*IR{ir}, []Entity{{Name: "sysctl", Units: []string{"u"}}})
	if !hasCode(fs, CodeCompositeContradiction) {
		t.Fatalf("the dotted reference names a rule that can never pass; got %v", findingCodes(fs))
	}
}

func TestCheckSeverityConflict(t *testing.T) {
	a := &cvl.Rule{Type: cvl.TypeScript, Name: "hard", ScriptFeature: "fips", Severity: "high",
		NonPreferredValue: []string{"off", "0"}}
	b := &cvl.Rule{Type: cvl.TypeScript, Name: "soft", ScriptFeature: "fips", Severity: "low",
		NonPreferredValue: []string{"off"}}
	fs := Check([]*IR{Lower("u", []*cvl.Rule{a, b})}, nil)
	if !hasCode(fs, CodeSeverityConflict) {
		t.Fatalf("want CVL406, got %v", findingCodes(fs))
	}
}

func TestCheckTypeMismatch(t *testing.T) {
	r := &cvl.Rule{Type: cvl.TypeTree, Name: "Port", FileContext: []string{"sshd_config"},
		PreferredValue: []string{"yes"}}
	fs := Check([]*IR{Lower("u", []*cvl.Rule{r})}, nil)
	if !hasCode(fs, CodeTypeMismatch) {
		t.Fatalf(`preferring "yes" for a port-typed key should raise CVL407, got %v`, findingCodes(fs))
	}
	ok := &cvl.Rule{Type: cvl.TypeTree, Name: "Port", FileContext: []string{"sshd_config"},
		PreferredValue: []string{"22"}}
	if fs := Check([]*IR{Lower("u", []*cvl.Rule{ok})}, nil); hasCode(fs, CodeTypeMismatch) {
		t.Fatalf("22 is a valid port; no CVL407 expected")
	}
}

func TestCheckRowRegionConflict(t *testing.T) {
	need := &cvl.Rule{Type: cvl.TypeSchema, Name: "want_low", Source: "u",
		QueryConstraints: "port < ?", QueryConstraintsValue: []string{"1024"}, ExpectRows: ">=1"}
	ban := &cvl.Rule{Type: cvl.TypeSchema, Name: "ban_low", Source: "u",
		QueryConstraints: "port <= ?", QueryConstraintsValue: []string{"2048"}, ExpectRows: "0"}
	fs := Check([]*IR{Lower("u", []*cvl.Rule{need, ban})}, nil)
	if !hasCode(fs, CodeUnsat) {
		t.Fatalf("required region inside forbidden region: want CVL401, got %v", findingCodes(fs))
	}
}

// selects reports whether the rule's constraints select the one-row table
// holding cell.
func selects(t *testing.T, r *cvl.Rule, cell string) bool {
	t.Helper()
	tbl := schema.New("t", "c")
	if err := tbl.AddRow(cell); err != nil {
		t.Fatal(err)
	}
	out, err := tbl.Select(schema.Query{Constraints: r.QueryConstraints, Args: r.QueryConstraintsValue})
	if err != nil {
		t.Fatal(err)
	}
	return out.Len() == 1
}

// TestCheckRowRegionStringOrder: a non-numeric cell compares with a
// numeric operand in string order, so "c < 5" does not lie inside
// "c < 10": on a table whose only cell is 2x, want_low finds its row and
// ban_low finds none, and both pass.
func TestCheckRowRegionStringOrder(t *testing.T) {
	need := &cvl.Rule{Type: cvl.TypeSchema, Name: "want_low", Source: "u",
		QueryConstraints: "c < ?", QueryConstraintsValue: []string{"5"}, ExpectRows: ">=1"}
	ban := &cvl.Rule{Type: cvl.TypeSchema, Name: "ban_low", Source: "u",
		QueryConstraints: "c < ?", QueryConstraintsValue: []string{"10"}, ExpectRows: "0"}
	if !selects(t, need, "2x") || selects(t, ban, "2x") {
		t.Fatal("on [2x], want_low should select its row and ban_low none")
	}
	if fs := Check([]*IR{Lower("u", []*cvl.Rule{need, ban})}, nil); hasCode(fs, CodeUnsat) {
		t.Fatalf("want_low passes on [2x], yet: %v", fs[0].Msg)
	}
}

// TestCheckInheritRowStringOrder: "c < 5" and "c > 10" are disjoint on
// numbers, but both select the cell 2x, so an override of one by the
// other does not contradict it.
func TestCheckInheritRowStringOrder(t *testing.T) {
	parent := &cvl.Rule{Type: cvl.TypeSchema, Name: "low", Source: "base.yaml",
		QueryConstraints: "c < ?", QueryConstraintsValue: []string{"5"}, ExpectRows: ">=1"}
	child := &cvl.Rule{Type: cvl.TypeSchema, Name: "low", Source: "child.yaml", Override: true,
		QueryConstraints: "c > ?", QueryConstraintsValue: []string{"10"}, ExpectRows: ">=1"}
	if !selects(t, parent, "2x") || !selects(t, child, "2x") {
		t.Fatal("both constraints should select 2x")
	}
	if fs := CheckReplacement(parent, child); hasCode(fs, CodeInheritConflict) {
		t.Fatalf("both rules pass on [2x], yet: %v", fs[0].Msg)
	}
}

func TestCheckSchemaJointUnsat(t *testing.T) {
	mk := func(name, val string) *cvl.Rule {
		return &cvl.Rule{Type: cvl.TypeSchema, Name: name, Source: "u",
			QueryConstraints: "dir = ?", QueryConstraintsValue: []string{"/tmp"},
			QueryColumns: []string{"opts"}, ExpectRows: ">=1",
			PreferredValue: []string{val}}
	}
	fs := Check([]*IR{Lower("u", []*cvl.Rule{mk("a", "nodev"), mk("b", "nosuid")})}, nil)
	if !hasCode(fs, CodeUnsat) {
		t.Fatalf("two exact preferred values on one slot: want CVL401, got %v", findingCodes(fs))
	}
}

// --- benchmarks (gated in make bench-check) ---

func benchRules() []*cvl.Rule {
	var rules []*cvl.Rule
	for i := 0; i < 40; i++ {
		rules = append(rules,
			&cvl.Rule{Type: cvl.TypeTree, Name: "KeyA" + string(rune('a'+i%26)),
				PreferredValue: []string{"^([1-9]|[1-9][0-9]|[1-2][0-9][0-9]|300)$"},
				PreferredMatch: cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}},
			&cvl.Rule{Type: cvl.TypeSchema, Name: "row" + string(rune('a'+i%26)),
				QueryConstraints: "port >= ?", QueryConstraintsValue: []string{"1024"}, ExpectRows: "0"},
		)
	}
	return rules
}

func BenchmarkSemanticLower(b *testing.B) {
	rules := benchRules()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Lower("bench.yaml", rules)
	}
}

// BenchmarkSemanticCheck times what a lint run pays to check: one Check
// of a freshly lowered IR. The rules are built and each IR is lowered
// with the timer stopped, so allocs/op count Check alone, whatever b.N.
func BenchmarkSemanticCheck(b *testing.B) {
	rules := benchRules()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ir := Lower("bench.yaml", rules)
		b.StartTimer()
		Check([]*IR{ir}, nil)
	}
}
