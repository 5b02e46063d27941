package engine

import (
	"math/rand"
	"strings"
	"testing"

	"configvalidator/internal/cvl"
)

// valueMatches runs one compiled match set, the way a rule's preferred or
// non-preferred side evaluates a value.
func valueMatches(value string, expected []string, spec cvl.MatchSpec, caseInsensitive bool) (bool, error) {
	m := newMatchSet(expected, spec, caseInsensitive)
	return m.matches(value)
}

func TestValueMatchesKinds(t *testing.T) {
	tests := []struct {
		name     string
		value    string
		expected []string
		spec     cvl.MatchSpec
		ci       bool
		want     bool
	}{
		{"exact any hit", "no", []string{"yes", "no"}, cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAny}, false, true},
		{"exact any miss", "maybe", []string{"yes", "no"}, cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAny}, false, false},
		{"exact all single", "no", []string{"no"}, cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAll}, false, true},
		{"exact all multi impossible", "no", []string{"no", "yes"}, cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAll}, false, false},
		{"substr all", "TLSv1.2 TLSv1.3", []string{"TLSv1.2", "TLSv1.3"}, cvl.MatchSpec{Kind: cvl.MatchSubstr, Quant: cvl.QuantAll}, false, true},
		{"substr all partial", "TLSv1.2", []string{"TLSv1.2", "TLSv1.3"}, cvl.MatchSpec{Kind: cvl.MatchSubstr, Quant: cvl.QuantAll}, false, false},
		{"substr any", "SSLv3 enabled", []string{"SSLv2", "SSLv3"}, cvl.MatchSpec{Kind: cvl.MatchSubstr, Quant: cvl.QuantAny}, false, true},
		{"regex any", "without-password", []string{"^(no|without-password)$"}, cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}, false, true},
		{"case-insensitive exact", "NO", []string{"no"}, cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAny}, true, true},
		{"case-insensitive regex", "Yes", []string{"^yes$"}, cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}, true, true},
		{"empty expected", "x", nil, cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAny}, false, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := valueMatches(tt.value, tt.expected, tt.spec, tt.ci)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("valueMatches(%q, %v, %v) = %v, want %v", tt.value, tt.expected, tt.spec, got, tt.want)
			}
		})
	}
}

func TestMatcherBadRegex(t *testing.T) {
	_, err := valueMatches("x", []string{"(unclosed"}, cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}, false)
	if err == nil {
		t.Fatal("bad regex accepted")
	}
	if want := `engine: regex "(unclosed": error parsing regexp: missing closing ): ` + "`(unclosed`"; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// TestMatcherBadRegexOnlyWhenReached pins lazy regex compilation: a bad
// pattern after an any-hit (or after an all-miss) is never compiled, and
// the same match set reports it once a value does reach it.
func TestMatcherBadRegexOnlyWhenReached(t *testing.T) {
	anySet := newMatchSet([]string{"^ok$", "(bad"}, cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}, false)
	if ok, err := anySet.matches("ok"); err != nil || !ok {
		t.Fatalf("any-hit before the bad pattern: %v, %v", ok, err)
	}
	if _, err := anySet.matches("nope"); err == nil {
		t.Fatal("a value reaching the bad pattern got no error")
	}
	allSet := newMatchSet([]string{"^ok$", "(bad"}, cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAll}, false)
	if ok, err := allSet.matches("nope"); err != nil || ok {
		t.Fatalf("all-miss before the bad pattern: %v, %v", ok, err)
	}
}

// TestMatchSetFoldsOnce pins the compiled case folding: exact and substr
// operands are lower-cased at compile time, regex operands are left as
// written and matched with (?i).
func TestMatchSetFoldsOnce(t *testing.T) {
	exact := newMatchSet([]string{"NO", "Maybe"}, cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAny}, true)
	if !exact.fold || exact.values[0] != "no" || exact.values[1] != "maybe" {
		t.Errorf("exact operands = %q (fold %v), want folded", exact.values, exact.fold)
	}
	re := newMatchSet([]string{"^YES$"}, cvl.MatchSpec{Kind: cvl.MatchRegex, Quant: cvl.QuantAny}, true)
	if re.fold || re.values[0] != "^YES$" {
		t.Errorf("regex operands = %q (fold %v), want unfolded", re.values, re.fold)
	}
	if ok, err := re.matches("yes"); err != nil || !ok {
		t.Errorf("case-insensitive regex: %v, %v", ok, err)
	}
	// The rule's own value lists are never rewritten by compilation.
	rule := &cvl.Rule{Type: cvl.TypeTree, Name: "k", PreferredValue: []string{"A"}, CaseInsensitive: true}
	compileRule(rule)
	if rule.PreferredValue[0] != "A" {
		t.Errorf("compile rewrote the rule's preferred values to %q", rule.PreferredValue)
	}
}

// TestQuickAnyAllDuality property-tests the matcher algebra: for exact and
// substr kinds, any(value, set) == !all-fail and all(value, set) implies
// any(value, set).
func TestQuickAnyAllDuality(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	words := []string{"a", "b", "ab", "ba", "abc", "", "aa"}
	kinds := []cvl.MatchKind{cvl.MatchExact, cvl.MatchSubstr}
	for i := 0; i < 2000; i++ {
		value := words[r.Intn(len(words))] + words[r.Intn(len(words))]
		n := 1 + r.Intn(3)
		set := make([]string, n)
		for j := range set {
			set[j] = words[r.Intn(len(words))]
		}
		kind := kinds[r.Intn(2)]
		anyMatch, err := valueMatches(value, set, cvl.MatchSpec{Kind: kind, Quant: cvl.QuantAny}, false)
		if err != nil {
			t.Fatal(err)
		}
		allMatch, err := valueMatches(value, set, cvl.MatchSpec{Kind: kind, Quant: cvl.QuantAll}, false)
		if err != nil {
			t.Fatal(err)
		}
		// all implies any.
		if allMatch && !anyMatch {
			t.Fatalf("all without any: value %q set %v kind %v", value, set, kind)
		}
		// any == exists a member that matches individually.
		exists := false
		for _, e := range set {
			var one bool
			if kind == cvl.MatchExact {
				one = value == e
			} else {
				one = strings.Contains(value, e)
			}
			if one {
				exists = true
			}
		}
		if anyMatch != exists {
			t.Fatalf("any mismatch: value %q set %v kind %v: %v vs %v", value, set, kind, anyMatch, exists)
		}
	}
}
