package sem

import (
	"regexp/syntax"
	"strconv"
	"strings"
)

// Bounded regex-language approximation. The engine matches value regexes
// UNANCHORED (regexp.MatchString), so the matched language of a pattern
// is "every string containing a match". Three strategies, in order of
// precision:
//
//  1. Anchored patterns (^...$) whose language is small are expanded to
//     an exact finite value set: "^[1-4]$" becomes {"1","2","3","4"},
//     and the CIS-style bounded-integer alternations up to a few hundred
//     values expand fully.
//  2. Anchored patterns built from digit classes — the idiom for large
//     integer ranges like "ports >= 1024" — are approximated by numeric
//     intervals: each alternation branch contributes [min, max] read off
//     its digit positions. The result over-approximates (it admits
//     non-canonical spellings such as "0022"), which keeps emptiness and
//     disjointness proofs sound.
//  3. Everything else becomes an opaque predicate that tests each value
//     with the rule's compiled matcher, the engine's own regex:
//     membership queries stay precise, set-level comparisons return
//     "unknown".

// enumLimit bounds finite expansion of an anchored regex.
const enumLimit = 512

// digitBranchLimit bounds the interval fan-out of one digit branch.
const digitBranchLimit = 64

// regexSet approximates the set of strings the pattern matches under the
// engine's semantics. exact reports whether the set equals the matched
// language (not merely over-approximates it). It returns nil when only
// the regex itself can decide membership (strategy 3). Invalid patterns —
// already reported as CVL203 by the analyzer — yield the universe,
// unknown.
func regexSet(pattern string, caseInsensitive bool) (set *Set, exact bool) {
	full := pattern
	if caseInsensitive {
		full = "(?i)" + pattern
	}
	parsed, err := syntax.Parse(full, syntax.Perl)
	if err != nil {
		return Any(), false
	}
	parsed = parsed.Simplify()
	if inner, ok := stripAnchors(parsed); ok {
		if vals, ok := enumRegexp(inner, enumLimit); ok {
			return Finite(vals...), true
		}
		if ivs, ok := digitIntervals(inner); ok {
			return Numeric(ivs...), false
		}
	}
	return nil, false
}

// stripAnchors unwraps a fully anchored pattern ^X$ and returns X. Only
// fully anchored patterns have an enumerable language; an unanchored
// pattern matches every string containing an occurrence, and so does one
// anchored at line boundaries ((?m)^X$ matches "a\nX").
func stripAnchors(re *syntax.Regexp) (*syntax.Regexp, bool) {
	if re.Op != syntax.OpConcat || len(re.Sub) < 2 {
		return nil, false
	}
	first, last := re.Sub[0], re.Sub[len(re.Sub)-1]
	if first.Op != syntax.OpBeginText || last.Op != syntax.OpEndText {
		return nil, false
	}
	mid := re.Sub[1 : len(re.Sub)-1]
	switch len(mid) {
	case 0:
		return &syntax.Regexp{Op: syntax.OpEmptyMatch}, true
	case 1:
		return mid[0], true
	default:
		return &syntax.Regexp{Op: syntax.OpConcat, Sub: mid}, true
	}
}

// enumRegexp expands a (stripped) regex into its full finite language, up
// to limit strings. It fails on unbounded operators and on case-folded
// literals (the folded expansion explodes and the Pred fallback stays
// precise for membership anyway).
func enumRegexp(re *syntax.Regexp, limit int) ([]string, bool) {
	switch re.Op {
	case syntax.OpEmptyMatch:
		return []string{""}, true
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase != 0 {
			return nil, false
		}
		return []string{string(re.Rune)}, true
	case syntax.OpCharClass:
		var out []string
		for i := 0; i+1 < len(re.Rune); i += 2 {
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				if len(out) >= limit {
					return nil, false
				}
				out = append(out, string(r))
			}
		}
		return out, true
	case syntax.OpCapture:
		return enumRegexp(re.Sub[0], limit)
	case syntax.OpAlternate:
		var out []string
		for _, sub := range re.Sub {
			vals, ok := enumRegexp(sub, limit)
			if !ok || len(out)+len(vals) > limit {
				return nil, false
			}
			out = append(out, vals...)
		}
		return dedupeSorted(out), true
	case syntax.OpConcat:
		out := []string{""}
		for _, sub := range re.Sub {
			vals, ok := enumRegexp(sub, limit)
			if !ok || len(out)*len(vals) > limit {
				return nil, false
			}
			next := make([]string, 0, len(out)*len(vals))
			for _, prefix := range out {
				for _, v := range vals {
					next = append(next, prefix+v)
				}
			}
			out = next
		}
		return out, true
	case syntax.OpQuest:
		vals, ok := enumRegexp(re.Sub[0], limit)
		if !ok || len(vals)+1 > limit {
			return nil, false
		}
		return dedupeSorted(append(vals, "")), true
	case syntax.OpRepeat:
		if re.Max < 0 || re.Max > 8 {
			return nil, false
		}
		base, ok := enumRegexp(re.Sub[0], limit)
		if !ok {
			return nil, false
		}
		var out []string
		tier := []string{""}
		for n := 0; n <= re.Max; n++ {
			if n >= re.Min {
				if len(out)+len(tier) > limit {
					return nil, false
				}
				out = append(out, tier...)
			}
			if n == re.Max {
				break
			}
			if len(tier)*len(base) > limit {
				return nil, false
			}
			next := make([]string, 0, len(tier)*len(base))
			for _, prefix := range tier {
				for _, v := range base {
					next = append(next, prefix+v)
				}
			}
			tier = next
		}
		return dedupeSorted(out), true
	default:
		return nil, false
	}
}

// digitIntervals approximates the numeric image of a regex whose branches
// are all digit sequences. Each alternation branch of fixed digit layout
// contributes the interval [all-min-digits, all-max-digits] — an
// over-approximation of the branch's language viewed as numbers.
func digitIntervals(re *syntax.Regexp) ([]interval[float64], bool) {
	var branches []*syntax.Regexp
	flatten := re
	for flatten.Op == syntax.OpCapture {
		flatten = flatten.Sub[0]
	}
	if flatten.Op == syntax.OpAlternate {
		branches = flatten.Sub
	} else {
		branches = []*syntax.Regexp{flatten}
	}
	var out []interval[float64]
	for _, b := range branches {
		spans, ok := digitSpans(b)
		if !ok {
			return nil, false
		}
		for _, s := range spans {
			if s.lo == "" {
				return nil, false // empty match is not a number
			}
			lo, err1 := strconv.ParseFloat(s.lo, 64)
			hi, err2 := strconv.ParseFloat(s.hi, 64)
			if err1 != nil || err2 != nil {
				return nil, false
			}
			out = append(out, interval[float64]{lo: lo, hi: hi})
		}
	}
	return out, true
}

// digitSpan is a partially built branch: the string of minimum digits and
// of maximum digits, position by position.
type digitSpan struct{ lo, hi string }

// digitSpans walks one branch and returns every (min,max) digit layout it
// can produce. Optional elements (x? / x{n,m}) and inner alternations fork
// the layout list.
func digitSpans(re *syntax.Regexp) ([]digitSpan, bool) {
	spans := []digitSpan{{}}
	var walk func(r *syntax.Regexp) bool
	walk = func(r *syntax.Regexp) bool {
		switch r.Op {
		case syntax.OpEmptyMatch:
			return true
		case syntax.OpCapture:
			return walk(r.Sub[0])
		case syntax.OpAlternate:
			// Simplify factors common prefixes out of a range's
			// branches (1(?:0(?:2[4-9]|[3-9][0-9])|[1-9][0-9][0-9])), so
			// each branch continues every layout built so far.
			base := spans
			var out []digitSpan
			for _, sub := range r.Sub {
				spans = append([]digitSpan(nil), base...)
				if !walk(sub) {
					return false
				}
				if out = append(out, spans...); len(out) > digitBranchLimit {
					return false
				}
			}
			spans = out
			return true
		case syntax.OpConcat:
			for _, sub := range r.Sub {
				if !walk(sub) {
					return false
				}
			}
			return true
		case syntax.OpLiteral:
			s := string(r.Rune)
			if strings.Trim(s, "0123456789") != "" {
				return false
			}
			for i := range spans {
				spans[i].lo += s
				spans[i].hi += s
			}
			return true
		case syntax.OpCharClass:
			lo, hi, ok := digitClassBounds(r)
			if !ok {
				return false
			}
			for i := range spans {
				spans[i].lo += string(lo)
				spans[i].hi += string(hi)
			}
			return true
		case syntax.OpQuest:
			return forkRepeat(r.Sub[0], 0, 1, &spans, walkOne(&spans, walk))
		case syntax.OpRepeat:
			if r.Max < 0 || r.Max > 8 {
				return false
			}
			return forkRepeat(r.Sub[0], r.Min, r.Max, &spans, walkOne(&spans, walk))
		default:
			return false
		}
	}
	if !walk(re) {
		return nil, false
	}
	return spans, true
}

// walkOne adapts the branch walker so forkRepeat can run it against a
// scoped copy of the span list.
func walkOne(spans *[]digitSpan, walk func(*syntax.Regexp) bool) func(r *syntax.Regexp, base []digitSpan) ([]digitSpan, bool) {
	return func(r *syntax.Regexp, base []digitSpan) ([]digitSpan, bool) {
		saved := *spans
		*spans = append([]digitSpan(nil), base...)
		ok := walk(r)
		result := *spans
		*spans = saved
		return result, ok
	}
}

// forkRepeat expands sub{min,max} into one span variant per repeat count.
func forkRepeat(sub *syntax.Regexp, min, max int, spans *[]digitSpan, apply func(*syntax.Regexp, []digitSpan) ([]digitSpan, bool)) bool {
	var out []digitSpan
	tier := *spans
	for n := 0; n <= max; n++ {
		if n >= min {
			out = append(out, tier...)
		}
		if n == max {
			break
		}
		next, ok := apply(sub, tier)
		if !ok {
			return false
		}
		tier = next
	}
	if len(out) > digitBranchLimit {
		return false
	}
	*spans = out
	return true
}

// digitClassBounds returns the smallest and largest digit of a character
// class that contains only digits.
func digitClassBounds(re *syntax.Regexp) (lo, hi rune, ok bool) {
	if len(re.Rune) == 0 {
		return 0, 0, false
	}
	lo, hi = re.Rune[0], re.Rune[len(re.Rune)-1]
	for i := 0; i+1 < len(re.Rune); i += 2 {
		if re.Rune[i] < '0' || re.Rune[i+1] > '9' {
			return 0, 0, false
		}
	}
	return lo, hi, true
}
