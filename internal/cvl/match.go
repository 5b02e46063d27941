package cvl

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
)

// ValueCheck is a rule's value test compiled once: its non-preferred and
// preferred matchers and, for a tree rule, its value_separator. The engine
// runs it on every observed value and the semantic analyzer uses it as the
// membership test behind its proofs, so both share one meaning of the
// value keywords. A ValueCheck is safe for concurrent use; it never
// changes after compile, apart from its lazily compiled regexes.
type ValueCheck struct {
	NonPreferred, Preferred Matcher
	// sep splits a tree rule's value into elements checked one by one.
	sep string
}

// NewValueCheck compiles r's value keywords. value_separator applies only
// to tree rules; ParseRule rejects it on every other rule type.
func NewValueCheck(r *Rule) ValueCheck {
	c := ValueCheck{
		NonPreferred: NewMatcher(r.NonPreferredValue, r.NonPreferredMatch, r.CaseInsensitive),
		Preferred:    NewMatcher(r.PreferredValue, r.PreferredMatch, r.CaseInsensitive),
	}
	if r.Type == TypeTree {
		c.sep = r.ValueSeparator
	}
	return c
}

// Separated reports whether the check splits values into elements.
func (c *ValueCheck) Separated() bool { return c.sep != "" }

// Check applies the check to one observed value: a value fails when it
// matches the non-preferred values, then when it misses the preferred
// values, each list applying only when it is non-empty. When the rule
// declares a value_separator, the value is split and every non-empty,
// space-trimmed element must pass on its own (list-valued keys such as
// sshd's Ciphers are checked element-wise rather than as one string). The
// second result is the value or element that failed.
func (c *ValueCheck) Check(value string) (Mismatch, string, error) {
	if c.sep == "" {
		why, err := c.checkOne(value)
		return why, value, err
	}
	for rest, more := value, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, c.sep)
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		if why, err := c.checkOne(part); err != nil || why != ValueOK {
			return why, part, err
		}
	}
	return ValueOK, "", nil
}

func (c *ValueCheck) checkOne(value string) (Mismatch, error) {
	if len(c.NonPreferred.values) > 0 {
		bad, err := c.NonPreferred.Matches(value)
		if err != nil {
			return ValueOK, err
		}
		if bad {
			return ValueNonPreferred, nil
		}
	}
	if len(c.Preferred.values) > 0 {
		good, err := c.Preferred.Matches(value)
		if err != nil {
			return ValueOK, err
		}
		if !good {
			return ValueNotPreferred, nil
		}
	}
	return ValueOK, nil
}

// Mismatch records why a value failed its rule; the report detail is
// formatted from it only when a check fails.
type Mismatch uint8

// Check outcomes.
const (
	// ValueOK means the value passed.
	ValueOK Mismatch = iota
	// ValueNonPreferred means the value matches the non-preferred values.
	ValueNonPreferred
	// ValueNotPreferred means the value misses the preferred values.
	ValueNotPreferred
)

// Detail renders the report detail for a value that failed with m.
func (m Mismatch) Detail(value string) string {
	if m == ValueNonPreferred {
		return fmt.Sprintf("value %q matches a non-preferred value", value)
	}
	return fmt.Sprintf("value %q does not match the preferred values", value)
}

// Matcher is one side of a value check — a rule's preferred or its
// non-preferred values under their match spec — with the operands
// prepared once: case-folded for exact and substring matching, and each
// regex compiled the first time a match reaches it.
type Matcher struct {
	spec   MatchSpec
	fold   bool     // case_insensitive: fold values before exact/substr matching
	values []string // folded when fold applies
	// regex holds one lazily compiled pattern per value for the regex
	// kind. Compiling on first use keeps a bad pattern an evaluation-time
	// error, raised only when a check reaches it.
	regex []lazyRegex
}

// lazyRegex compiles its pattern once, on first use, for every goroutine
// sharing the matcher.
type lazyRegex struct {
	once    sync.Once
	pattern string // as written in the rule, for error messages
	fold    bool
	re      *regexp.Regexp
	err     error
}

func (l *lazyRegex) get() (*regexp.Regexp, error) {
	l.once.Do(func() {
		expr := l.pattern
		if l.fold {
			expr = "(?i)" + expr
		}
		if l.re, l.err = regexp.Compile(expr); l.err != nil {
			// Reports carry this text as the rule's error message.
			l.err = fmt.Errorf("engine: regex %q: %w", l.pattern, l.err)
		}
	})
	return l.re, l.err
}

// NewMatcher prepares values under spec; a zero spec defaults to exact
// matching against any value. The values slice is never modified.
func NewMatcher(values []string, spec MatchSpec, caseInsensitive bool) Matcher {
	if spec.IsZero() {
		spec = MatchSpec{Kind: MatchExact, Quant: QuantAny}
	}
	m := Matcher{spec: spec, values: values}
	if spec.Kind == MatchRegex {
		m.regex = make([]lazyRegex, len(values))
		for i, v := range values {
			m.regex[i] = lazyRegex{pattern: v, fold: caseInsensitive}
		}
		return m
	}
	if caseInsensitive {
		m.fold = true
		m.values = make([]string, len(values))
		for i, v := range values {
			m.values[i] = strings.ToLower(v)
		}
	}
	return m
}

// Matches reports whether value matches the expected values under the
// spec. Values are tried in order, so an any-match stops at the first hit
// and an all-match at the first miss; later values (and their regexes)
// are never reached. An empty list matches nothing.
func (m *Matcher) Matches(value string) (bool, error) {
	if len(m.values) == 0 {
		return false, nil
	}
	if m.fold {
		value = strings.ToLower(value)
	}
	matched := 0
	for i, want := range m.values {
		ok, err := m.matchOne(i, value, want)
		if err != nil {
			return false, err
		}
		if ok {
			if m.spec.Quant == QuantAny {
				return true, nil
			}
			matched++
		} else if m.spec.Quant == QuantAll {
			return false, nil
		}
	}
	return m.spec.Quant == QuantAll && matched == len(m.values), nil
}

// MatchesOne reports whether value matches the i-th expected value on its
// own, under the matcher's kind and case folding.
func (m *Matcher) MatchesOne(i int, value string) (bool, error) {
	if m.fold {
		value = strings.ToLower(value)
	}
	return m.matchOne(i, value, m.values[i])
}

// matchOne matches an already folded value against want, the i-th
// operand.
func (m *Matcher) matchOne(i int, value, want string) (bool, error) {
	switch m.spec.Kind {
	case MatchExact:
		return value == want, nil
	case MatchSubstr:
		return strings.Contains(value, want), nil
	case MatchRegex:
		re, err := m.regex[i].get()
		if err != nil {
			return false, err
		}
		return re.MatchString(value), nil
	default:
		return false, fmt.Errorf("engine: unknown match kind %d", m.spec.Kind)
	}
}
