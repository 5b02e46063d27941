package engine

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"configvalidator/internal/cvl"
)

// matchSet is one side of a rule's value check — its preferred or its
// non-preferred values under their match spec — with the operands
// prepared once: case-folded for exact and substring matching, and each
// regex compiled the first time an evaluation reaches it.
type matchSet struct {
	spec   cvl.MatchSpec
	fold   bool     // case_insensitive: fold values before exact/substr matching
	values []string // folded when fold applies
	// regex holds one lazily compiled pattern per value for the regex
	// kind. Compiling on first use keeps a bad pattern an evaluation-time
	// error, raised only when a check reaches it.
	regex []lazyRegex
}

// lazyRegex compiles its pattern once, on first use, for every goroutine
// sharing the compiled rule.
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
			l.err = fmt.Errorf("engine: regex %q: %w", l.pattern, l.err)
		}
	})
	return l.re, l.err
}

// newMatchSet prepares values under spec; a zero spec defaults to exact
// matching against any value.
func newMatchSet(values []string, spec cvl.MatchSpec, caseInsensitive bool) matchSet {
	if spec.IsZero() {
		spec = cvl.MatchSpec{Kind: cvl.MatchExact, Quant: cvl.QuantAny}
	}
	m := matchSet{spec: spec, values: values}
	if spec.Kind == cvl.MatchRegex {
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

// matches reports whether value matches the set under its spec. Values
// are tried in order, so an any-match stops at the first hit and an
// all-match at the first miss; later values (and their regexes) are
// never reached.
func (m *matchSet) matches(value string) (bool, error) {
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
			if m.spec.Quant == cvl.QuantAny {
				return true, nil
			}
			matched++
		} else if m.spec.Quant == cvl.QuantAll {
			return false, nil
		}
	}
	return m.spec.Quant == cvl.QuantAll && matched == len(m.values), nil
}

func (m *matchSet) matchOne(i int, value, want string) (bool, error) {
	switch m.spec.Kind {
	case cvl.MatchExact:
		return value == want, nil
	case cvl.MatchSubstr:
		return strings.Contains(value, want), nil
	case cvl.MatchRegex:
		re, err := m.regex[i].get()
		if err != nil {
			return false, err
		}
		return re.MatchString(value), nil
	default:
		return false, fmt.Errorf("engine: unknown match kind %d", m.spec.Kind)
	}
}

// mismatch records why a value failed its rule; the report detail is
// formatted from it only when a check fails.
type mismatch uint8

const (
	matchOK mismatch = iota
	matchNonPreferred
	missPreferred
)

// detail renders the report detail for a value that failed with m.
func (m mismatch) detail(value string) string {
	if m == matchNonPreferred {
		return fmt.Sprintf("value %q matches a non-preferred value", value)
	}
	return fmt.Sprintf("value %q does not match the preferred values", value)
}

// check applies the rule's non-preferred and then preferred matchers to
// one candidate value.
func (c *compiledRule) check(value string) (mismatch, error) {
	if len(c.nonPreferred.values) > 0 {
		bad, err := c.nonPreferred.matches(value)
		if err != nil {
			return matchOK, err
		}
		if bad {
			return matchNonPreferred, nil
		}
	}
	if len(c.preferred.values) > 0 {
		good, err := c.preferred.matches(value)
		if err != nil {
			return matchOK, err
		}
		if !good {
			return missPreferred, nil
		}
	}
	return matchOK, nil
}

// checkNode applies the rule's matchers to one tree-node value. When the
// rule declares a value_separator, the value is split and every non-empty
// element must pass on its own (list-valued keys such as sshd's Ciphers
// are checked element-wise rather than as one string); the failing
// element is returned for the report detail.
func (c *compiledRule) checkNode(value string) (mismatch, string, error) {
	sep := c.rule.ValueSeparator
	if sep == "" {
		why, err := c.check(value)
		return why, value, err
	}
	for rest, more := value, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, sep)
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		if why, err := c.check(part); err != nil || why != matchOK {
			return why, part, err
		}
	}
	return matchOK, "", nil
}
