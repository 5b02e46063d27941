// Package sem lowers resolved CVL rule sets into a normalized constraint
// IR — per-(entity, lens, key) constraint sets over abstract value
// domains — and runs a fixpoint checker over that IR to find rules that
// are semantically broken even though every one of them is syntactically
// valid: jointly unsatisfiable constraints on one key (CVL401), rules
// subsumed by stricter rules (CVL402), contradictions introduced across
// an inheritance chain (CVL403), composite expressions that are
// tautologies or contradictions (CVL404/CVL405), overlapping rules that
// disagree on severity (CVL406), and value matchers that can never match
// their key's lens-declared type (CVL407).
//
// The checker reasons with the predicates the engine runs: every
// membership test that stands for a rule's value check calls the rule's
// compiled cvl.ValueCheck, and every one that stands for a schema
// constraint calls schema.Atom.Holds, so a finding can only be as wrong as
// its set algebra, never because of a second copy of CVL's semantics.
package sem

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"configvalidator/internal/schema"
)

// Set is an abstract set of configuration value strings. The zero value
// is not meaningful; use the constructors. Sets are immutable once built.
type Set struct {
	kind setKind
	// vals: kindFinite — the exact members, sorted, deduplicated.
	// kindExcept — the exact non-members.
	vals []string
	// ivs and strs: kindNumeric — disjoint, sorted intervals. The set
	// denotes every number (schema.Number) whose value lies in one of
	// ivs, and every other string that lies in one of strs in string
	// order: the order schema.Compare applies to a non-numeric cell.
	ivs  []interval[float64]
	strs []interval[string]
	// test: kindPred — a membership oracle for single values; the set
	// itself cannot be enumerated or compared.
	test func(string) bool
	// desc is a short human rendering for diagnostics.
	desc string
}

type setKind int

const (
	kindAny setKind = iota // every string
	kindEmpty
	kindFinite
	kindExcept  // complement of a finite set
	kindNumeric // numeric intervals, plus string-order ones for non-numbers
	kindPred    // opaque, membership-testable only
)

// interval is an interval of numbers, or of strings in string order, with
// optionally open or unbounded ends.
type interval[T float64 | string] struct {
	lo, hi         T // bounds; ignored when the end is unbounded
	loUnb, hiUnb   bool
	loOpen, hiOpen bool
}

func (iv interval[T]) contains(x T) bool {
	if !iv.loUnb {
		if x < iv.lo || (iv.loOpen && x == iv.lo) {
			return false
		}
	}
	if !iv.hiUnb {
		if x > iv.hi || (iv.hiOpen && x == iv.hi) {
			return false
		}
	}
	return true
}

// empty reports whether the interval provably contains nothing.
func (iv interval[T]) empty() bool {
	if iv.loUnb || iv.hiUnb {
		return false
	}
	if iv.lo > iv.hi {
		return true
	}
	return iv.lo == iv.hi && (iv.loOpen || iv.hiOpen)
}

func (iv interval[T]) String() string {
	lo, hi := "-inf", "+inf"
	lb, rb := "[", "]"
	if !iv.loUnb {
		lo = formatBound(iv.lo)
		if iv.loOpen {
			lb = "("
		}
	} else {
		lb = "("
	}
	if !iv.hiUnb {
		hi = formatBound(iv.hi)
		if iv.hiOpen {
			rb = ")"
		}
	} else {
		rb = ")"
	}
	return lb + lo + ", " + hi + rb
}

// formatBound renders a number plainly and a string quoted.
func formatBound[T float64 | string](v T) string {
	if f, ok := any(v).(float64); ok {
		return trimFloat(f)
	}
	return strconv.Quote(any(v).(string))
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// --- constructors ---

// Any returns the set of all strings.
func Any() *Set { return &Set{kind: kindAny, desc: "any value"} }

// Empty returns the empty set.
func Empty() *Set { return &Set{kind: kindEmpty, desc: "no value"} }

// Finite returns the exact set of the given values.
func Finite(values ...string) *Set {
	vals := dedupeSorted(values)
	if len(vals) == 0 {
		return Empty()
	}
	return &Set{kind: kindFinite, vals: vals, desc: renderVals(vals)}
}

// Except returns the complement of the given finite value set.
func Except(values ...string) *Set {
	vals := dedupeSorted(values)
	if len(vals) == 0 {
		return Any()
	}
	return &Set{kind: kindExcept, vals: vals, desc: "anything but " + renderVals(vals)}
}

// Numeric returns the set of numbers within the given intervals.
func Numeric(ivs ...interval[float64]) *Set { return numericRegion(ivs, nil) }

// numericRegion returns the set of numbers within ivs and of other
// strings within strs in string order.
func numericRegion(ivs []interval[float64], strs []interval[string]) *Set {
	s := &Set{kind: kindNumeric, ivs: mergeIntervals(ivs), strs: mergeIntervals(strs)}
	if len(s.ivs) == 0 && len(s.strs) == 0 {
		return Empty()
	}
	descs := make([]string, 0, len(s.ivs)+len(s.strs))
	for _, iv := range s.ivs {
		descs = append(descs, iv.String())
	}
	for i, iv := range s.strs {
		d := iv.String()
		if i == 0 {
			d = "non-numeric " + d
		}
		descs = append(descs, d)
	}
	s.desc = strings.Join(descs, " u ")
	return s
}

// Pred returns an opaque set with a membership oracle. Only Contains is
// precise; set-level comparisons against other opaque sets are unknown.
func Pred(desc string, test func(string) bool) *Set {
	return &Set{kind: kindPred, test: test, desc: desc}
}

// atLeast / atMost / exactly build single-interval numeric sets.
func atLeast(x float64, open bool) *Set {
	return Numeric(interval[float64]{lo: x, loOpen: open, hiUnb: true})
}

func atMost(x float64, open bool) *Set {
	return Numeric(interval[float64]{hi: x, hiOpen: open, loUnb: true})
}

func numRange(lo, hi float64) *Set {
	return Numeric(interval[float64]{lo: lo, hi: hi})
}

func dedupeSorted(values []string) []string {
	out := append([]string(nil), values...)
	sort.Strings(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

func renderVals(vals []string) string {
	const maxShown = 4
	quoted := make([]string, 0, len(vals))
	for i, v := range vals {
		if i == maxShown {
			quoted = append(quoted, fmt.Sprintf("... (%d values)", len(vals)))
			break
		}
		quoted = append(quoted, strconv.Quote(v))
	}
	return "{" + strings.Join(quoted, ", ") + "}"
}

// mergeIntervals sorts and coalesces overlapping or touching intervals,
// dropping empty ones.
func mergeIntervals[T float64 | string](ivs []interval[T]) []interval[T] {
	if len(ivs) == 0 {
		return nil
	}
	kept := make([]interval[T], 0, len(ivs))
	for _, iv := range ivs {
		if !iv.empty() {
			kept = append(kept, iv)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.loUnb != b.loUnb {
			return a.loUnb
		}
		if a.loUnb {
			return false
		}
		if a.lo != b.lo {
			return a.lo < b.lo
		}
		return !a.loOpen && b.loOpen
	})
	var out []interval[T]
	for _, iv := range kept {
		if len(out) == 0 {
			out = append(out, iv)
			continue
		}
		last := &out[len(out)-1]
		if intervalsTouch(*last, iv) {
			*last = hullOf(*last, iv)
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// intervalsTouch reports whether a (which starts no later than b) overlaps
// or is adjacent to b closely enough to merge. Adjacency at a shared
// closed endpoint merges; an open/open gap at one point does not.
func intervalsTouch[T float64 | string](a, b interval[T]) bool {
	if a.hiUnb || b.loUnb {
		return true
	}
	if a.hi > b.lo {
		return true
	}
	if a.hi == b.lo {
		return !(a.hiOpen && b.loOpen)
	}
	// Merge integer-adjacent closed intervals like [1,9] and [10,99]:
	// between consecutive integers no decimal configuration value is
	// expected, but numerically 9.5 would separate them, so stay exact
	// and do not merge.
	return false
}

func hullOf[T float64 | string](a, b interval[T]) interval[T] {
	out := a
	if b.loUnb || (!a.loUnb && !b.loUnb && (b.lo < a.lo || (b.lo == a.lo && !b.loOpen))) {
		out.lo, out.loUnb, out.loOpen = b.lo, b.loUnb, b.loOpen
	}
	if b.hiUnb || (!a.hiUnb && !b.hiUnb && (b.hi > a.hi || (b.hi == a.hi && !b.hiOpen))) {
		out.hi, out.hiUnb, out.hiOpen = b.hi, b.hiUnb, b.hiOpen
	}
	return out
}

// --- queries ---

// Describe returns a short human rendering of the set.
func (s *Set) Describe() string { return s.desc }

// ProvablyEmpty reports whether the set is certainly empty. Opaque sets
// are never provably empty.
func (s *Set) ProvablyEmpty() bool {
	switch s.kind {
	case kindEmpty:
		return true
	case kindFinite:
		return len(s.vals) == 0
	case kindNumeric:
		return len(s.ivs) == 0 && len(s.strs) == 0
	default:
		return false
	}
}

// Contains reports whether v is a member. known is false when the set
// cannot decide (never happens for the current kinds, but callers must
// check it so new kinds stay safe).
func (s *Set) Contains(v string) (member, known bool) {
	switch s.kind {
	case kindAny:
		return true, true
	case kindEmpty:
		return false, true
	case kindFinite:
		return sortedContains(s.vals, v), true
	case kindExcept:
		return !sortedContains(s.vals, v), true
	case kindNumeric:
		if f, ok := schema.Number(v); ok {
			return anyContains(s.ivs, f), true
		}
		return anyContains(s.strs, v), true
	case kindPred:
		return s.test(v), true
	default:
		return false, false
	}
}

func anyContains[T float64 | string](ivs []interval[T], x T) bool {
	for _, iv := range ivs {
		if iv.contains(x) {
			return true
		}
	}
	return false
}

func sortedContains(vals []string, v string) bool {
	i := sort.SearchStrings(vals, v)
	return i < len(vals) && vals[i] == v
}

// Intersect returns the intersection and whether the result is exact.
// When exact is false the returned set over-approximates the true
// intersection (it may contain extra elements, never fewer), so a
// non-empty inexact result proves nothing.
func (s *Set) Intersect(o *Set) (result *Set, exact bool) {
	// Normalize: handle the easy absorbing cases first.
	if s.kind == kindEmpty || o.kind == kindEmpty {
		return Empty(), true
	}
	if s.kind == kindAny {
		return o, true
	}
	if o.kind == kindAny {
		return s, true
	}
	// A finite side makes everything exact: filter by membership.
	if s.kind == kindFinite {
		return filterFinite(s.vals, o), true
	}
	if o.kind == kindFinite {
		return filterFinite(o.vals, s), true
	}
	switch {
	case s.kind == kindExcept && o.kind == kindExcept:
		union := append(append([]string(nil), s.vals...), o.vals...)
		return Except(union...), true
	case s.kind == kindNumeric && o.kind == kindNumeric:
		return numericRegion(intersectAll(s.ivs, o.ivs), intersectAll(s.strs, o.strs)), true
	case s.kind == kindExcept && o.kind == kindNumeric:
		return o, false // numeric minus finitely many points: still infinite-ish, approximate by the numeric side
	case s.kind == kindNumeric && o.kind == kindExcept:
		return s, false
	case s.kind == kindPred && o.kind == kindPred:
		// Membership stays precise (both oracles must accept); set-level
		// queries on the result remain unknown, so exactness is moot —
		// report inexact to keep disjointness proofs conservative.
		a, b := s, o
		return Pred(a.desc+" and "+b.desc, func(v string) bool {
			m1, k1 := a.Contains(v)
			m2, k2 := b.Contains(v)
			return k1 && k2 && m1 && m2
		}), false
	default:
		// One opaque side: approximate by the non-opaque one.
		if s.kind != kindPred {
			return s, false
		}
		return o, false
	}
}

// Union returns the union and whether it is exact. Inexact unions
// over-approximate membership only through their operands; the opaque
// fallback answers membership precisely but supports no set-level
// queries.
func (s *Set) Union(o *Set) (result *Set, exact bool) {
	switch {
	case s.kind == kindAny || o.kind == kindAny:
		return Any(), true
	case s.kind == kindEmpty:
		return o, true
	case o.kind == kindEmpty:
		return s, true
	case s.kind == kindFinite && o.kind == kindFinite:
		return Finite(append(append([]string(nil), s.vals...), o.vals...)...), true
	case s.kind == kindNumeric && o.kind == kindNumeric:
		return numericRegion(append(append([]interval[float64](nil), s.ivs...), o.ivs...),
			append(append([]interval[string](nil), s.strs...), o.strs...)), true
	case s.kind == kindExcept && o.kind == kindFinite:
		var kept []string
		for _, v := range s.vals {
			if !sortedContains(o.vals, v) {
				kept = append(kept, v)
			}
		}
		return Except(kept...), true
	case s.kind == kindFinite && o.kind == kindExcept:
		return o.Union(s)
	case s.kind == kindExcept && o.kind == kindExcept:
		var both []string
		for _, v := range s.vals {
			if sortedContains(o.vals, v) {
				both = append(both, v)
			}
		}
		return Except(both...), true
	default:
		a, b := s, o
		return Pred(a.desc+" or "+b.desc, func(v string) bool {
			m1, k1 := a.Contains(v)
			m2, k2 := b.Contains(v)
			return (k1 && m1) || (k2 && m2)
		}), false
	}
}

func filterFinite(vals []string, o *Set) *Set {
	var kept []string
	for _, v := range vals {
		if member, known := o.Contains(v); known && member {
			kept = append(kept, v)
		}
	}
	return Finite(kept...)
}

// intersectAll intersects two interval unions pairwise.
func intersectAll[T float64 | string](as, bs []interval[T]) []interval[T] {
	var out []interval[T]
	for _, a := range as {
		for _, b := range bs {
			if iv, ok := intersectIntervals(a, b); ok {
				out = append(out, iv)
			}
		}
	}
	return out
}

func intersectIntervals[T float64 | string](a, b interval[T]) (interval[T], bool) {
	out := a
	if !b.loUnb && (out.loUnb || b.lo > out.lo || (b.lo == out.lo && b.loOpen)) {
		out.lo, out.loUnb, out.loOpen = b.lo, false, b.loOpen || (b.lo == a.lo && a.loOpen)
	}
	if !b.hiUnb && (out.hiUnb || b.hi < out.hi || (b.hi == out.hi && b.hiOpen)) {
		out.hi, out.hiUnb, out.hiOpen = b.hi, false, b.hiOpen || (b.hi == a.hi && a.hiOpen)
	}
	if out.empty() {
		return interval[T]{}, false
	}
	return out, true
}

// ProvablyDisjoint reports whether the two sets certainly share no
// element.
func (s *Set) ProvablyDisjoint(o *Set) bool {
	inter, exact := s.Intersect(o)
	return exact && inter.ProvablyEmpty()
}

// SubsetOf reports whether the set is provably a subset of o. False
// means "not proven", not "disproven".
func (s *Set) SubsetOf(o *Set) bool {
	if s.kind == kindEmpty || o.kind == kindAny {
		return true
	}
	switch s.kind {
	case kindFinite:
		for _, v := range s.vals {
			member, known := o.Contains(v)
			if !known || !member {
				return false
			}
		}
		return true
	case kindNumeric:
		// Numbers and other strings compare differently, so each side
		// must be covered on its own.
		return o.kind == kindNumeric && allCovered(s.ivs, o.ivs) && allCovered(s.strs, o.strs)
	case kindExcept:
		// except(A) subset of except(B) iff B subset of A.
		if o.kind != kindExcept {
			return false
		}
		for _, v := range o.vals {
			if !sortedContains(s.vals, v) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func allCovered[T float64 | string](ivs, cover []interval[T]) bool {
	for _, a := range ivs {
		if !intervalCovered(a, cover) {
			return false
		}
	}
	return true
}

// intervalCovered reports whether a is contained in the union of cover.
// The cover is disjoint and sorted, so a must fit inside one interval
// (merging has already coalesced touching neighbors).
func intervalCovered[T float64 | string](a interval[T], cover []interval[T]) bool {
	for _, c := range cover {
		loOK := c.loUnb || (!a.loUnb && (a.lo > c.lo || (a.lo == c.lo && (a.loOpen || !c.loOpen))))
		hiOK := c.hiUnb || (!a.hiUnb && (a.hi < c.hi || (a.hi == c.hi && (a.hiOpen || !c.hiOpen))))
		if loOK && hiOK {
			return true
		}
	}
	return false
}

// Witness returns a concrete value in the intersection of the two sets,
// when one can be produced. Used to make overlap findings concrete.
func (s *Set) Witness(o *Set) (string, bool) {
	if s.kind == kindFinite {
		for _, v := range s.vals {
			if member, known := o.Contains(v); known && member {
				return v, true
			}
		}
		return "", false
	}
	if o.kind == kindFinite {
		return o.Witness(s)
	}
	if s.kind == kindNumeric && o.kind == kindNumeric {
		inter, _ := s.Intersect(o)
		if inter.kind == kindNumeric && len(inter.ivs) > 0 {
			return samplePoint(inter.ivs[0])
		}
	}
	return "", false
}

// samplePoint picks an integer representative from a non-empty interval
// when possible.
func samplePoint(iv interval[float64]) (string, bool) {
	switch {
	case !iv.loUnb:
		x := math.Ceil(iv.lo)
		if iv.loOpen && x == iv.lo {
			x++
		}
		if !iv.hiUnb && (x > iv.hi || (x == iv.hi && iv.hiOpen)) {
			return "", false
		}
		return trimFloat(x), true
	case !iv.hiUnb:
		x := math.Floor(iv.hi)
		if iv.hiOpen && x == iv.hi {
			x--
		}
		return trimFloat(x), true
	default:
		return "0", true
	}
}

// Complement returns the complement and whether it is exact. Inexact
// complements over-approximate (they may contain extra elements), which
// keeps emptiness proofs sound.
func (s *Set) Complement() (result *Set, exact bool) {
	switch s.kind {
	case kindAny:
		return Empty(), true
	case kindEmpty:
		return Any(), true
	case kindFinite:
		return Except(s.vals...), true
	case kindExcept:
		return Finite(s.vals...), true
	default:
		// Complement of a numeric or opaque set includes every
		// non-numeric string; approximate by the universe.
		return Any(), false
	}
}
