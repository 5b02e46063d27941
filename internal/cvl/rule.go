// Package cvl implements the Configuration Validation Language: the
// declarative, YAML-based rule language that is the paper's core
// contribution (§3.2). It provides rule and manifest parsing, the
// 46-keyword vocabulary, the five rule types (config tree, schema, path,
// script, composite), rule-file inheritance with overrides and disables,
// tag filtering, and the composite-rule expression language of Listing 1.
package cvl

import (
	"fmt"
	"strings"
)

// RuleType enumerates the five CVL rule types (§3.2 "Keywords Specific to
// Rule-Types").
type RuleType int

// Rule types.
const (
	// TypeTree validates hierarchical key-value configuration (Listing 2).
	TypeTree RuleType = iota + 1
	// TypeSchema validates SQL-table-like configuration (Listing 3).
	TypeSchema
	// TypePath validates path existence, ownership, permissions (Listing 4).
	TypePath
	// TypeScript validates runtime state extracted by a crawler plugin.
	TypeScript
	// TypeComposite aggregates rule results across entities (Listing 1).
	TypeComposite
)

// String returns the rule type name used in manifests and reports.
func (t RuleType) String() string {
	switch t {
	case TypeTree:
		return "config_tree"
	case TypeSchema:
		return "schema"
	case TypePath:
		return "path"
	case TypeScript:
		return "script"
	case TypeComposite:
		return "composite"
	default:
		return fmt.Sprintf("RuleType(%d)", int(t))
	}
}

// ParseRuleType converts a rule type name back to a RuleType.
func ParseRuleType(s string) (RuleType, error) {
	switch s {
	case "config_tree", "tree":
		return TypeTree, nil
	case "schema":
		return TypeSchema, nil
	case "path":
		return TypePath, nil
	case "script":
		return TypeScript, nil
	case "composite":
		return TypeComposite, nil
	default:
		return 0, fmt.Errorf("cvl: unknown rule type %q", s)
	}
}

// MatchKind is how a candidate value is compared with an expected value.
type MatchKind int

// Match kinds.
const (
	// MatchExact requires string equality.
	MatchExact MatchKind = iota + 1
	// MatchSubstr requires the expected value to occur as a substring.
	MatchSubstr
	// MatchRegex interprets the expected value as a regular expression.
	MatchRegex
)

// MatchQuant is how many expected values must match.
type MatchQuant int

// Match quantifiers.
const (
	// QuantAny passes when at least one expected value matches.
	QuantAny MatchQuant = iota + 1
	// QuantAll passes only when every expected value matches.
	QuantAll
)

// MatchSpec is a parsed "<kind>,<quant>" matcher such as "substr ,any" from
// Listing 2. The zero value means "unspecified"; the engine defaults it per
// context.
type MatchSpec struct {
	Kind  MatchKind
	Quant MatchQuant
}

// IsZero reports whether the spec was left unspecified.
func (m MatchSpec) IsZero() bool { return m.Kind == 0 && m.Quant == 0 }

// String renders the spec in CVL notation.
func (m MatchSpec) String() string {
	if m.IsZero() {
		return ""
	}
	kind := "exact"
	switch m.Kind {
	case MatchSubstr:
		kind = "substr"
	case MatchRegex:
		kind = "regex"
	}
	quant := "all"
	if m.Quant == QuantAny {
		quant = "any"
	}
	return kind + "," + quant
}

// ParseMatchSpec parses CVL matcher notation: "exact,all", "substr ,any",
// "regex,any". Whitespace around the comma is tolerated, as in the paper's
// listings.
func ParseMatchSpec(s string) (MatchSpec, error) {
	kind, quant, ok := strings.Cut(s, ",")
	if !ok {
		return MatchSpec{}, fmt.Errorf("cvl: match spec %q must be '<kind>,<quantifier>'", s)
	}
	var spec MatchSpec
	switch strings.TrimSpace(kind) {
	case "exact":
		spec.Kind = MatchExact
	case "substr":
		spec.Kind = MatchSubstr
	case "regex":
		spec.Kind = MatchRegex
	default:
		return MatchSpec{}, fmt.Errorf("cvl: unknown match kind %q (want exact, substr, or regex)", kind)
	}
	switch strings.TrimSpace(quant) {
	case "any":
		spec.Quant = QuantAny
	case "all":
		spec.Quant = QuantAll
	default:
		return MatchSpec{}, fmt.Errorf("cvl: unknown match quantifier %q (want any or all)", quant)
	}
	return spec, nil
}

// Rule is one parsed CVL rule of any type. Fields irrelevant to the rule's
// type are zero.
type Rule struct {
	// Type is the rule type, inferred from the name keyword or declared
	// with rule_type.
	Type RuleType
	// Name identifies the rule: the config key for tree rules, the check
	// name for schema/script rules, the path for path rules.
	Name string
	// Description is the human-readable rule description.
	Description string
	// Tags are compliance/filter tags such as "#cis" or "#cisubuntu14.04_2.1".
	Tags []string
	// Severity is an optional severity label (low/medium/high).
	Severity string
	// SuggestedAction is the remediation hint shown on failure (§3.1
	// "Output Processing").
	SuggestedAction string
	// Disabled removes the rule (typically set by an inheriting file).
	Disabled bool
	// Override marks the rule as intentionally replacing a parent rule.
	Override bool
	// AppliesTo restricts the rule to entity types (host, image, ...).
	AppliesTo []string

	// Value matching, shared by tree, schema, and script rules.
	PreferredValue        []string
	NonPreferredValue     []string
	PreferredMatch        MatchSpec
	NonPreferredMatch     MatchSpec
	MatchedDescription    string
	NotMatchedDescription string
	NotPresentDescription string

	// Tree rule fields.
	ConfigPath          []string
	FileContext         []string
	RequireOtherConfigs []string
	ValueSeparator      string
	CaseInsensitive     bool
	Occurrence          string // "any" (default), "all", or "first"
	AbsentPass          bool

	// Schema rule fields.
	QueryConstraints      string
	QueryConstraintsValue []string
	QueryColumns          []string
	ExpectRows            string // "", "0", "N", ">=N", "<=N"

	// Path rule fields.
	Ownership     string // "uid:gid"
	Permission    int    // exact octal permission; -1 when unset
	MaxPermission int    // at-most octal permission; -1 when unset
	Exists        *bool  // nil: must exist (default); otherwise asserted

	// Script rule fields.
	ScriptFeature string

	// Composite rule fields.
	CompositeExpr *CompositeExpr

	// Source is the rule file the rule came from, for diagnostics.
	Source string
	// Line is the 1-based position hint within the source, when known.
	Line int
}

// HasTag reports whether the rule carries the tag (exact match, including
// any leading '#').
func (r *Rule) HasTag(tag string) bool {
	for _, t := range r.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// MatchesTags reports whether the rule passes a tag filter: an empty
// filter passes every rule, otherwise the rule must carry at least one of
// the tags.
func (r *Rule) MatchesTags(tags []string) bool {
	if len(tags) == 0 {
		return true
	}
	for _, t := range tags {
		if r.HasTag(t) {
			return true
		}
	}
	return false
}

// AppliesToType reports whether the rule applies to the named entity type:
// a rule without an applies_to restriction applies to every type.
func (r *Rule) AppliesToType(entityType string) bool {
	if len(r.AppliesTo) == 0 {
		return true
	}
	for _, t := range r.AppliesTo {
		if t == entityType {
			return true
		}
	}
	return false
}

// Key returns the identity used for inheritance overrides: type + name.
func (r *Rule) Key() string {
	return r.Type.String() + "/" + r.Name
}

// RuleFile is a parsed CVL rule file.
type RuleFile struct {
	// Path is where the file was loaded from.
	Path string
	// Parent is the optional parent rule file for inheritance.
	Parent string
	// Rules holds the file's rules in order.
	Rules []*Rule
}

// Manifest describes the entities to validate (§3.2 "Manifest", Listing 5).
type Manifest struct {
	// Entries are the per-entity manifest entries in file order.
	Entries []*ManifestEntry
}

// ManifestEntry is one entity stanza of a manifest.
type ManifestEntry struct {
	// Name is the entity key, e.g. "nginx" or "sysctl".
	Name string
	// Enabled gates whether the entity is validated.
	Enabled bool
	// ConfigSearchPaths are the locations to search for config files in.
	ConfigSearchPaths []string
	// CVLFile is the rule specification file for the entity.
	CVLFile string
	// RuleType optionally declares the dominant rule type for the entity.
	RuleType string
	// Tags optionally restrict which rules run (any-match).
	Tags []string
}

// Entry returns the manifest entry for the named entity.
func (m *Manifest) Entry(name string) (*ManifestEntry, bool) {
	for _, e := range m.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// EnabledEntries returns the entries with Enabled set, in order.
func (m *Manifest) EnabledEntries() []*ManifestEntry {
	out := make([]*ManifestEntry, 0, len(m.Entries))
	for _, e := range m.Entries {
		if e.Enabled {
			out = append(out, e)
		}
	}
	return out
}
