package analysis

import (
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"configvalidator/internal/cvl"
	"configvalidator/internal/yaml"
)

// ruleEntry is one rule mapping within a file, with its parse outcome.
type ruleEntry struct {
	file string
	m    *yaml.Map
	rule *cvl.Rule // nil when the mapping failed to parse
}

func (e *ruleEntry) start() yaml.Pos { return e.m.Start() }

// keyPos returns the position of key in the rule mapping, falling back to
// the rule's start.
func (e *ruleEntry) keyPos(key string) yaml.Pos {
	if p := e.m.KeyPos(key); !p.IsZero() {
		return p
	}
	return e.m.Start()
}

// fileInfo is the analyzer's view of one rule file.
type fileInfo struct {
	path      string
	parent    string // raw parent_cvl_file reference; "" when none
	parentPos yaml.Pos
	rules     []*ruleEntry

	// Inheritance resolution state.
	state     int // 0 unvisited, 1 visiting, 2 resolved
	effective map[string]*ruleEntry
}

// manEntity is one entity stanza of a manifest.
type manEntity struct {
	manifest string
	name     string
	namePos  yaml.Pos
	enabled  bool
	cvlFile  string
	cvlPos   yaml.Pos
	tags     []string
	tagsPos  yaml.Pos
}

type analyzer struct {
	p         *Project
	opts      Options
	diags     []Diagnostic
	files     map[string]*fileInfo
	ruleFiles []string // rule-file paths in project order
	manifests []string // manifest paths in project order
	entities  []*manEntity

	// replacements records every (inherited rule, replacing rule) pair
	// found while resolving inheritance, for the cross-chain checks
	// (CVL205 across files, CVL403).
	replacements []replacePair
	// entityFiles maps entity name → resolved rule-file chain, filled by
	// checkComposites and reused by the semantic pass.
	entityFiles map[string][]string
}

// replacePair is one inheritance replacement: child's rule entry took the
// place of the parent's for the same rule key.
type replacePair struct {
	parent, child *ruleEntry
}

func newAnalyzer(p *Project, opts Options) *analyzer {
	a := &analyzer{p: p, opts: opts, files: map[string]*fileInfo{}}
	for _, path := range p.order {
		if p.manifest[path] {
			a.manifests = append(a.manifests, path)
		} else {
			a.ruleFiles = append(a.ruleFiles, path)
		}
	}
	return a
}

// report appends a diagnostic with the code's default severity.
func (a *analyzer) report(code, file string, pos yaml.Pos, rule, format string, args ...any) {
	sev := severityOf(code)
	if code == CodeMissingParent && a.opts.ExternalParents {
		sev = SevWarning
	}
	line, col := posOr(pos)
	a.diags = append(a.diags, Diagnostic{
		Code:     code,
		Severity: sev,
		File:     file,
		Line:     line,
		Col:      col,
		Rule:     rule,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// --- pass 1: per-file parsing ---

func (a *analyzer) parseRuleFiles() {
	for _, path := range a.ruleFiles {
		a.files[path] = a.parseRuleFile(path, a.p.files[path])
	}
}

func (a *analyzer) parseRuleFile(path string, content []byte) *fileInfo {
	fi := &fileInfo{path: path}
	docs, err := yaml.DecodeAll(content)
	if err != nil {
		var se *yaml.SyntaxError
		if errors.As(err, &se) {
			a.report(CodeSyntax, path, yaml.Pos{Line: se.Line, Col: se.Col}, "", "%s", se.Msg)
		} else {
			a.report(CodeSyntax, path, yaml.Pos{}, "", "%v", err)
		}
		return fi
	}
	var ruleMaps []*yaml.Map
	for _, doc := range docs {
		switch v := doc.(type) {
		case nil:
		case *yaml.Map:
			ruleMaps = append(ruleMaps, v)
		case []any:
			for i, item := range v {
				if m, ok := item.(*yaml.Map); ok {
					ruleMaps = append(ruleMaps, m)
				} else {
					a.report(CodeNotMapping, path, yaml.Pos{}, "", "sequence element %d is %T, want a mapping", i+1, item)
				}
			}
		default:
			a.report(CodeNotMapping, path, yaml.Pos{}, "", "document is %T, want a mapping", doc)
		}
	}
	seen := map[string]yaml.Pos{}
	for _, m := range ruleMaps {
		if m.Len() == 1 && m.Has("parent_cvl_file") {
			pos := m.KeyPos("parent_cvl_file")
			parent, ok := m.String("parent_cvl_file")
			switch {
			case !ok:
				a.report(CodeParentNotString, path, pos, "", "parent_cvl_file must be a string")
			case fi.parent != "":
				a.report(CodeDuplicateParent, path, pos, "", "duplicate parent_cvl_file (already inherits %q)", fi.parent)
			default:
				fi.parent, fi.parentPos = parent, pos
			}
			continue
		}
		entry := a.checkRuleMap(path, m)
		fi.rules = append(fi.rules, entry)
		if entry.rule == nil {
			continue
		}
		key := entry.rule.Key()
		if first, dup := seen[key]; dup {
			a.report(CodeDuplicateRule, path, entry.start(), entry.rule.Name,
				"duplicate rule (same type and name); first defined at line %d", first.Line)
		} else {
			seen[key] = entry.start()
		}
	}
	return fi
}

// ruleNameOf extracts the rule's name for attribution even when the full
// parse fails.
func ruleNameOf(m *yaml.Map) string {
	for _, key := range []string{"config_name", "config_schema_name", "path_name", "script_name", "composite_rule_name"} {
		if s, ok := m.String(key); ok {
			return s
		}
	}
	return ""
}

// checkRuleMap validates one rule mapping: unknown keywords and
// wrong-group keywords key-by-key (positioned at the offending key), then
// the full semantic parse.
func (a *analyzer) checkRuleMap(path string, m *yaml.Map) *ruleEntry {
	entry := &ruleEntry{file: path, m: m}
	name := ruleNameOf(m)
	broken := false
	for _, key := range m.Keys() {
		if _, known := cvl.Keywords[key]; !known {
			msg := fmt.Sprintf("unknown keyword %q", key)
			if s := cvl.SuggestKeyword(key); s != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", s)
			}
			a.report(CodeUnknownKeyword, path, m.KeyPos(key), name, "%s", msg)
			broken = true
		}
	}
	ruleType, err := cvl.DetectRuleType(m)
	if err != nil {
		if !broken {
			a.report(CodeInvalidRule, path, m.Start(), name, "%v", err)
		}
		return entry
	}
	allowed := cvl.AllowedGroups(ruleType)
	for _, key := range m.Keys() {
		if group, known := cvl.Keywords[key]; known && !allowed[group] {
			a.report(CodeWrongGroup, path, m.KeyPos(key), name,
				"keyword %q belongs to %s rules, not %s rules", key, group, ruleType)
			broken = true
		}
	}
	if broken {
		return entry
	}
	rule, err := cvl.ParseRule(m)
	if err != nil {
		pos := m.Start()
		if key := offendingKeyword(err.Error()); key != "" && !m.KeyPos(key).IsZero() {
			pos = m.KeyPos(key)
		}
		a.report(CodeInvalidRule, path, pos, name, "%v", err)
		return entry
	}
	rule.Source = path
	rule.Line = m.Start().Line
	entry.rule = rule
	return entry
}

// offendingKeyword extracts the keyword named in a cvl.ParseRule error of
// the form `keyword "x": ...`, so the diagnostic can point at that key.
func offendingKeyword(msg string) string {
	const prefix = `keyword "`
	if !strings.HasPrefix(msg, prefix) {
		return ""
	}
	rest := msg[len(prefix):]
	end := strings.IndexByte(rest, '"')
	if end < 0 {
		return ""
	}
	return rest[:end]
}

// --- pass 2: manifests ---

var manifestKeys = []string{"enabled", "config_search_paths", "cvl_file", "rule_type", "tags"}

func (a *analyzer) parseManifests() {
	owner := map[string]string{} // entity name → manifest that defined it
	for _, path := range a.manifests {
		a.parseManifest(path, a.p.files[path], owner)
	}
}

func (a *analyzer) parseManifest(path string, content []byte, owner map[string]string) {
	doc, err := yaml.Decode(content)
	if err != nil {
		var se *yaml.SyntaxError
		if errors.As(err, &se) {
			a.report(CodeSyntax, path, yaml.Pos{Line: se.Line, Col: se.Col}, "", "%s", se.Msg)
		} else {
			a.report(CodeSyntax, path, yaml.Pos{}, "", "%v", err)
		}
		return
	}
	if doc == nil {
		return
	}
	root, ok := doc.(*yaml.Map)
	if !ok {
		a.report(CodeNotMapping, path, yaml.Pos{}, "", "manifest document is %T, want a mapping of entities", doc)
		return
	}
	for _, name := range root.Keys() {
		namePos := root.KeyPos(name)
		body, ok := root.Map(name)
		if !ok {
			a.report(CodeBadManifest, path, namePos, "", "entity %q must be a mapping", name)
			continue
		}
		ent := &manEntity{manifest: path, name: name, namePos: namePos, enabled: true}
		for _, key := range body.Keys() {
			pos := body.KeyPos(key)
			value, _ := body.Get(key)
			var err error
			switch key {
			case "enabled":
				err = asBool(value, &ent.enabled)
			case "config_search_paths":
				var paths []string
				err = asStringSlice(value, &paths)
			case "cvl_file":
				if err = asString(value, &ent.cvlFile); err == nil {
					ent.cvlPos = pos
				}
			case "parent_cvl_file":
				// Scans never read the key; cvl.ParseManifest rejects it.
				a.report(CodeBadManifest, path, pos, "", "entity %q: parent_cvl_file belongs in the rule file, not the manifest", name)
				continue
			case "rule_type":
				var rt string
				if err = asString(value, &rt); err == nil {
					_, err = cvl.ParseRuleType(rt)
				}
			case "tags":
				if err = asStringSlice(value, &ent.tags); err == nil {
					ent.tagsPos = pos
				}
			default:
				msg := fmt.Sprintf("unknown manifest key %q", key)
				if s := suggestFrom(key, manifestKeys); s != "" {
					msg += fmt.Sprintf(" (did you mean %q?)", s)
				}
				a.report(CodeBadManifest, path, pos, "", "entity %q: %s", name, msg)
				continue
			}
			if err != nil {
				a.report(CodeBadManifest, path, pos, "", "entity %q: key %q: %v", name, key, err)
			}
		}
		if ent.cvlFile == "" {
			a.report(CodeBadManifest, path, namePos, "", "entity %q missing cvl_file", name)
		}
		if prev, dup := owner[name]; dup {
			a.report(CodeDuplicateEntity, path, namePos, "", "entity %q already defined in %s", name, prev)
		} else {
			owner[name] = path
		}
		a.entities = append(a.entities, ent)
	}
}

// suggestFrom proposes the closest candidate within edit distance 2.
func suggestFrom(key string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if d := editDistance(key, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// --- pass 3: inheritance graph ---

func (a *analyzer) resolveInheritance() {
	for _, path := range a.ruleFiles {
		a.effective(path)
	}
}

// effective resolves a file's inheritance chain and returns its effective
// rule set (key → defining entry), reporting missing parents, cycles,
// dead overrides/disables, and silent shadowing along the way.
func (a *analyzer) effective(path string) map[string]*ruleEntry {
	fi := a.files[path]
	if fi == nil {
		return nil
	}
	if fi.state == 2 {
		return fi.effective
	}
	fi.state = 1
	var parentEff map[string]*ruleEntry
	if fi.parent != "" {
		target, found := a.p.resolveRef(path, fi.parent)
		pfi := a.files[target]
		switch {
		case !found || pfi == nil:
			a.report(CodeMissingParent, path, fi.parentPos, "",
				"parent rule file %q not found in project", fi.parent)
		case pfi.state == 1:
			a.report(CodeCycle, path, fi.parentPos, "",
				"inheritance cycle: %q inherits %q, which (transitively) inherits it back", path, fi.parent)
		default:
			parentEff = a.effective(target)
		}
	}
	eff := make(map[string]*ruleEntry, len(parentEff)+len(fi.rules))
	for k, v := range parentEff {
		eff[k] = v
	}
	seenHere := map[string]bool{}
	for _, e := range fi.rules {
		if e.rule == nil {
			continue
		}
		key := e.rule.Key()
		inherited, inParent := parentEff[key]
		switch {
		case e.rule.Disabled:
			if !inParent {
				a.report(CodeDeadDisabled, path, e.start(), e.rule.Name,
					"disabled rule matches no inherited rule; nothing to disable")
			}
			delete(eff, key)
		case inParent && !e.rule.Override && !seenHere[key]:
			a.report(CodeShadowed, path, e.start(), e.rule.Name,
				"silently shadows the rule inherited from %s; add override: true to make the replacement explicit", inherited.file)
			a.replacements = append(a.replacements, replacePair{parent: inherited, child: e})
			eff[key] = e
		case !inParent && e.rule.Override:
			a.report(CodeDeadOverride, path, e.start(), e.rule.Name,
				"marked override: true but no inherited rule matches")
			eff[key] = e
		default:
			if inParent {
				a.replacements = append(a.replacements, replacePair{parent: inherited, child: e})
			}
			eff[key] = e
		}
		seenHere[key] = true
	}
	fi.state = 2
	fi.effective = eff
	return eff
}

// --- pass 4: per-rule semantic checks ---

func (a *analyzer) checkRules() {
	for _, path := range a.ruleFiles {
		for _, e := range a.files[path].rules {
			if e.rule != nil {
				a.checkRuleSemantics(e)
				// Disable stubs exist only to suppress an inherited rule;
				// they are exempt from the documentation style checks.
				if !e.rule.Disabled {
					a.checkRuleStyle(e)
				}
			}
		}
	}
}

func (a *analyzer) checkRuleSemantics(e *ruleEntry) {
	r := e.rule
	path := e.file
	if r.PreferredMatch.Kind == cvl.MatchRegex {
		a.checkRegexes(e, "preferred_value", r.PreferredValue)
	}
	if r.NonPreferredMatch.Kind == cvl.MatchRegex {
		a.checkRegexes(e, "non_preferred_value", r.NonPreferredValue)
	}
	// A value in both lists under exact matching can never pass: the
	// non-preferred check rejects what the preferred list demands.
	if exactish(r.PreferredMatch) && exactish(r.NonPreferredMatch) {
		nonPref := cvl.NewMatcher(r.NonPreferredValue, r.NonPreferredMatch, r.CaseInsensitive)
		for _, v := range r.PreferredValue {
			if rejected, _ := nonPref.Matches(v); rejected {
				a.report(CodeContradiction, path, e.keyPos("preferred_value"), r.Name,
					"value %q is listed as both preferred and non-preferred; the rule can never pass on it", v)
			}
		}
	}
	if !r.PreferredMatch.IsZero() && len(r.PreferredValue) == 0 {
		a.report(CodeMatchWithoutVal, path, e.keyPos("preferred_value_match"), r.Name,
			"preferred_value_match without preferred_value has no effect")
	}
	if !r.NonPreferredMatch.IsZero() && len(r.NonPreferredValue) == 0 {
		a.report(CodeMatchWithoutVal, path, e.keyPos("non_preferred_value_match"), r.Name,
			"non_preferred_value_match without non_preferred_value has no effect")
	}
	if r.Type == cvl.TypePath && !strings.HasPrefix(r.Name, "/") {
		a.report(CodeRelativePath, path, e.keyPos("path_name"), r.Name,
			"path rule name %q is not an absolute path; path rules address filesystem locations", r.Name)
	}
}

func exactish(m cvl.MatchSpec) bool {
	return m.IsZero() || m.Kind == cvl.MatchExact
}

func (a *analyzer) checkRegexes(e *ruleEntry, key string, values []string) {
	for _, v := range values {
		if _, err := regexp.Compile(v); err != nil {
			a.report(CodeBadRegex, e.file, e.keyPos(key), e.rule.Name, "invalid regular expression %q: %v", v, err)
		}
	}
}

// checkRuleStyle reports the maintainability warnings (CVL5xx): missing
// descriptions, tags and outcome texts, and implicit match specs.
func (a *analyzer) checkRuleStyle(e *ruleEntry) {
	r := e.rule
	path := e.file
	if r.Description == "" {
		a.report(CodeMissingDescription, path, e.start(), r.Name, "missing description")
	}
	if len(r.Tags) == 0 {
		a.report(CodeMissingTags, path, e.start(), r.Name, "missing tags (add a compliance tag such as \"#cis\")")
	}
	missingOutput := func(keyword string) {
		a.report(CodeMissingOutputDesc, path, e.start(), r.Name, "missing %s", keyword)
	}
	switch r.Type {
	case cvl.TypeTree, cvl.TypeScript:
		if len(r.PreferredValue) > 0 && r.NotMatchedDescription == "" {
			missingOutput("not_matched_preferred_value_description")
		}
		if r.MatchedDescription == "" {
			missingOutput("matched_description")
		}
		if r.Type == cvl.TypeTree && !r.AbsentPass && r.NotPresentDescription == "" {
			missingOutput("not_present_description")
		}
	case cvl.TypeSchema, cvl.TypeComposite:
		if r.MatchedDescription == "" {
			missingOutput("matched_description")
		}
	}
	if len(r.PreferredValue) > 0 && r.PreferredMatch.IsZero() {
		a.report(CodeImplicitMatch, path, e.keyPos("preferred_value"), r.Name,
			"preferred_value without preferred_value_match (defaults to exact,any)")
	}
	if len(r.NonPreferredValue) > 0 && r.NonPreferredMatch.IsZero() {
		a.report(CodeImplicitMatch, path, e.keyPos("non_preferred_value"), r.Name,
			"non_preferred_value without non_preferred_value_match (defaults to exact,any)")
	}
}

// --- pass 5: cross-file composite checks ---

// entityRuleNames returns the rule names reachable from an entity's
// manifest entry: its cvl_file chain plus any manifest-level parent.
func (a *analyzer) entityRuleNames(files []string) map[string]bool {
	names := map[string]bool{}
	for _, f := range files {
		for _, e := range a.effective(f) {
			names[e.rule.Name] = true
		}
	}
	return names
}

func (a *analyzer) checkComposites() {
	if len(a.entities) == 0 {
		return // single-file mode: no entity universe to check against
	}
	entityFiles := map[string][]string{}
	entityNames := make([]string, 0, len(a.entities))
	for _, ent := range a.entities {
		entityNames = append(entityNames, ent.name)
		var files []string
		if ent.cvlFile != "" {
			if target, found := a.p.resolveRef(ent.manifest, ent.cvlFile); found && a.files[target] != nil {
				files = []string{target}
			} else {
				a.report(CodeMissingRuleFile, ent.manifest, ent.cvlPos, "",
					"entity %q references rule file %q, which is not in the project", ent.name, ent.cvlFile)
			}
		}
		entityFiles[ent.name] = files
	}
	a.entityFiles = entityFiles
	for _, path := range a.ruleFiles {
		for _, e := range a.files[path].rules {
			if e.rule == nil || e.rule.Type != cvl.TypeComposite || e.rule.CompositeExpr == nil {
				continue
			}
			pos := e.keyPos("composite_rule")
			for _, ref := range e.rule.CompositeExpr.Refs() {
				files, known := entityFiles[ref.Entity]
				if !known {
					msg := fmt.Sprintf("references entity %q, which no manifest defines", ref.Entity)
					if s := suggestFrom(ref.Entity, entityNames); s != "" {
						msg += fmt.Sprintf(" (did you mean %q?)", s)
					}
					a.report(CodeUnknownEntity, path, pos, e.rule.Name, "%s", msg)
					continue
				}
				// Bare refs resolve against rule results first; only those
				// can be checked statically (value refs read config keys).
				if ref.WantValue || ref.Op != "" {
					continue
				}
				if !a.entityRuleNames(files)[ref.Key] {
					a.report(CodeUnknownRuleRef, path, pos, e.rule.Name,
						"no rule named %q on entity %q; the reference will fall back to configuration-key existence", ref.Key, ref.Entity)
				}
			}
		}
	}
	a.checkTagFilters(entityFiles)
}

func (a *analyzer) checkTagFilters(entityFiles map[string][]string) {
	for _, ent := range a.entities {
		if len(ent.tags) == 0 {
			continue
		}
		files := entityFiles[ent.name]
		if len(files) == 0 {
			continue // the missing-file diagnostic already covers it
		}
		available := map[string]bool{}
		for _, f := range files {
			for _, e := range a.effective(f) {
				for _, t := range e.rule.Tags {
					available[t] = true
				}
			}
		}
		for _, tag := range ent.tags {
			if !available[tag] {
				a.report(CodeUselessTagFilter, ent.manifest, ent.tagsPos, "",
					"entity %q: tag %q matches no rule in %s; the filter selects nothing", ent.name, tag, strings.Join(files, ", "))
			}
		}
	}
}

// --- pass 6: manifest reachability ---

func (a *analyzer) checkReachability() {
	if len(a.entities) == 0 {
		return // no manifests: plain rule-file lint, reachability is moot
	}
	reachable := map[string]bool{}
	var mark func(path string)
	mark = func(path string) {
		if path == "" || reachable[path] {
			return
		}
		reachable[path] = true
		fi := a.files[path]
		if fi == nil || fi.parent == "" {
			return
		}
		if target, found := a.p.resolveRef(path, fi.parent); found {
			mark(target)
		}
	}
	for _, ent := range a.entities {
		if ent.cvlFile == "" {
			continue
		}
		if target, found := a.p.resolveRef(ent.manifest, ent.cvlFile); found {
			mark(target)
		}
	}
	for _, path := range a.ruleFiles {
		if !reachable[path] {
			a.report(CodeUnreachableFile, path, yaml.Pos{}, "",
				"rule file is not referenced by any manifest (directly or through inheritance)")
		}
	}
}

// --- value coercion (manifest parsing) ---

func asString(value any, dst *string) error {
	switch v := value.(type) {
	case string:
		*dst = v
	case int64:
		*dst = strconv.FormatInt(v, 10)
	case float64:
		*dst = strconv.FormatFloat(v, 'g', -1, 64)
	case bool:
		*dst = strconv.FormatBool(v)
	default:
		return fmt.Errorf("want a string, got %T", value)
	}
	return nil
}

func asStringSlice(value any, dst *[]string) error {
	switch v := value.(type) {
	case []any:
		out := make([]string, 0, len(v))
		for _, item := range v {
			var s string
			if err := asString(item, &s); err != nil {
				return fmt.Errorf("list element: %w", err)
			}
			out = append(out, s)
		}
		*dst = out
	case string:
		*dst = []string{v}
	case nil:
		*dst = nil
	default:
		return fmt.Errorf("want a list of strings, got %T", value)
	}
	return nil
}

func asBool(value any, dst *bool) error {
	b, ok := value.(bool)
	if !ok {
		return fmt.Errorf("want a boolean, got %T", value)
	}
	*dst = b
	return nil
}

// editDistance is the Levenshtein distance, used for did-you-mean hints.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
