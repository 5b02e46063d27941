package analysis

import (
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
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
func (e *ruleEntry) keyPos(key string) yaml.Pos { return keyPos(e.m, key) }

// fileInfo is the analyzer's view of one rule file.
type fileInfo struct {
	path      string
	parent    string // raw parent_cvl_file reference; "" when none
	parentPos yaml.Pos
	rules     []*ruleEntry

	// Inheritance resolution state.
	state     int         // 0 unvisited, 1 visiting, 2 resolved
	effective []*cvl.Rule // the loader's merged rule list
}

// manEntity is one entity stanza of a manifest.
type manEntity struct {
	manifest string
	name     string
	namePos  yaml.Pos
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
	// entries maps every parsed rule back to its mapping.
	entries map[*cvl.Rule]*ruleEntry
	// base maps each rule file a manifest reaches to that manifest's
	// directory, which the loader resolves the file's references against.
	base map[string]string

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
	a := &analyzer{p: p, opts: opts, files: map[string]*fileInfo{},
		entries: map[*cvl.Rule]*ruleEntry{}, base: map[string]string{}}
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

// checkRuleMap parses one rule mapping with the loader and reports what
// it finds: every key outside the rule type's vocabulary (CVL003 unknown,
// CVL004 another type's keyword), or else the loader's first problem
// (CVL005), each at its key.
func (a *analyzer) checkRuleMap(path string, m *yaml.Map) *ruleEntry {
	entry := &ruleEntry{file: path, m: m}
	rule, err := cvl.ParseRule(m)
	if err == nil {
		rule.Source = path
		entry.rule = rule
		a.entries[rule] = entry
		return entry
	}
	var first *cvl.KeyError
	outside := false
	for _, p := range problemsOf(err) {
		var ke *cvl.KeyError
		if !errors.As(p, &ke) {
			continue
		}
		if first == nil {
			first = ke
		}
		if ke.Err != nil {
			continue
		}
		code := CodeWrongGroup
		if _, known := cvl.Keywords[ke.Key]; !known {
			code = CodeUnknownKeyword
		}
		a.report(code, path, m.KeyPos(ke.Key), ke.Name, "%v", ke)
		outside = true
	}
	if !outside && first != nil {
		a.report(CodeInvalidRule, path, keyPos(m, first.Key), first.Name, "%v", first)
	}
	return entry
}

// problemsOf lists the problems a loader error carries: it reads as the
// first and unwraps to every one the loader found.
func problemsOf(err error) []error {
	if err == nil {
		return nil
	}
	var all interface{ Unwrap() []error }
	if errors.As(err, &all) {
		return all.Unwrap()
	}
	return []error{err}
}

// keyPos returns the position of key in m, or m's start for "" or a key
// m lacks.
func keyPos(m *yaml.Map, key string) yaml.Pos {
	if key != "" {
		if p := m.KeyPos(key); !p.IsZero() {
			return p
		}
	}
	return m.Start()
}

// --- pass 2: manifests ---

func (a *analyzer) parseManifests() {
	owner := map[string]string{} // entity name → manifest that defined it
	for _, path := range a.manifests {
		a.parseManifest(path, a.p.files[path], owner)
	}
}

// parseManifest parses a manifest with the loader, reporting each problem
// it finds (CVL301) at its key, and records the entities it yields.
func (a *analyzer) parseManifest(path string, content []byte, owner map[string]string) {
	man, err := cvl.ParseManifest(path, content)
	var se *yaml.SyntaxError
	if errors.As(err, &se) {
		a.report(CodeSyntax, path, yaml.Pos{Line: se.Line, Col: se.Col}, "", "%s", se.Msg)
		return
	}
	// The loader decoded the same bytes; decode them again for positions.
	doc, _ := yaml.Decode(content)
	if man == nil {
		a.report(CodeNotMapping, path, yaml.Pos{}, "", "manifest document is %T, want a mapping of entities", doc)
		return
	}
	for _, p := range problemsOf(err) {
		var ke *cvl.KeyError
		if !errors.As(p, &ke) {
			continue
		}
		msg := ke.Error()
		if ke.Err == nil {
			msg = fmt.Sprintf("entity %q: unknown manifest key %q", ke.Name, ke.Key)
			if ke.Suggest != "" {
				msg += fmt.Sprintf(" (did you mean %q?)", ke.Suggest)
			}
		}
		a.report(CodeBadManifest, path, ke.Map.KeyPos(ke.Key), "", "%s", msg)
	}
	root := doc.(*yaml.Map)
	for _, e := range man.Entries {
		body, _ := root.Map(e.Name)
		ent := &manEntity{manifest: path, name: e.Name, namePos: root.KeyPos(e.Name),
			cvlFile: e.CVLFile, cvlPos: body.KeyPos("cvl_file"), tags: e.Tags, tagsPos: body.KeyPos("tags")}
		if prev, dup := owner[e.Name]; dup {
			a.report(CodeDuplicateEntity, path, ent.namePos, "", "entity %q already defined in %s", e.Name, prev)
		} else {
			owner[e.Name] = path
		}
		a.entities = append(a.entities, ent)
	}
}

// reach follows every manifest entity's cvl_file and parent_cvl_file
// chain, recording for each rule file it meets the directory of the first
// manifest that reaches it.
func (a *analyzer) reach() {
	for _, ent := range a.entities {
		if ent.cvlFile == "" {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(ent.manifest))
		target, found := a.ref(ent.manifest, ent.cvlFile)
		for found && a.files[target] != nil {
			if _, seen := a.base[target]; seen {
				break
			}
			a.base[target] = dir
			parent := a.files[target].parent
			if parent == "" {
				break
			}
			target, found = a.ref(target, parent)
		}
	}
}

// ref resolves a cvl_file or parent_cvl_file reference made in the file
// from. In a project the loader reads every file of a manifest entity's
// chain relative to the manifest's directory, so a manifest's references,
// and those of the rule files it reaches, resolve against it. A file no
// manifest reaches, and any file under ExternalParents, resolves as a
// lone file does (Project.resolveRef).
func (a *analyzer) ref(from, ref string) (string, bool) {
	if !a.opts.ExternalParents {
		dir, reached := a.base[from]
		if a.p.manifest[from] {
			dir, reached = filepath.Dir(from), true
		}
		if reached {
			return a.p.find(filepath.Join(dir, ref))
		}
	}
	return a.p.resolveRef(from, ref)
}

// --- pass 3: inheritance graph ---

func (a *analyzer) resolveInheritance() {
	for _, path := range a.ruleFiles {
		a.effective(path)
	}
}

// effective resolves a file's inheritance chain and returns its effective
// rule list, merged as the loader merges it (cvl.MergeRules), reporting
// missing parents, cycles, dead overrides/disables, and silent shadowing
// along the way.
func (a *analyzer) effective(path string) []*cvl.Rule {
	fi := a.files[path]
	if fi == nil {
		return nil
	}
	if fi.state == 2 {
		return fi.effective
	}
	fi.state = 1
	var inherited []*cvl.Rule
	if fi.parent != "" {
		target, found := a.ref(path, fi.parent)
		pfi := a.files[target]
		switch {
		case !found || pfi == nil:
			a.report(CodeMissingParent, path, fi.parentPos, "",
				"parent rule file %q not found in project", fi.parent)
		case pfi.state == 1:
			a.report(CodeCycle, path, fi.parentPos, "",
				"inheritance cycle: %q inherits %q, which (transitively) inherits it back", path, fi.parent)
		default:
			inherited = a.effective(target)
		}
	}
	byKey := make(map[string]*ruleEntry, len(inherited))
	for _, r := range inherited {
		byKey[r.Key()] = a.entries[r]
	}
	own := make([]*cvl.Rule, 0, len(fi.rules))
	seenHere := map[string]bool{}
	for _, e := range fi.rules {
		if e.rule == nil {
			continue
		}
		own = append(own, e.rule)
		key := e.rule.Key()
		parent, inParent := byKey[key]
		switch {
		case e.rule.Disabled:
			if !inParent {
				a.report(CodeDeadDisabled, path, e.start(), e.rule.Name,
					"disabled rule matches no inherited rule; nothing to disable")
			}
		case inParent && !e.rule.Override && !seenHere[key]:
			a.report(CodeShadowed, path, e.start(), e.rule.Name,
				"silently shadows the rule inherited from %s; add override: true to make the replacement explicit", parent.file)
			a.replacements = append(a.replacements, replacePair{parent: parent, child: e})
		case !inParent && e.rule.Override:
			a.report(CodeDeadOverride, path, e.start(), e.rule.Name,
				"marked override: true but no inherited rule matches")
		case inParent:
			a.replacements = append(a.replacements, replacePair{parent: parent, child: e})
		}
		seenHere[key] = true
	}
	fi.state = 2
	fi.effective = cvl.MergeRules(inherited, own)
	return fi.effective
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

// hasRule reports whether an entity's rule files define a rule a
// composite reference names, under the engine's name equivalence.
func (a *analyzer) hasRule(files []string, name string) bool {
	for _, f := range files {
		for _, r := range a.effective(f) {
			if cvl.SameRuleName(r.Name, name) {
				return true
			}
		}
	}
	return false
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
			if target, found := a.ref(ent.manifest, ent.cvlFile); found && a.files[target] != nil {
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
					if s := cvl.Suggest(ref.Entity, entityNames); s != "" {
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
				if !a.hasRule(files, ref.Key) {
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
			for _, r := range a.effective(f) {
				for _, t := range r.Tags {
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
	for _, path := range a.ruleFiles {
		if _, reached := a.base[path]; !reached {
			a.report(CodeUnreachableFile, path, yaml.Pos{}, "",
				"rule file is not referenced by any manifest (directly or through inheritance)")
		}
	}
}
