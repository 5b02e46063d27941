package engine

import (
	"errors"
	"fmt"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"configvalidator/internal/configtree"
	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/lens"
	"configvalidator/internal/schema"
)

// Options tune engine execution.
type Options struct {
	// Parallelism bounds the worker pool used inside one entity
	// validation: rule files resolve, discovered files load, and
	// independent non-composite rules evaluate concurrently. 0 (the
	// default) uses runtime.GOMAXPROCS(0); 1 runs the same path with the
	// pool inline on the caller's goroutine. The search-path walk always
	// runs on the caller's goroutine in manifest order and stops at the
	// first resolve or walk error, so a scan aborts at the same entry,
	// having walked the same roots and read no file, at every setting.
	// Reports are identical at every setting — results land in slots
	// fixed by manifest position and composite rules evaluate last,
	// serially — only wall-clock time changes.
	//
	// Entities validated with Parallelism > 1 must tolerate concurrent
	// reads (every built-in entity backend does: they are immutable
	// snapshots or read-only filesystem views).
	Parallelism int

	// EvalCacheSize bounds the verdict memo for tree and schema rules,
	// which are pure functions of (rule, parsed configs): when a shared
	// crawler.ParseCache makes two entities' configs the same Results,
	// the verdict is reused instead of re-evaluated (see evalcache.go).
	// 0 (the default) disables memoization — the correct setting
	// whenever no parse cache is attached; < 0 enables it with
	// DefaultEvalCacheSize.
	EvalCacheSize int
}

// Engine applies CVL rules to entities.
type Engine struct {
	crawler *crawler.Crawler
	match   *matcher
	faults  *faults.Injector
	opts    Options
	memo    *evalMemo
}

// New creates an engine. A nil crawler gets default options and the default
// lens registry.
func New(c *crawler.Crawler) *Engine {
	return NewWithOptions(c, Options{})
}

// NewWithOptions creates an engine with explicit execution options.
func NewWithOptions(c *crawler.Crawler, opts Options) *Engine {
	if c == nil {
		c = crawler.New(nil, crawler.Options{})
	}
	return &Engine{crawler: c, match: newMatcher(), opts: opts, memo: newEvalMemo(opts.EvalCacheSize)}
}

// parallelism resolves Options.Parallelism to an effective worker count.
func (e *Engine) parallelism() int {
	p := e.opts.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// SetFaults arms fault injection on rule evaluation (faults.OpEval, keyed
// "entity/rule"). A nil injector — the production default — is inert.
func (e *Engine) SetFaults(inj *faults.Injector) { e.faults = inj }

// entityRun is the per-manifest-entry working state of one validation.
type entityRun struct {
	entry   *cvl.ManifestEntry
	rules   []*cvl.Rule
	configs []*crawler.FileConfig
	results []*Result
	// verdicts is the memo table for this run's config signature; nil
	// when the memo is disabled.
	verdicts *sigVerdicts
}

// RuleSource resolves a rule-file path to its effective rules (inheritance
// applied). Implementations may cache: the engine treats returned rules as
// immutable.
type RuleSource interface {
	Resolve(path string) ([]*cvl.Rule, error)
}

// ruleList is a RuleSource that hands every entry the same fixed rules.
type ruleList []*cvl.Rule

func (l ruleList) Resolve(string) ([]*cvl.Rule, error) { return l, nil }

// CachedSource memoizes rule-file resolution — the production
// configuration for fleet scans, where the same rule library applies to
// every image and re-parsing it per entity would dominate scan time. Safe
// for concurrent use.
type CachedSource struct {
	read   cvl.FileReader
	mu     sync.Mutex
	byFile map[string][]*cvl.Rule
}

var _ RuleSource = (*CachedSource)(nil)

// NewCachedSource wraps a FileReader with memoization.
func NewCachedSource(read cvl.FileReader) *CachedSource {
	return &CachedSource{read: read, byFile: make(map[string][]*cvl.Rule)}
}

// Resolve implements RuleSource. The returned slice is a fresh copy on
// every call: callers routinely append to or re-slice rule lists (tag and
// entity-type filtering), and handing out the cached backing array would
// let one caller's append clobber another's view of the shared library.
// The *cvl.Rule pointees stay shared and must be treated as immutable.
func (s *CachedSource) Resolve(path string) ([]*cvl.Rule, error) {
	s.mu.Lock()
	cached, ok := s.byFile[path]
	s.mu.Unlock()
	if !ok {
		rules, err := cvl.ResolveRules(s.read, path)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if incumbent, raced := s.byFile[path]; raced {
			// Lost a race with a concurrent resolve; keep the incumbent
			// so every caller copies from one canonical slice.
			cached = incumbent
		} else {
			s.byFile[path] = rules
			cached = rules
		}
		s.mu.Unlock()
	}
	out := make([]*cvl.Rule, len(cached))
	copy(out, cached)
	return out, nil
}

// Validate runs every enabled manifest entry against the entity and returns
// the report. Rule files resolve through src (typically a CachedSource
// shared across a fleet scan). Composite rules are evaluated last, over the
// per-entity outcomes.
func (e *Engine) Validate(ent entity.Entity, manifest *cvl.Manifest, src RuleSource) (*Report, error) {
	return e.validate(ent, manifest.EnabledEntries(), src, true)
}

// ValidateRules applies a flat rule list to an entity using the given
// search paths — the single-entity path used by examples, tests, and the
// benchmark harness. The list runs as one synthetic "default" entry with
// no manifest, so a composite rule yields StatusError in place.
func (e *Engine) ValidateRules(ent entity.Entity, rules []*cvl.Rule, searchPaths []string) (*Report, error) {
	entry := &cvl.ManifestEntry{Name: "default", Enabled: true, ConfigSearchPaths: searchPaths}
	return e.validate(ent, []*cvl.ManifestEntry{entry}, ruleList(rules), false)
}

// validate is the one evaluation path. Each phase either runs on the
// worker pool, writing only slots fixed by manifest position, or runs on
// the caller's goroutine in manifest order, so the report — and the point
// where an error aborts the scan — is the same at every parallelism:
//
//  1. resolve every entry's rules concurrently (reads only the library);
//  2. walk each entry's search paths in manifest order, stopping at the
//     first resolve or walk error before any file is read;
//  3. read and parse every discovered file concurrently;
//  4. evaluate the non-composite rules concurrently;
//  5. evaluate composites last, serially, so a later composite observes
//     an earlier one's outcome.
//
// Without a manifest there are no other entities for a composite to
// refer to, so composites evaluate in place (to StatusError) instead.
func (e *Engine) validate(ent entity.Entity, entries []*cvl.ManifestEntry, src RuleSource, manifest bool) (*Report, error) {
	par := e.parallelism()
	typ := ent.Type().String()
	runs := make([]entityRun, len(entries))
	errs := make([]error, len(entries))
	mustRun(par, len(entries), func(i int) {
		run := &runs[i]
		run.entry = entries[i]
		run.rules, errs[i] = src.Resolve(run.entry.CVLFile)
		run.rules = cvl.FilterByEntityType(cvl.FilterByTags(run.rules, run.entry.Tags), typ)
	})

	var files []*crawler.FileConfig
	for i := range runs {
		run := &runs[i]
		err := errs[i]
		if err == nil {
			run.configs, err = e.crawler.Discover(ent, run.entry.ConfigSearchPaths)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: entity %s: %w", run.entry.Name, err)
		}
		files = append(files, run.configs...)
	}
	mustRun(par, len(files), func(i int) { e.crawler.Load(ent, files[i]) })

	type evalTask struct {
		run  *entityRun
		slot int
		rule *cvl.Rule
	}
	var tasks, composites []evalTask
	for i := range runs {
		run := &runs[i]
		if e.memo != nil {
			run.verdicts = e.memo.forSig(configSig(run.configs))
		}
		run.results = make([]*Result, 0, len(run.configs)+len(run.rules))
		// Files that could not be read or parsed seed degraded findings:
		// the scan continues, but their checks cannot be trusted this pass.
		for _, fc := range run.configs {
			if fc.Err != nil {
				run.results = append(run.results, &Result{
					EntityName:     ent.Name(),
					ManifestEntity: run.entry.Name,
					Status:         StatusDegraded,
					Message:        fc.Err.Error(),
					File:           fc.Path,
				})
			}
		}
		for _, rule := range run.rules {
			if manifest && rule.Type == cvl.TypeComposite {
				composites = append(composites, evalTask{run: run, rule: rule})
				continue
			}
			tasks = append(tasks, evalTask{run: run, slot: len(run.results), rule: rule})
			run.results = append(run.results, nil)
		}
	}
	mustRun(par, len(tasks), func(i int) {
		t := tasks[i]
		t.run.results[t.slot] = e.safeEvalRule(ent, t.run.entry, t.rule, t.run.configs, t.run.verdicts)
	})

	if len(composites) > 0 {
		resolver := &runResolver{runs: make(map[string]*entityRun, len(runs))}
		for i := range runs {
			resolver.runs[runs[i].entry.Name] = &runs[i]
		}
		for _, c := range composites {
			c.run.results = append(c.run.results, e.safeEvalComposite(ent, c.run.entry, c.rule, resolver))
		}
	}

	report := &Report{EntityName: ent.Name(), EntityType: typ}
	for i := range runs {
		report.Results = append(report.Results, runs[i].results...)
	}
	return report, nil
}

// mustRun is runParallel for phases whose tasks do their own panic
// isolation: a panic that escapes a task is a caller bug or an entity
// backend failure, and it is re-raised on the caller's goroutine.
func mustRun(par, n int, task func(i int)) {
	if pv := runParallel(par, n, task); pv != nil {
		panic(pv)
	}
}

// runParallel executes task(0..n-1) on min(par, n) workers pulling indices
// from a shared counter; with par <= 1 it runs them in order on the
// caller's goroutine. A panicking task is recovered and remembered; the
// pool drains fully and the panic value of the lowest task index is
// returned for the caller to re-panic, so panic propagation is
// deterministic and never leaks a goroutine mid-flight.
func runParallel(par, n int, task func(i int)) (panicVal any) {
	if par <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if r := protect(task, i); r != nil && panicVal == nil {
				panicVal = r
			}
		}
		return panicVal
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicIdx = -1
	)
	for w := 0; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if r := protect(task, i); r != nil {
					mu.Lock()
					if panicIdx < 0 || i < panicIdx {
						panicIdx, panicVal = i, r
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return panicVal
}

// protect runs task(i) and returns the value it panicked with, or nil.
func protect(task func(i int), i int) (panicVal any) {
	defer func() { panicVal = recover() }()
	task(i)
	return nil
}

// safeEvalRule evaluates one rule with per-rule fault injection and panic
// isolation: a panicking matcher, lens structure, or injected eval fault
// degrades that single rule's result instead of aborting the entity scan.
//
// verdicts is the memo table for the run's config signature (nil disables
// verdict memoization for this call). Fault injection is checked before the
// memo lookup so a chaos schedule consumes injections identically on warm
// and cold caches, and a degraded or panicked outcome is never stored.
func (e *Engine) safeEvalRule(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig, verdicts *sigVerdicts) (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res = e.degradedResult(ent, entry, rule, fmt.Errorf("rule evaluation panicked: %v", r))
		}
	}()
	if e.faults != nil {
		if err := e.faults.Check(faults.OpEval, entry.Name+"/"+rule.Name); err != nil {
			return e.degradedResult(ent, entry, rule, err)
		}
	}
	if memoizable(rule) {
		return verdicts.eval(ent, entry, rule, func() *Result { return e.evalRule(ent, entry, rule, configs) })
	}
	return e.evalRule(ent, entry, rule, configs)
}

// safeEvalComposite is safeEvalRule for composite rules.
func (e *Engine) safeEvalComposite(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, resolver cvl.CompositeResolver) (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res = e.degradedResult(ent, entry, rule, fmt.Errorf("composite evaluation panicked: %v", r))
		}
	}()
	if e.faults != nil {
		if err := e.faults.Check(faults.OpEval, entry.Name+"/"+rule.Name); err != nil {
			return e.degradedResult(ent, entry, rule, err)
		}
	}
	return e.evalComposite(ent, entry, rule, resolver)
}

func (e *Engine) evalRule(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	switch rule.Type {
	case cvl.TypeTree:
		return e.evalTree(ent, entry, rule, configs)
	case cvl.TypeSchema:
		return e.evalSchema(ent, entry, rule, configs)
	case cvl.TypePath:
		return e.evalPath(ent, entry, rule, configs)
	case cvl.TypeScript:
		return e.evalScript(ent, entry, rule)
	case cvl.TypeComposite:
		// Only a flat rule list gets here: manifest runs defer composites.
		return e.errorResult(ent, entry, rule, errors.New("composite rules require a manifest context"))
	default:
		return e.errorResult(ent, entry, rule, fmt.Errorf("unsupported rule type %v", rule.Type))
	}
}

// --- tree rules ---

func (e *Engine) evalTree(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	candidates := selectTreeConfigs(configs, rule.FileContext)
	if len(candidates) == 0 {
		return e.notApplicable(ent, entry, rule, "no matching configuration files found")
	}

	// require_other_configs: every listed key must exist somewhere in the
	// candidate trees, else the rule does not apply (e.g. ssl_protocols
	// rules only bind to servers that actually configure SSL).
	for _, required := range rule.RequireOtherConfigs {
		if !anyTreeHasKey(candidates, required) {
			return e.notApplicable(ent, entry, rule,
				fmt.Sprintf("required config %q not present", required))
		}
	}

	paths := rule.ConfigPath
	if len(paths) == 0 {
		paths = []string{""}
	}
	queries := make([]string, len(paths))
	for i, p := range paths {
		queries[i] = joinTreePath(p, rule.Name)
	}
	type hit struct {
		node *configtree.Node
		file string
	}
	var hits []hit
	for _, fc := range candidates {
		for _, q := range queries {
			for _, n := range fc.Result.FindTree(q) {
				hits = append(hits, hit{node: n, file: fc.Path})
			}
		}
	}
	if len(hits) == 0 {
		if rule.AbsentPass {
			return e.pass(ent, entry, rule, orDefault(rule.NotPresentDescription, rule.Name+" is not present"), "")
		}
		return e.fail(ent, entry, rule,
			orDefault(rule.NotPresentDescription, rule.Name+" is not present"),
			"key not found in "+candidateFiles(candidates), "")
	}

	occurrence := rule.Occurrence
	if occurrence == "" {
		occurrence = "all"
	}
	passCount := 0
	var firstFailDetail, firstFailFile string
	for i, h := range hits {
		if occurrence == "first" && i > 0 {
			break
		}
		ok, detail, err := e.checkNodeValue(rule, h.node.Value)
		if err != nil {
			return e.errorResult(ent, entry, rule, err)
		}
		if ok {
			passCount++
		} else if firstFailDetail == "" {
			firstFailDetail = detail
			firstFailFile = h.file
		}
	}
	considered := len(hits)
	if occurrence == "first" {
		considered = 1
	}
	passed := false
	switch occurrence {
	case "any":
		passed = passCount > 0
	default: // "all", "first"
		passed = passCount == considered
	}
	if passed {
		return e.pass(ent, entry, rule,
			orDefault(rule.MatchedDescription, rule.Name+" is configured correctly"),
			hits[0].file)
	}
	return e.fail(ent, entry, rule,
		orDefault(rule.NotMatchedDescription, rule.Name+" has a non-preferred value"),
		firstFailDetail, firstFailFile)
}

// checkNodeValue applies the rule's matchers to one node value. When the
// rule declares a value_separator, the value is split and every element
// must pass individually (list-valued keys such as sshd's Ciphers are then
// checked element-wise rather than as one string).
func (e *Engine) checkNodeValue(rule *cvl.Rule, value string) (bool, string, error) {
	if rule.ValueSeparator == "" {
		return e.match.checkValue(rule, value)
	}
	parts := strings.Split(value, rule.ValueSeparator)
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ok, detail, err := e.match.checkValue(rule, part)
		if err != nil || !ok {
			return ok, detail, err
		}
	}
	return true, "all elements match", nil
}

func selectTreeConfigs(configs []*crawler.FileConfig, fileContext []string) []*crawler.FileConfig {
	var out []*crawler.FileConfig
	for _, fc := range configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindTree {
			continue
		}
		if matchesFileContext(fc.Path, fileContext) {
			out = append(out, fc)
		}
	}
	return out
}

// matchesFileContext reports whether the file path matches any context
// pattern: a substring of the path or a glob against the base name. An
// empty context matches everything.
func matchesFileContext(filePath string, contexts []string) bool {
	if len(contexts) == 0 {
		return true
	}
	base := path.Base(filePath)
	for _, ctx := range contexts {
		if strings.Contains(filePath, ctx) {
			return true
		}
		if ok, err := path.Match(ctx, base); err == nil && ok {
			return true
		}
	}
	return false
}

func anyTreeHasKey(configs []*crawler.FileConfig, key string) bool {
	query := "**/" + key
	for _, fc := range configs {
		if len(fc.Result.FindTree(query)) > 0 {
			return true
		}
		if _, ok := fc.Result.Tree.Child(key); ok {
			return true
		}
	}
	return false
}

func joinTreePath(configPath, name string) string {
	configPath = strings.Trim(configPath, "/")
	if configPath == "" {
		return name
	}
	return configPath + "/" + name
}

func candidateFiles(configs []*crawler.FileConfig) string {
	names := make([]string, len(configs))
	for i, fc := range configs {
		names[i] = fc.Path
	}
	return strings.Join(names, ", ")
}

// --- schema rules ---

func (e *Engine) evalSchema(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	var tables []*schema.Table
	for _, fc := range configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindSchema {
			continue
		}
		tables = append(tables, fc.Result.Table)
	}
	if len(tables) == 0 {
		return e.notApplicable(ent, entry, rule, "no schema-pattern configuration files found")
	}
	query := schema.Query{
		Columns:     rule.QueryColumns,
		Constraints: rule.QueryConstraints,
		Args:        rule.QueryConstraintsValue,
	}
	totalRows := 0
	var values []string
	var sourceFile string
	for _, t := range tables {
		out, err := t.Select(query)
		if err != nil {
			// A table without the constrained columns simply doesn't
			// apply (an fstab query against /etc/passwd).
			if strings.Contains(err.Error(), "no column") {
				continue
			}
			return e.errorResult(ent, entry, rule, err)
		}
		if sourceFile == "" && out.Len() > 0 {
			sourceFile = t.File
		}
		totalRows += out.Len()
		for _, row := range out.Rows {
			values = append(values, strings.Join(row, " "))
		}
	}
	if rule.ExpectRows != "" {
		ok, err := expectRowsSatisfied(rule.ExpectRows, totalRows)
		if err != nil {
			return e.errorResult(ent, entry, rule, err)
		}
		if !ok {
			return e.fail(ent, entry, rule,
				orDefault(rule.NotMatchedDescription, rule.Name+" row-count expectation failed"),
				fmt.Sprintf("query returned %d rows, expected %s", totalRows, rule.ExpectRows), sourceFile)
		}
		if len(rule.PreferredValue) == 0 && len(rule.NonPreferredValue) == 0 {
			return e.pass(ent, entry, rule,
				orDefault(rule.MatchedDescription, rule.Name+" row-count expectation met"), sourceFile)
		}
	}
	// Value matching over result rows; an empty result contributes the
	// single empty-string candidate, which is how Listing 3 detects
	// "/tmp not on a separate partition" with non_preferred_value [""].
	if len(values) == 0 {
		values = []string{""}
	}
	for _, v := range values {
		ok, detail, err := e.match.checkValue(rule, v)
		if err != nil {
			return e.errorResult(ent, entry, rule, err)
		}
		if !ok {
			return e.fail(ent, entry, rule,
				orDefault(rule.NotMatchedDescription, rule.Name+" failed"),
				detail, sourceFile)
		}
	}
	return e.pass(ent, entry, rule, orDefault(rule.MatchedDescription, rule.Name+" passed"), sourceFile)
}

func expectRowsSatisfied(spec string, rows int) (bool, error) {
	switch {
	case strings.HasPrefix(spec, ">="):
		n, err := strconv.Atoi(spec[2:])
		return rows >= n, err
	case strings.HasPrefix(spec, "<="):
		n, err := strconv.Atoi(spec[2:])
		return rows <= n, err
	default:
		n, err := strconv.Atoi(spec)
		return rows == n, err
	}
}

// --- path rules ---

func (e *Engine) evalPath(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	fi, err := ent.Stat(rule.Name)
	if err != nil {
		if !errors.Is(err, entity.ErrNotExist) {
			return e.errorResult(ent, entry, rule, err)
		}
		if rule.Exists != nil && !*rule.Exists {
			return e.pass(ent, entry, rule,
				orDefault(rule.MatchedDescription, rule.Name+" is absent as required"), rule.Name)
		}
		// When the manifest entry searched for configuration and found
		// none, the application is not present on this entity and the
		// path rule does not apply (an image without Apache shouldn't
		// fail Apache's file-permission checks).
		if len(configs) == 0 && len(entry.ConfigSearchPaths) > 0 {
			return e.notApplicable(ent, entry, rule, "target application not present on this entity")
		}
		return e.fail(ent, entry, rule,
			orDefault(rule.NotPresentDescription, rule.Name+" does not exist"),
			"path not found", rule.Name)
	}
	if rule.Exists != nil && !*rule.Exists {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" must not exist"),
			"path exists", rule.Name)
	}
	if rule.Ownership != "" && fi.Ownership() != rule.Ownership {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" has wrong ownership"),
			fmt.Sprintf("ownership %s, want %s", fi.Ownership(), rule.Ownership), rule.Name)
	}
	if rule.Permission >= 0 && fi.Perm() != rule.Permission {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" has wrong permissions"),
			fmt.Sprintf("mode %04o, want %04o", fi.Perm(), rule.Permission), rule.Name)
	}
	if rule.MaxPermission >= 0 && fi.Perm()&^rule.MaxPermission != 0 {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" permissions too open"),
			fmt.Sprintf("mode %04o exceeds maximum %04o", fi.Perm(), rule.MaxPermission), rule.Name)
	}
	return e.pass(ent, entry, rule,
		orDefault(rule.MatchedDescription, rule.Name+" metadata is correct"), rule.Name)
}

// --- script rules ---

func (e *Engine) evalScript(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule) *Result {
	output, err := ent.RunFeature(rule.ScriptFeature)
	if err != nil {
		if errors.Is(err, entity.ErrNoFeature) {
			return e.notApplicable(ent, entry, rule,
				fmt.Sprintf("runtime feature %q not available on this entity", rule.ScriptFeature))
		}
		return e.errorResult(ent, entry, rule, err)
	}
	// The verdict on a feature output is entity-independent — memoize it
	// so fleets whose entities answer a feature identically judge that
	// answer once.
	var verdicts *sigVerdicts
	if e.memo != nil {
		verdicts = e.memo.forSig(scriptSig(output))
	}
	return verdicts.eval(ent, entry, rule, func() *Result { return e.evalScriptOutput(ent, entry, rule, output) })
}

// evalScriptOutput judges one feature output against the rule's matchers.
func (e *Engine) evalScriptOutput(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, output string) *Result {
	ok, detail, err := e.match.checkValue(rule, output)
	if err != nil {
		return e.errorResult(ent, entry, rule, err)
	}
	if ok {
		return e.pass(ent, entry, rule,
			orDefault(rule.MatchedDescription, rule.Name+" runtime state is correct"), "")
	}
	return e.fail(ent, entry, rule,
		orDefault(rule.NotMatchedDescription, rule.Name+" runtime state check failed"), detail, "")
}

// --- composite rules ---

func (e *Engine) evalComposite(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, resolver cvl.CompositeResolver) *Result {
	ok, err := rule.CompositeExpr.Eval(resolver)
	if err != nil {
		return e.errorResult(ent, entry, rule, err)
	}
	if ok {
		return e.pass(ent, entry, rule,
			orDefault(rule.MatchedDescription, rule.Name+" holds across entities"), "")
	}
	return e.fail(ent, entry, rule,
		orDefault(rule.NotMatchedDescription, rule.Name+" does not hold"),
		"composite expression evaluated false", "")
}

// runResolver resolves composite references against the per-entity runs.
type runResolver struct {
	runs map[string]*entityRun
}

var _ cvl.CompositeResolver = (*runResolver)(nil)

// RuleResult implements cvl.CompositeResolver: rule names match the CVL
// rule name within the referenced manifest entity. Dotted and slashed key
// spellings are equivalent (net.ipv4.ip_forward ~ net/ipv4/ip_forward), so
// composite references can use the natural sysctl notation.
func (r *runResolver) RuleResult(entityName, ruleName string) (bool, bool) {
	run, ok := r.runs[entityName]
	if !ok {
		return false, false
	}
	want := strings.ReplaceAll(ruleName, "/", ".")
	for _, res := range run.results {
		if res != nil && res.Rule != nil && strings.ReplaceAll(res.Rule.Name, "/", ".") == want {
			return res.Status == StatusPass, true
		}
	}
	return false, false
}

// ConfigValue implements cvl.CompositeResolver: it searches the entity's
// normalized trees for the key (optionally under a section), trying the
// natural spelling and the dotted-path expansion.
func (r *runResolver) ConfigValue(entityName, key, section string) (string, bool) {
	run, ok := r.runs[entityName]
	if !ok {
		return "", false
	}
	var queries []string
	slashKey := strings.ReplaceAll(key, ".", "/")
	if section != "" {
		queries = append(queries, section+"/"+key, section+"/"+slashKey, "**/"+section+"/"+key)
	} else {
		queries = append(queries, key, slashKey, "**/"+key)
	}
	for _, fc := range run.configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindTree {
			continue
		}
		for _, q := range queries {
			if nodes := fc.Result.FindTree(q); len(nodes) > 0 {
				return nodes[0].Value, true
			}
		}
	}
	return "", false
}

// --- result helpers ---

func (e *Engine) pass(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, msg, file string) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusPass,
		Message:        msg,
		File:           file,
	}
}

func (e *Engine) fail(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, msg, detail, file string) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusFail,
		Message:        msg,
		Detail:         detail,
		File:           file,
	}
}

func (e *Engine) notApplicable(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, detail string) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusNotApplicable,
		Message:        rule.Name + " not applicable",
		Detail:         detail,
	}
}

func (e *Engine) errorResult(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, err error) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusError,
		Message:        err.Error(),
	}
}

func (e *Engine) degradedResult(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, err error) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusDegraded,
		Message:        err.Error(),
	}
}

func orDefault(s, fallback string) string {
	if s != "" {
		return s
	}
	return fallback
}
