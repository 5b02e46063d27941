package engine

import (
	"errors"
	"fmt"
	"path"
	"runtime"
	"slices"
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
	return &Engine{crawler: c, opts: opts, memo: newEvalMemo(opts.EvalCacheSize)}
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
	rules   []*compiledRule
	configs []*crawler.FileConfig
	results []*Result
	// verdicts is the memo table for this run's config signature; nil
	// when the memo is disabled.
	verdicts *sigVerdicts
}

// resultCount is the number of results the run reports: one per file
// that could not be read or parsed, and one per rule.
func (r *entityRun) resultCount() int {
	n := len(r.rules)
	for _, fc := range r.configs {
		if fc.Err != nil {
			n++
		}
	}
	return n
}

// RuleSource resolves a rule-file path to its effective rules (inheritance
// applied), compiled for evaluation. Each call returns a slice the caller
// owns and may filter in place; the compiled rules in it are shared and
// immutable.
type RuleSource interface {
	Resolve(path string) ([]*compiledRule, error)
}

// ruleList is the RuleSource of ValidateRules: a list compiled for one
// call and handed to that call's single entry.
type ruleList []*compiledRule

func (l ruleList) Resolve(string) ([]*compiledRule, error) { return l, nil }

// CachedSource memoizes rule-file resolution and compilation — the
// production configuration for fleet scans, where the same rule library
// applies to every image and re-parsing it per entity would dominate scan
// time. Each rule file is resolved and compiled once, on first use, and
// the compiled rules live as long as the source. Safe for concurrent use.
type CachedSource struct {
	read   cvl.FileReader
	mu     sync.Mutex
	byFile map[string][]*compiledRule
}

var _ RuleSource = (*CachedSource)(nil)

// NewCachedSource wraps a FileReader with memoization.
func NewCachedSource(read cvl.FileReader) *CachedSource {
	return &CachedSource{read: read, byFile: make(map[string][]*compiledRule)}
}

// Resolve implements RuleSource. The returned slice is a fresh copy on
// every call: the engine filters rule lists in place by tag and entity
// type, and handing out the cached backing array would let one caller's
// filter clobber another's view of the shared library.
func (s *CachedSource) Resolve(path string) ([]*compiledRule, error) {
	s.mu.Lock()
	cached, ok := s.byFile[path]
	s.mu.Unlock()
	if !ok {
		rules, err := cvl.ResolveRules(s.read, path)
		if err != nil {
			return nil, err
		}
		compiled := compileRules(rules)
		s.mu.Lock()
		if incumbent, raced := s.byFile[path]; raced {
			// Lost a race with a concurrent resolve; keep the incumbent
			// so every caller copies from one canonical slice.
			cached = incumbent
		} else {
			s.byFile[path] = compiled
			cached = compiled
		}
		s.mu.Unlock()
	}
	return slices.Clone(cached), nil
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
// benchmark harness. The list is compiled for this call and runs as one
// synthetic "default" entry with no manifest, so a composite rule yields
// StatusError in place.
func (e *Engine) ValidateRules(ent entity.Entity, rules []*cvl.Rule, searchPaths []string) (*Report, error) {
	entry := &cvl.ManifestEntry{Name: "default", Enabled: true, ConfigSearchPaths: searchPaths}
	return e.validate(ent, []*cvl.ManifestEntry{entry}, ruleList(compileRules(rules)), false)
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
//  4. settle what needs no evaluation on the caller, in manifest order —
//     each rule's eval fault check, then its verdict-memo lookup — and
//     evaluate the remaining non-composite rules concurrently;
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
		rules, err := src.Resolve(run.entry.CVLFile)
		run.rules, errs[i] = applicable(rules, run.entry.Tags, typ), err
	})

	nfiles := 0
	for i := range runs {
		run := &runs[i]
		err := errs[i]
		if err == nil {
			run.configs, err = e.crawler.Discover(ent, run.entry.ConfigSearchPaths)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: entity %s: %w", run.entry.Name, err)
		}
		nfiles += len(run.configs)
	}
	files := make([]*crawler.FileConfig, 0, nfiles)
	for i := range runs {
		files = append(files, runs[i].configs...)
	}
	mustRun(par, len(files), func(i int) { e.crawler.Load(ent, files[i]) })

	// Every result of the report lives in one block, and each run appends
	// to its own window of the report's result list, sized to its result
	// count, so the windows fill the list in manifest order. The task list
	// has room for every rule that may reach the pool: all of them, less
	// the memo candidates when a memo can settle those first.
	total, maxTasks := 0, 0
	for i := range runs {
		total += runs[i].resultCount()
		for _, rule := range runs[i].rules {
			if e.memo == nil || !memoizable(rule.rule) {
				maxTasks++
			}
		}
	}
	block := make([]Result, total)
	results := make([]*Result, total)
	name := ent.Name()
	add := func(run *entityRun, rule *compiledRule, v verdict) *Result {
		res := &block[0]
		block = block[1:]
		res.EntityName, res.ManifestEntity = name, run.entry.Name
		if rule != nil {
			res.Rule = rule.rule
		}
		res.set(v)
		run.results = append(run.results, res)
		return res
	}

	type evalTask struct {
		run  *entityRun
		res  *Result
		rule *compiledRule
	}
	tasks := make([]evalTask, 0, maxTasks)
	var composites []evalTask
	off := 0
	for i := range runs {
		run := &runs[i]
		n := run.resultCount()
		run.results = results[off : off : off+n]
		off += n
		if e.memo != nil {
			var buf [256]byte
			run.verdicts = e.memo.forSig(configSig(buf[:0], run.configs), len(run.rules))
		}
		// Files that could not be read or parsed seed degraded findings:
		// the scan continues, but their checks cannot be trusted this pass.
		for _, fc := range run.configs {
			if fc.Err != nil {
				add(run, nil, verdict{status: StatusDegraded, message: fc.Err.Error(), file: fc.Path})
			}
		}
		run.verdicts.rlock()
		for _, rule := range run.rules {
			if manifest && rule.rule.Type == cvl.TypeComposite {
				composites = append(composites, evalTask{run: run, rule: rule})
				continue
			}
			v, settled := e.settle(run, rule)
			res := add(run, rule, v)
			if !settled {
				tasks = append(tasks, evalTask{run: run, res: res, rule: rule})
			}
		}
		run.verdicts.runlock()
	}
	mustRun(par, len(tasks), func(i int) {
		t := tasks[i]
		t.res.set(e.safeEvalRule(ent, t.run, t.rule))
	})

	if len(composites) > 0 {
		resolver := &runResolver{runs: make(map[string]*entityRun, len(runs))}
		for i := range runs {
			resolver.runs[runs[i].entry.Name] = &runs[i]
		}
		for _, c := range composites {
			// Evaluate before adding: a composite must not see its own
			// slot among the outcomes it combines.
			add(c.run, c.rule, e.safeEvalComposite(c.run.entry, c.rule, resolver))
		}
	}

	report := &Report{EntityName: name, EntityType: typ}
	if total > 0 {
		report.Results = results
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
// from a shared counter. The caller is one of the workers and starts the
// other min(par, n)-1; it returns once every task has finished, so when
// the caller alone drains a short phase it never waits for a helper that
// found no work. With par <= 1 the caller runs the tasks in order. A
// panicking task is recovered and remembered; the pool drains fully and
// the panic value of the lowest task index is returned for the caller to
// re-panic, so panic propagation is deterministic and no task is still
// running when runParallel returns.
func runParallel(par, n int, task func(i int)) (panicVal any) {
	if par <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if r := protect(task, i); r != nil && panicVal == nil {
				panicVal = r
			}
		}
		return panicVal
	}
	p := &pool{n: n, task: task, panicIdx: -1, done: make(chan struct{})}
	for w := 1; w < min(par, n); w++ {
		go p.work()
	}
	p.work()
	<-p.done
	return p.panicVal
}

// pool is the shared state of one runParallel call.
type pool struct {
	n        int
	task     func(i int)
	next     atomic.Int64 // next task index to claim
	finished atomic.Int64 // tasks finished; the n-th closes done
	done     chan struct{}
	mu       sync.Mutex
	panicIdx int // lowest index that panicked; -1 for none
	panicVal any
}

// work claims and runs tasks until none are left. A helper that starts
// after the last task was claimed touches nothing but the counter.
func (p *pool) work() {
	for i := int(p.next.Add(1)) - 1; i < p.n; i = int(p.next.Add(1)) - 1 {
		if r := protect(p.task, i); r != nil {
			p.mu.Lock()
			if p.panicIdx < 0 || i < p.panicIdx {
				p.panicIdx, p.panicVal = i, r
			}
			p.mu.Unlock()
		}
		if p.finished.Add(1) == int64(p.n) {
			close(p.done)
		}
	}
}

// protect runs task(i) and returns the value it panicked with, or nil.
func protect(task func(i int), i int) (panicVal any) {
	defer func() { panicVal = recover() }()
	task(i)
	return nil
}

// settle decides a rule's result on the caller's goroutine when no
// evaluation is needed: an injected eval fault degrades the rule, and a
// verdict-memo hit reuses an earlier evaluation. Running both in manifest
// order makes a fault trigger land on the same rule at every parallelism,
// and the fault check precedes the memo lookup so a chaos schedule uses
// up injections identically on warm and cold caches. The caller holds the
// run's verdict table read-locked.
func (e *Engine) settle(run *entityRun, rule *compiledRule) (verdict, bool) {
	if e.faults != nil {
		if v, faulted := e.checkFault(run.entry, rule, "rule evaluation"); faulted {
			return v, true
		}
	}
	if memoizable(rule.rule) {
		return run.verdicts.lookup(rule.rule)
	}
	return verdict{}, false
}

// checkFault consults the armed injector for an eval fault on the rule:
// an injected error, or an injected panic recovered here, degrades the
// rule's result.
func (e *Engine) checkFault(entry *cvl.ManifestEntry, rule *compiledRule, what string) (v verdict, faulted bool) {
	defer func() {
		if r := recover(); r != nil {
			v, faulted = degraded(fmt.Errorf("%s panicked: %v", what, r)), true
		}
	}()
	if err := e.faults.Check(faults.OpEval, entry.Name+"/"+rule.rule.Name); err != nil {
		return degraded(err), true
	}
	return verdict{}, false
}

// safeEvalRule evaluates one rule with panic isolation: a panicking
// matcher or lens structure degrades that single rule's result instead of
// aborting the entity scan. A memoizable verdict is stored for the run's
// config signature; a panicked outcome never is.
func (e *Engine) safeEvalRule(ent entity.Entity, run *entityRun, rule *compiledRule) (v verdict) {
	defer func() {
		if r := recover(); r != nil {
			v = degraded(fmt.Errorf("rule evaluation panicked: %v", r))
		}
	}()
	v = e.evalRule(ent, run.entry, rule, run.configs)
	if memoizable(rule.rule) {
		run.verdicts.put(rule.rule, v)
	}
	return v
}

// safeEvalComposite is checkFault plus safeEvalRule for composite rules.
func (e *Engine) safeEvalComposite(entry *cvl.ManifestEntry, rule *compiledRule, resolver cvl.CompositeResolver) (v verdict) {
	if e.faults != nil {
		if v, faulted := e.checkFault(entry, rule, "composite evaluation"); faulted {
			return v
		}
	}
	defer func() {
		if r := recover(); r != nil {
			v = degraded(fmt.Errorf("composite evaluation panicked: %v", r))
		}
	}()
	return rule.evalComposite(resolver)
}

func (e *Engine) evalRule(ent entity.Entity, entry *cvl.ManifestEntry, rule *compiledRule, configs []*crawler.FileConfig) verdict {
	switch rule.rule.Type {
	case cvl.TypeTree:
		return rule.evalTree(configs)
	case cvl.TypeSchema:
		return rule.evalSchema(configs)
	case cvl.TypePath:
		return rule.evalPath(ent, entry, configs)
	case cvl.TypeScript:
		return e.evalScript(ent, rule)
	case cvl.TypeComposite:
		// Only a flat rule list gets here: manifest runs defer composites.
		return errorVerdict(errors.New("composite rules require a manifest context"))
	default:
		return errorVerdict(fmt.Errorf("unsupported rule type %v", rule.rule.Type))
	}
}

// --- tree rules ---

// evalTree checks every node the rule's queries find in the candidate
// trees. Hits stream straight into the verdict, and the failure detail is
// formatted only when the rule fails.
func (c *compiledRule) evalTree(configs []*crawler.FileConfig) verdict {
	candidates := 0
	for _, fc := range configs {
		if c.treeCandidate(fc) {
			candidates++
		}
	}
	if candidates == 0 {
		return c.notApplicable("no matching configuration files found")
	}

	// require_other_configs: every listed key must exist somewhere in the
	// candidate trees, else the rule does not apply (e.g. ssl_protocols
	// rules only bind to servers that actually configure SSL).
	var scratch [8]*configtree.Node
	for i := range c.required {
		if !c.anyTreeHasKey(configs, &c.required[i], scratch[:0]) {
			return c.notApplicable(fmt.Sprintf("required config %q not present", c.required[i].key))
		}
	}

	var (
		hits, passed        int
		firstFile           string
		failWhy             mismatch
		failValue, failFile string
	)
scan:
	for _, fc := range configs {
		if !c.treeCandidate(fc) {
			continue
		}
		for _, q := range c.queries {
			for _, n := range fc.Result.Tree.AppendFind(scratch[:0], q) {
				hits++
				if hits == 1 {
					firstFile = fc.Path
				}
				why, value, err := c.checkNode(n.Value)
				if err != nil {
					return errorVerdict(err)
				}
				if why == matchOK {
					passed++
				} else if failWhy == matchOK {
					failWhy, failValue, failFile = why, value, fc.Path
				}
				if c.rule.Occurrence == "first" {
					break scan
				}
			}
		}
	}
	if hits == 0 {
		if c.rule.AbsentPass {
			return pass(c.msgAbsent, "")
		}
		return fail(c.msgAbsent, "key not found in "+c.candidateFiles(configs), "")
	}
	// "all" (the default) needs every hit to pass, "first" its one hit.
	ok := passed == hits
	if c.rule.Occurrence == "any" {
		ok = passed > 0
	}
	if ok {
		return pass(c.msgPass, firstFile)
	}
	return fail(c.msgFail, failWhy.detail(failValue), failFile)
}

// treeCandidate reports whether a crawled file is a parsed tree the rule's
// file_context selects.
func (c *compiledRule) treeCandidate(fc *crawler.FileConfig) bool {
	return fc.Err == nil && fc.Result != nil && fc.Result.Kind == lens.KindTree &&
		matchesFileContext(fc.Path, c.rule.FileContext)
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

// anyTreeHasKey reports whether a candidate tree holds the required key,
// at any depth or directly under its root.
func (c *compiledRule) anyTreeHasKey(configs []*crawler.FileConfig, req *requiredKey, scratch []*configtree.Node) bool {
	for _, fc := range configs {
		if !c.treeCandidate(fc) {
			continue
		}
		if len(fc.Result.Tree.AppendFind(scratch, req.anywhere)) > 0 {
			return true
		}
		if _, ok := fc.Result.Tree.Child(req.key); ok {
			return true
		}
	}
	return false
}

// candidateFiles lists the candidate trees' paths for a not-found detail.
func (c *compiledRule) candidateFiles(configs []*crawler.FileConfig) string {
	var names []string
	for _, fc := range configs {
		if c.treeCandidate(fc) {
			names = append(names, fc.Path)
		}
	}
	return strings.Join(names, ", ")
}

// --- schema rules ---

func (c *compiledRule) evalSchema(configs []*crawler.FileConfig) verdict {
	rule := c.rule
	var tables []*schema.Table
	for _, fc := range configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindSchema {
			continue
		}
		tables = append(tables, fc.Result.Table)
	}
	if len(tables) == 0 {
		return c.notApplicable("no schema-pattern configuration files found")
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
			return errorVerdict(err)
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
			return errorVerdict(err)
		}
		if !ok {
			return fail(describe(rule.NotMatchedDescription, rule.Name, " row-count expectation failed"),
				fmt.Sprintf("query returned %d rows, expected %s", totalRows, rule.ExpectRows), sourceFile)
		}
		if len(rule.PreferredValue) == 0 && len(rule.NonPreferredValue) == 0 {
			return pass(describe(rule.MatchedDescription, rule.Name, " row-count expectation met"), sourceFile)
		}
	}
	// Value matching over result rows; an empty result contributes the
	// single empty-string candidate, which is how Listing 3 detects
	// "/tmp not on a separate partition" with non_preferred_value [""].
	if len(values) == 0 {
		values = []string{""}
	}
	for _, v := range values {
		why, err := c.check(v)
		if err != nil {
			return errorVerdict(err)
		}
		if why != matchOK {
			return fail(c.msgFail, why.detail(v), sourceFile)
		}
	}
	return pass(c.msgPass, sourceFile)
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

func (c *compiledRule) evalPath(ent entity.Entity, entry *cvl.ManifestEntry, configs []*crawler.FileConfig) verdict {
	rule := c.rule
	fi, err := ent.Stat(rule.Name)
	if err != nil {
		if !errors.Is(err, entity.ErrNotExist) {
			return errorVerdict(err)
		}
		if rule.Exists != nil && !*rule.Exists {
			return pass(c.msgPass, rule.Name)
		}
		// When the manifest entry searched for configuration and found
		// none, the application is not present on this entity and the
		// path rule does not apply (an image without Apache shouldn't
		// fail Apache's file-permission checks).
		if len(configs) == 0 && len(entry.ConfigSearchPaths) > 0 {
			return c.notApplicable("target application not present on this entity")
		}
		return fail(c.msgAbsent, "path not found", rule.Name)
	}
	if rule.Exists != nil && !*rule.Exists {
		return fail(c.msgFail, "path exists", rule.Name)
	}
	if rule.Ownership != "" && fi.Ownership() != rule.Ownership {
		return fail(describe(rule.NotMatchedDescription, rule.Name, " has wrong ownership"),
			fmt.Sprintf("ownership %s, want %s", fi.Ownership(), rule.Ownership), rule.Name)
	}
	if rule.Permission >= 0 && fi.Perm() != rule.Permission {
		return fail(describe(rule.NotMatchedDescription, rule.Name, " has wrong permissions"),
			fmt.Sprintf("mode %04o, want %04o", fi.Perm(), rule.Permission), rule.Name)
	}
	if rule.MaxPermission >= 0 && fi.Perm()&^rule.MaxPermission != 0 {
		return fail(describe(rule.NotMatchedDescription, rule.Name, " permissions too open"),
			fmt.Sprintf("mode %04o exceeds maximum %04o", fi.Perm(), rule.MaxPermission), rule.Name)
	}
	return pass(c.msgPass, rule.Name)
}

// --- script rules ---

func (e *Engine) evalScript(ent entity.Entity, c *compiledRule) verdict {
	output, err := ent.RunFeature(c.rule.ScriptFeature)
	if err != nil {
		if errors.Is(err, entity.ErrNoFeature) {
			return c.notApplicable(fmt.Sprintf("runtime feature %q not available on this entity", c.rule.ScriptFeature))
		}
		return errorVerdict(err)
	}
	// The verdict on a feature output is entity-independent — memoize it
	// so fleets whose entities answer a feature identically judge that
	// answer once.
	var verdicts *sigVerdicts
	if e.memo != nil {
		sig := scriptSig(output)
		verdicts = e.memo.forSig(sig[:], 0)
	}
	if v, ok := verdicts.get(c.rule); ok {
		return v
	}
	v := c.judgeScript(output)
	verdicts.put(c.rule, v)
	return v
}

// judgeScript judges one feature output against the rule's matchers.
func (c *compiledRule) judgeScript(output string) verdict {
	why, err := c.check(output)
	if err != nil {
		return errorVerdict(err)
	}
	if why == matchOK {
		return pass(c.msgPass, "")
	}
	return fail(c.msgFail, why.detail(output), "")
}

// --- composite rules ---

func (c *compiledRule) evalComposite(resolver cvl.CompositeResolver) verdict {
	ok, err := c.rule.CompositeExpr.Eval(resolver)
	if err != nil {
		return errorVerdict(err)
	}
	if ok {
		return pass(c.msgPass, "")
	}
	return fail(c.msgFail, "composite expression evaluated false", "")
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
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindTree || fc.Result.Tree == nil {
			continue
		}
		for _, q := range queries {
			if nodes := fc.Result.Tree.Find(q); len(nodes) > 0 {
				return nodes[0].Value, true
			}
		}
	}
	return "", false
}

// notApplicable is the verdict of a rule with nothing to check.
func (c *compiledRule) notApplicable(detail string) verdict {
	return verdict{status: StatusNotApplicable, message: c.msgNA, detail: detail}
}
