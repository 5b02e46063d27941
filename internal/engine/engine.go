package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
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
	// validation: rule files resolve, discovered files are read and
	// parsed, and independent non-composite rules evaluate concurrently.
	// 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs the same path
	// with the pool inline on the caller's goroutine. What a scan reads,
	// where an error aborts it, and its report are the same at every
	// setting (see read and evaluate); only wall-clock time changes.
	//
	// Entities validated with Parallelism > 1 must tolerate concurrent
	// reads (every built-in entity backend does: they are immutable
	// snapshots or read-only filesystem views).
	Parallelism int
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

// NewWithOptions creates an engine with explicit execution options. When
// the crawler has a parse cache, the engine also memoizes verdicts: a
// rule judging configs of the same content as an earlier scan reuses its
// verdict instead of re-evaluating (see evalcache.go).
func NewWithOptions(c *crawler.Crawler, opts Options) *Engine {
	if c == nil {
		c = crawler.New(nil, crawler.Options{})
	}
	e := &Engine{crawler: c, opts: opts}
	if c.Cached() {
		e.memo = newEvalMemo()
	}
	return e
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
	err     error // resolving the entry's rule file, which aborts the scan
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

// scan is what a validation's read phase took of the entity, which the
// digest folds and evaluation judges.
type scan struct {
	name, typ string
	runs      []entityRun
	files     []*crawler.FileConfig // every run's configs, in manifest order
	probes    []probe
}

// probe is the one Stat of a path rule's target, or the one run of a
// script rule's feature, that a scan makes however many rules check it;
// the rules on a call that panicked degrade. verdicts memoizes verdicts
// on a feature's output.
type probe struct {
	typ      cvl.RuleType
	name     string
	fi       entity.FileInfo
	out      string
	err      error
	panicked bool
	verdicts *sigVerdicts
}

// probe returns the scan's probe for a path or script rule, or nil.
func (s *scan) probe(c *compiledRule) *probe {
	typ, name := c.rule.Type, c.rule.Name
	if typ == cvl.TypeScript {
		name = c.rule.ScriptFeature
	}
	for i := range s.probes {
		if p := &s.probes[i]; p.typ == typ && p.name == name {
			return p
		}
	}
	return nil
}

// take makes a path or script rule's entity call unless an earlier rule
// made it. s.probes has room for every such rule.
func (e *Engine) take(s *scan, ent entity.Entity, c *compiledRule) {
	if c.rule.Type != cvl.TypePath && c.rule.Type != cvl.TypeScript || s.probe(c) != nil {
		return
	}
	p := probe{typ: c.rule.Type, name: c.rule.Name}
	defer func() {
		if r := recover(); r != nil {
			p.err, p.panicked = fmt.Errorf("rule evaluation panicked: %v", r), true
		}
		s.probes = append(s.probes, p)
	}()
	if p.typ == cvl.TypePath {
		p.fi, p.err = ent.Stat(p.name)
		return
	}
	p.name = c.rule.ScriptFeature
	if p.out, p.err = ent.RunFeature(p.name); p.err == nil && e.memo != nil {
		sig := scriptSig(p.out)
		p.verdicts = e.memo.forSig(sig[:], 0)
	}
}

// CachedSource memoizes rule-file resolution and compilation — the
// production configuration for fleet scans, where the same rule library
// applies to every image and re-parsing it per entity would dominate scan
// time. Each rule file is resolved and compiled once, on first use, and
// the compiled rules live as long as the source. Safe for concurrent use.
type CachedSource struct {
	read   cvl.FileReader
	mu     sync.Mutex
	byFile map[string]*resolution
	sums   map[string][]RuleFileSum
}

// resolution is one rule file resolved: its compiled effective rules and
// the files the resolution read, child first.
type resolution struct {
	rules []*compiledRule
	chain []string
}

// RuleFileSum identifies one rule file that resolving a path reads: its
// path and the hex SHA-256 of its content.
type RuleFileSum struct {
	Path   string
	SHA256 string
}

// NewCachedSource wraps a FileReader with memoization.
func NewCachedSource(read cvl.FileReader) *CachedSource {
	return &CachedSource{read: read, byFile: make(map[string]*resolution), sums: make(map[string][]RuleFileSum)}
}

// Resolve returns the effective rules of a rule file (inheritance
// applied), compiled for evaluation. The returned slice is a fresh copy on
// every call: the engine filters rule lists in place by tag and entity
// type, and handing out the cached backing array would let one caller's
// filter clobber another's view of the shared library.
func (s *CachedSource) Resolve(path string) ([]*compiledRule, error) {
	r, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	return slices.Clone(r.rules), nil
}

// Fingerprint returns the files that resolving path reads — the rule file,
// then each parent_cvl_file up its inheritance chain — with the SHA-256 of
// each, so any edit that can change the resolved rules changes the
// fingerprint. It is computed once per source; the returned slice is
// shared and must not be modified.
func (s *CachedSource) Fingerprint(path string) ([]RuleFileSum, error) {
	s.mu.Lock()
	sums, ok := s.sums[path]
	s.mu.Unlock()
	if ok {
		return sums, nil
	}
	r, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	sums = make([]RuleFileSum, len(r.chain))
	for i, p := range r.chain {
		data, err := s.read(p)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		sums[i] = RuleFileSum{Path: p, SHA256: hex.EncodeToString(sum[:])}
	}
	s.mu.Lock()
	if incumbent, raced := s.sums[path]; raced {
		sums = incumbent
	} else {
		s.sums[path] = sums
	}
	s.mu.Unlock()
	return sums, nil
}

// resolve returns the memoized resolution of path, resolving and
// compiling it on first use.
func (s *CachedSource) resolve(path string) (*resolution, error) {
	s.mu.Lock()
	r, ok := s.byFile[path]
	s.mu.Unlock()
	if ok {
		return r, nil
	}
	r = &resolution{}
	rules, err := cvl.ResolveRules(func(p string) ([]byte, error) {
		r.chain = append(r.chain, p)
		return s.read(p)
	}, path)
	if err != nil {
		return nil, err
	}
	r.rules = compileRules(rules)
	s.mu.Lock()
	if incumbent, raced := s.byFile[path]; raced {
		// Lost a race with a concurrent resolve; keep the incumbent so
		// every caller copies from one canonical slice.
		r = incumbent
	} else {
		s.byFile[path] = r
	}
	s.mu.Unlock()
	return r, nil
}

// Validate runs every enabled manifest entry against the entity and returns
// the report. Rule files resolve through src (typically a CachedSource
// shared across a fleet scan). Composite rules are evaluated last, over the
// per-entity outcomes. A non-nil resume is a resume check between the read
// phase and the parse: it is handed the digest of what the scan read, the
// one Digest returns, and a report it returns stands for the rest of the
// scan. A scan that could not read an input has no digest and skips it.
func (e *Engine) Validate(ent entity.Entity, manifest *cvl.Manifest, src *CachedSource, resume func(digest string) (*Report, bool)) (*Report, error) {
	s, err := e.read(ent, manifest.EnabledEntries(), src, resume != nil)
	if err != nil {
		return nil, err
	}
	if resume != nil {
		if digest, err := s.digest(src); err == nil {
			if rep, ok := resume(digest); ok {
				return rep, nil
			}
		}
	}
	return e.evaluate(&s, true), nil
}

// ValidateRules applies a flat rule list to an entity using the given
// search paths — the single-entity path used by examples, tests, and the
// benchmark harness. The list is compiled for this call into a source
// holding it as its one rule file, and runs as one synthetic "default"
// entry with no manifest, so a composite rule yields StatusError in place.
func (e *Engine) ValidateRules(ent entity.Entity, rules []*cvl.Rule, searchPaths []string) (*Report, error) {
	entry := &cvl.ManifestEntry{Name: "default", Enabled: true, ConfigSearchPaths: searchPaths}
	src := &CachedSource{byFile: map[string]*resolution{entry.CVLFile: {rules: compileRules(rules)}}}
	s, err := e.read(ent, []*cvl.ManifestEntry{entry}, src, false)
	if err != nil {
		return nil, err
	}
	return e.evaluate(&s, false), nil
}

// Digest returns the hex SHA-256 identity of everything Validate reads of
// ent when it runs the manifest through src, so two entities with equal
// digests validate to byte-identical reports: the read phase folded in
// the scan's order (scan.digest), without a parse. An input the scan
// could not read, a file over the size limit included, is an error: a
// half-observed entity has no digest.
func (e *Engine) Digest(ent entity.Entity, manifest *cvl.Manifest, src *CachedSource) (string, error) {
	s, err := e.read(ent, manifest.EnabledEntries(), src, true)
	if err != nil {
		return "", err
	}
	return s.digest(src)
}

// read is the read phase of a validation: it makes every entity call the
// scan makes, and parses nothing. Each step either runs on the worker pool,
// writing only slots fixed by manifest position, or on the caller's
// goroutine in manifest order, so what is read, and the point where an
// error aborts the scan, is the same at every parallelism:
//
//  1. resolve every entry's rules concurrently (reads only the library);
//  2. walk each entry's search paths in manifest order, stopping at the
//     first resolve or walk error before any file is read;
//  3. read every discovered file concurrently, hashed when hash is set;
//  4. Stat each path rule's target and run each script rule's feature,
//     once per name, on the caller in manifest order.
func (e *Engine) read(ent entity.Entity, entries []*cvl.ManifestEntry, src *CachedSource, hash bool) (scan, error) {
	par := e.parallelism()
	s := scan{name: ent.Name(), typ: ent.Type().String(), runs: make([]entityRun, len(entries))}
	runs, typ := s.runs, s.typ
	mustRun(par, len(entries), func(i int) {
		run := &runs[i]
		run.entry = entries[i]
		rules, err := src.Resolve(run.entry.CVLFile)
		run.rules, run.err = applicable(rules, run.entry.Tags, typ), err
	})

	nfiles, nprobes := 0, 0
	for i := range runs {
		run := &runs[i]
		err := run.err
		if err == nil {
			run.configs, err = e.crawler.Discover(ent, run.entry.ConfigSearchPaths)
		}
		if err != nil {
			return scan{}, fmt.Errorf("engine: entity %s: %w", run.entry.Name, err)
		}
		nfiles += len(run.configs)
		for _, c := range run.rules {
			if c.rule.Type == cvl.TypePath || c.rule.Type == cvl.TypeScript {
				nprobes++
			}
		}
	}
	files := make([]*crawler.FileConfig, 0, nfiles)
	for i := range runs {
		files = append(files, runs[i].configs...)
	}
	mustRun(par, len(files), func(i int) { e.crawler.Read(ent, files[i], hash) })
	s.files, s.probes = files, make([]probe, 0, nprobes)
	for i := range runs {
		for _, c := range runs[i].rules {
			e.take(&s, ent, c)
		}
	}
	return s, nil
}

// digest folds what the read phase took into the hex cvdigest/2 identity:
// the entity type; per entry, its name, tags, search paths and rule-chain
// Fingerprint, every file Discover listed with its metadata and content
// sum, and the Stat or feature output each path or script rule checks.
// Nothing else a scan could see, such as modification times or the
// package database, is read, so nothing else is folded.
func (s *scan) digest(src *CachedSource) (string, error) {
	d := digestWriter{h: sha256.New(), buf: make([]byte, 0, 256)}
	d.str("cvdigest/2")
	d.str(s.typ)
	for i := range s.runs {
		run := &s.runs[i]
		sums, err := src.Fingerprint(run.entry.CVLFile)
		if err != nil {
			return "", fmt.Errorf("entity %s: rule file %s: %w", run.entry.Name, run.entry.CVLFile, err)
		}
		d.str(run.entry.Name)
		d.strs(run.entry.Tags)
		d.strs(run.entry.ConfigSearchPaths)
		d.num(int64(len(sums)))
		for _, f := range sums {
			d.str(f.Path)
			d.str(f.SHA256)
		}
		d.num(int64(len(run.configs)))
		for _, fc := range run.configs {
			if fc.Err != nil {
				return "", fmt.Errorf("entity %s: %w", run.entry.Name, fc.Err)
			}
			d.str(fc.Path)
			d.stat(fc.Info)
			d.num(fc.Info.Size)
			d.h.Write(fc.Sum())
		}
		for _, c := range run.rules {
			switch p := s.probe(c); {
			case p == nil:
			case p.err == nil && p.typ == cvl.TypePath:
				d.str("stat")
				d.stat(p.fi)
			case p.err == nil:
				d.str("feature")
				d.str(p.out)
			case p.typ == cvl.TypePath && errors.Is(p.err, entity.ErrNotExist):
				d.str("absent")
			case p.typ == cvl.TypeScript && errors.Is(p.err, entity.ErrNoFeature):
				d.str("no-feature")
			default:
				return "", fmt.Errorf("entity %s: %s: %w", run.entry.Name, p.name, p.err)
			}
		}
	}
	return hex.EncodeToString(d.h.Sum(d.buf[:0])), nil
}

// evaluate is the rest of a validation, and makes no entity call: it
// parses every file read concurrently, then settles what needs no
// evaluation on the caller, in manifest order (each rule's eval fault
// check, then its verdict-memo lookup), and evaluates the remaining
// non-composite rules concurrently. Composites evaluate last, serially,
// so a later composite observes an earlier one's outcome. Without a
// manifest there are no other entities for a composite to refer to, so
// composites evaluate in place (to StatusError) instead.
func (e *Engine) evaluate(s *scan, manifest bool) *Report {
	par, files := e.parallelism(), s.files
	mustRun(par, len(files), func(i int) { e.crawler.Parse(files[i]) })

	// Every result of the report lives in one block, and each run appends
	// to its own window of the report's result list, sized to its result
	// count, so the windows fill the list in manifest order. The task list
	// has room for every rule that may reach the pool: all of them, less
	// the memo candidates when a memo can settle those first.
	runs := s.runs
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
	add := func(run *entityRun, rule *compiledRule, v verdict) *Result {
		res := &block[0]
		block = block[1:]
		res.EntityName, res.ManifestEntity = s.name, run.entry.Name
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
		p    *probe
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
				tasks = append(tasks, evalTask{run: run, res: res, rule: rule, p: s.probe(rule)})
			}
		}
		run.verdicts.runlock()
	}
	mustRun(par, len(tasks), func(i int) {
		t := tasks[i]
		t.res.set(e.safeEvalRule(t.run, t.rule, t.p))
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

	report := &Report{EntityName: s.name, EntityType: s.typ}
	if total > 0 {
		report.Results = results
	}
	return report
}

// digestWriter folds length-prefixed fields into a hash, so two different
// sequences of fields never hash alike.
type digestWriter struct {
	h   hash.Hash
	buf []byte
}

func (d *digestWriter) str(s string) {
	d.buf = append(binary.AppendUvarint(d.buf[:0], uint64(len(s))), s...)
	d.h.Write(d.buf)
}

func (d *digestWriter) strs(ss []string) {
	d.num(int64(len(ss)))
	for _, s := range ss {
		d.str(s)
	}
}

func (d *digestWriter) num(n int64) {
	d.buf = binary.AppendVarint(d.buf[:0], n)
	d.h.Write(d.buf)
}

// stat folds in the metadata a path rule checks: mode and owner.
func (d *digestWriter) stat(fi entity.FileInfo) {
	d.num(int64(fi.Mode))
	d.num(int64(fi.UID))
	d.num(int64(fi.GID))
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
	p := &pool{n: n, task: task, panicIdx: -1}
	p.finished.Add(n)
	for w := 1; w < min(par, n); w++ {
		go p.work()
	}
	p.work()
	p.finished.Wait()
	return p.panicVal
}

// pool is the shared state of one runParallel call.
type pool struct {
	n        int
	task     func(i int)
	next     atomic.Int64   // next task index to claim
	finished sync.WaitGroup // one count per task
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
		p.finished.Done()
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
func (e *Engine) safeEvalRule(run *entityRun, rule *compiledRule, p *probe) (v verdict) {
	defer func() {
		if r := recover(); r != nil {
			v = degraded(fmt.Errorf("rule evaluation panicked: %v", r))
		}
	}()
	v = e.evalRule(run, rule, p)
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

func (e *Engine) evalRule(run *entityRun, rule *compiledRule, p *probe) verdict {
	switch rule.rule.Type {
	case cvl.TypeTree:
		return rule.evalTree(run.configs)
	case cvl.TypeSchema:
		return rule.evalSchema(run.configs)
	case cvl.TypePath:
		return rule.evalPath(p, run)
	case cvl.TypeScript:
		return rule.evalScript(p)
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
		failWhy             cvl.Mismatch
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
				why, value, err := c.value.Check(n.Value)
				if err != nil {
					return errorVerdict(err)
				}
				if why == cvl.ValueOK {
					passed++
				} else if failWhy == cvl.ValueOK {
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
	return fail(c.msgFail, failWhy.Detail(failValue), failFile)
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

// anyTreeHasKey reports whether a candidate tree holds the required key
// at any depth, directly under its root included.
func (c *compiledRule) anyTreeHasKey(configs []*crawler.FileConfig, req *requiredKey, scratch []*configtree.Node) bool {
	for _, fc := range configs {
		if c.treeCandidate(fc) && len(fc.Result.Tree.AppendFind(scratch, req.anywhere)) > 0 {
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
		why, _, err := c.value.Check(v)
		if err != nil {
			return errorVerdict(err)
		}
		if why != cvl.ValueOK {
			return fail(c.msgFail, why.Detail(v), sourceFile)
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

// evalPath judges the Stat the read phase took of the rule's path.
func (c *compiledRule) evalPath(p *probe, run *entityRun) verdict {
	rule, fi := c.rule, p.fi
	switch {
	case p.panicked:
		return degraded(p.err)
	case p.err != nil && !errors.Is(p.err, entity.ErrNotExist):
		return errorVerdict(p.err)
	case p.err != nil:
		if rule.Exists != nil && !*rule.Exists {
			return pass(c.msgPass, rule.Name)
		}
		// When the manifest entry searched for configuration and found
		// none, the application is not present on this entity and the
		// path rule does not apply (an image without Apache shouldn't
		// fail Apache's file-permission checks).
		if len(run.configs) == 0 && len(run.entry.ConfigSearchPaths) > 0 {
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

// evalScript judges the feature output the read phase took for the rule.
// The verdict on a feature output is entity-independent, so fleets whose
// entities answer a feature identically judge that answer once.
func (c *compiledRule) evalScript(p *probe) verdict {
	switch {
	case p.panicked:
		return degraded(p.err)
	case errors.Is(p.err, entity.ErrNoFeature):
		return c.notApplicable(fmt.Sprintf("runtime feature %q not available on this entity", c.rule.ScriptFeature))
	case p.err != nil:
		return errorVerdict(p.err)
	}
	if v, ok := p.verdicts.get(c.rule); ok {
		return v
	}
	v := c.judgeScript(p.out)
	p.verdicts.put(c.rule, v)
	return v
}

// judgeScript judges one feature output against the rule's matchers.
func (c *compiledRule) judgeScript(output string) verdict {
	why, _, err := c.value.Check(output)
	if err != nil {
		return errorVerdict(err)
	}
	if why == cvl.ValueOK {
		return pass(c.msgPass, "")
	}
	return fail(c.msgFail, why.Detail(output), "")
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
	prefix := ""
	if section != "" {
		prefix = section + "/"
	}
	queries := [...]configtree.Query{
		configtree.Compile(prefix + key),
		configtree.Compile(prefix + strings.ReplaceAll(key, ".", "/")),
		configtree.Compile("**/" + prefix + key),
	}
	var scratch [8]*configtree.Node
	for _, fc := range run.configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindTree || fc.Result.Tree == nil {
			continue
		}
		for _, q := range queries {
			if nodes := fc.Result.Tree.AppendFind(scratch[:0], q); len(nodes) > 0 {
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
