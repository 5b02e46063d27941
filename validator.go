// Package configvalidator is a declarative configuration-validation system
// for applications, systems, and cloud — a reproduction of ConfigValidator
// (Baset et al., Middleware Industry '17). Rules are written in the
// Configuration Validation Language (CVL), a YAML-based declarative
// language with five rule types (config tree, schema, path, script,
// composite), and are applied uniformly across heterogeneous entities:
// hosts, Docker images, running containers, cloud runtimes, and offline
// configuration frames.
//
// The top-level Validator wires the pipeline of the paper's Figure 1:
// config extraction (crawler) → data normalization (lenses) → rule engine →
// output processing.
//
//	v, err := configvalidator.New()                  // built-in 135-rule library
//	report, err := v.Validate(entityToScan)
//	configvalidator.WriteText(os.Stdout, report, configvalidator.OutputOptions{})
package configvalidator

import (
	"errors"
	"fmt"
	"io"
	"time"

	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/journal"
	"configvalidator/internal/lens"
	"configvalidator/internal/output"
	"configvalidator/internal/remediate"
	"configvalidator/internal/rules"
	"configvalidator/internal/telemetry"
)

// Re-exported core types, so typical use needs only this package.
type (
	// Entity is a validation target: host, image, container, cloud, frame.
	Entity = entity.Entity
	// Report aggregates all rule results for one entity.
	Report = engine.Report
	// Result is one rule outcome.
	Result = engine.Result
	// Status is a rule outcome status (pass/fail/N-A/error).
	Status = engine.Status
	// Rule is a parsed CVL rule.
	Rule = cvl.Rule
	// Manifest describes which entities to validate with which rule files.
	Manifest = cvl.Manifest
	// FileReader resolves rule-file paths to content.
	FileReader = cvl.FileReader
	// OutputOptions control report rendering.
	OutputOptions = output.Options
	// Collector accumulates runtime metrics across scans and HTTP
	// requests; see WithTelemetry and the telemetry package.
	Collector = telemetry.Collector
	// MetricsSnapshot is a point-in-time copy of a Collector's counters.
	MetricsSnapshot = telemetry.Snapshot
	// PanicError is a recovered scan panic carrying the stack; fleet
	// scanning converts worker panics into FleetResult.Err of this type.
	PanicError = engine.PanicError
	// FaultInjector is a deterministic fault injector for chaos testing;
	// see WithFaults and the faults package.
	FaultInjector = faults.Injector
	// ParseCache is the fleet-scoped content-addressed parse cache; see
	// WithParseCache.
	ParseCache = crawler.ParseCache
	// ParseCacheStats is a point-in-time copy of a ParseCache's counters.
	ParseCacheStats = crawler.ParseCacheStats
	// Journal is the durable, replayable per-entity result log that makes
	// fleet scans crash-safe and resumable; see FleetOptions.Journal and
	// the journal package.
	Journal = journal.Journal
	// JournalOptions tune a journal (fsync policy, metrics sink).
	JournalOptions = journal.Options
	// JournalRecord is one journaled per-entity outcome.
	JournalRecord = journal.Record
	// JournalReport is the journal's handle on a committed Report: the
	// journal encodes it as JSON without copying, decodes it straight back
	// into a Report, and JournalReport.Report returns that Report, which
	// renders byte-identically to the original.
	JournalReport = journal.ReportRecord
	// JournalStats is a point-in-time copy of a journal's counters.
	JournalStats = journal.Stats
)

// ErrNotJournal reports an OpenJournal path holding a file that is not a
// configvalidator journal — recovery refuses to truncate what it does not
// own.
var ErrNotJournal = journal.ErrNotJournal

// OpenJournal creates or recovers the durable result journal at path.
// Recovery replays every valid record and truncates any torn or corrupt
// tail; it never fails on corruption, only on I/O errors or on a file that
// is not a journal (ErrNotJournal). Pass the collector from WithTelemetry
// as JournalOptions.Metrics to surface the journal counters.
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	return journal.Open(path, opts)
}

// Status values, re-exported.
const (
	StatusPass          = engine.StatusPass
	StatusFail          = engine.StatusFail
	StatusNotApplicable = engine.StatusNotApplicable
	StatusError         = engine.StatusError
	// StatusDegraded marks a check whose input data was incomplete — an
	// unreadable or corrupt config file, a panicking lens or rule. The
	// scan completed; this one result cannot be trusted.
	StatusDegraded = engine.StatusDegraded
)

// DefaultParseCacheSize is the parse-cache capacity (in files) used when
// NewParseCache is given a non-positive value.
const DefaultParseCacheSize = crawler.DefaultParseCacheSize

// ErrUnknownTarget reports a ValidateTarget call naming a manifest entity
// that does not exist — a caller mistake, not a validation failure. The
// HTTP service uses it to separate client errors from server-side faults
// in its circuit-breaker accounting.
var ErrUnknownTarget = errors.New("unknown manifest entity")

// Validator is the configured validation pipeline. Rule files resolve
// through a shared memoizing source, so repeated scans (fleets, watchers)
// parse the rule library once.
type Validator struct {
	manifest  *cvl.Manifest
	source    *engine.CachedSource
	engine    *engine.Engine
	telemetry *telemetry.Collector
	faults    *faults.Injector
	cache     *crawler.ParseCache
}

// Option customizes a Validator.
type Option func(*config)

type config struct {
	manifest    *cvl.Manifest
	reader      cvl.FileReader
	registry    *lens.Registry
	extended    bool
	telemetry   *telemetry.Collector
	faults      *faults.Injector
	parseCache  *crawler.ParseCache
	parallelism int
}

// WithManifest uses a custom manifest and rule-file reader instead of the
// built-in rule library.
func WithManifest(m *cvl.Manifest, reader cvl.FileReader) Option {
	return func(c *config) {
		c.manifest = m
		c.reader = reader
	}
}

// WithExtendedRules selects the built-in library plus the extended rule
// pack (passwd, group, limits, cron — 147 rules over 15 targets), the
// post-paper expansion described in DESIGN.md.
func WithExtendedRules() Option {
	return func(c *config) { c.extended = true }
}

// WithLensRegistry replaces the default lens registry.
func WithLensRegistry(r *lens.Registry) Option {
	return func(c *config) { c.registry = r }
}

// WithTelemetry attaches a metrics collector: every Validate /
// ValidateTarget call (and therefore every fleet scan and HTTP
// validation request routed through this Validator) records its latency
// and result counts into it. Share one collector across a Validator and
// the HTTP server to get a single operational view; read it with
// Collector.Snapshot or render it with Collector.WritePrometheus.
func WithTelemetry(c *telemetry.Collector) Option {
	return func(cfg *config) { cfg.telemetry = c }
}

// NewCollector creates an empty metrics collector for WithTelemetry.
func NewCollector() *Collector { return telemetry.NewCollector() }

// WithFaults arms deterministic fault injection across the pipeline:
// entity access (read/walk/stat/feature), lens parsing, and rule
// evaluation. Chaos runs build the injector from the CV_FAULTS spec via
// FaultsFromEnv; tests construct one programmatically. A nil injector is
// inert, and with injection disabled the pipeline pays only nil checks —
// no wrapping, no allocations.
func WithFaults(inj *FaultInjector) Option {
	return func(c *config) { c.faults = inj }
}

// WithParallelism bounds the engine's intra-entity worker pool: manifest
// entries are prepared concurrently and independent non-composite rules
// evaluate concurrently, with results gathered into the same deterministic
// report order as a serial run. 0 (the default) uses GOMAXPROCS; 1 keeps
// the serial path. This composes with FleetOptions.Workers: fleet workers
// parallelize across entities, this option parallelizes within one.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithParseCache attaches a content-addressed parse cache: identical file
// content (same lens, path, and SHA-256) parses once across every entity
// scanned through this Validator — the fleet-dedup observation that images
// overwhelmingly share /etc payloads. When telemetry is also attached, the
// cache reports hit/miss/eviction counters through it. Share one cache
// across Validators to widen the dedup scope.
func WithParseCache(cache *ParseCache) Option {
	return func(c *config) { c.parseCache = cache }
}

// NewParseCache creates a parse cache for WithParseCache holding at most
// capacity parsed files (<= 0 uses a 4096-entry default), evicting LRU.
func NewParseCache(capacity int) *ParseCache { return crawler.NewParseCache(capacity) }

// ParseFaults builds a fault injector from a CV_FAULTS-style spec string.
func ParseFaults(spec string) (*FaultInjector, error) { return faults.Parse(spec) }

// FaultsFromEnv builds a fault injector from the CV_FAULTS environment
// variable; unset returns (nil, nil) and injection stays disabled.
func FaultsFromEnv() (*FaultInjector, error) { return faults.FromEnv() }

// New builds a Validator. With no options it loads the built-in rule
// library: 135 rules across the 11 targets of the paper's Table 1.
func New(opts ...Option) (*Validator, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.manifest == nil {
		var (
			m   *cvl.Manifest
			err error
		)
		if c.extended {
			m, err = rules.ExtendedManifest()
			c.reader = rules.ExtendedReader()
		} else {
			m, err = rules.Manifest()
			c.reader = rules.Reader()
		}
		if err != nil {
			return nil, fmt.Errorf("configvalidator: built-in manifest: %w", err)
		}
		c.manifest = m
	}
	if c.reader == nil {
		return nil, fmt.Errorf("configvalidator: a manifest requires a rule-file reader")
	}
	if c.parseCache != nil && c.telemetry != nil {
		c.parseCache.SetMetrics(c.telemetry)
	}
	crawl := crawler.New(c.registry, crawler.Options{Faults: c.faults, Cache: c.parseCache})
	eng := engine.NewWithOptions(crawl, engine.Options{Parallelism: c.parallelism})
	eng.SetFaults(c.faults)
	return &Validator{
		manifest:  c.manifest,
		source:    engine.NewCachedSource(c.reader),
		engine:    eng,
		telemetry: c.telemetry,
		faults:    c.faults,
		cache:     c.parseCache,
	}, nil
}

// ParseCacheStats copies the attached parse cache's counters; the zero
// value is returned when the Validator was built without WithParseCache.
func (v *Validator) ParseCacheStats() ParseCacheStats { return v.cache.Stats() }

// Telemetry returns the attached metrics collector, or nil when the
// Validator was built without WithTelemetry.
func (v *Validator) Telemetry() *Collector { return v.telemetry }

// Faults returns the attached fault injector, or nil when the Validator
// was built without WithFaults. The shard-scan server uses it to arm the
// same CV_FAULTS spec on worker journal segments (op segment-write).
func (v *Validator) Faults() *FaultInjector { return v.faults }

// record instruments one terminal validation outcome. Collector methods
// are nil-safe, so un-instrumented validators pay only a nil check.
func (v *Validator) record(start time.Time, rep *Report, err error) {
	if v.telemetry == nil {
		return
	}
	if err != nil {
		v.telemetry.ScanFailed(time.Since(start))
		return
	}
	v.telemetry.ScanDone(time.Since(start), rep.Counts())
}

// Validate runs every enabled manifest entry (including composite rules)
// against the entity.
func (v *Validator) Validate(e Entity) (*Report, error) { return v.ValidateTarget(e, "") }

// ValidateTarget runs only the named manifest entity (e.g. "sshd"); an
// empty target runs the whole manifest, as Validate does. An unknown
// target returns an error wrapping ErrUnknownTarget.
func (v *Validator) ValidateTarget(e Entity, target string) (*Report, error) {
	res := v.scan(e, target, nil)
	return res.Report, res.Err
}

// scan is ValidateTarget with the journal's resume check: once the scan
// has read the entity, the report j holds under its name and config
// digest, if any, stands for the rest of it. A replay records no scan in
// telemetry; the journal counts it.
func (v *Validator) scan(e Entity, target string, j *Journal) (res FleetResult) {
	start := time.Now()
	v.telemetry.ScanStarted()
	defer v.telemetry.ScanEnded()
	m, err := v.selection(target)
	if err != nil {
		v.record(start, nil, err)
		return FleetResult{Err: err}
	}
	var resume func(string) (*Report, bool)
	if j != nil {
		name := e.Name()
		resume = func(digest string) (*Report, bool) {
			res.digest = digest
			res.Report, res.Resumed = j.Replay(name, digest)
			return res.Report, res.Resumed
		}
	}
	res.Report, res.Err = v.engine.Validate(faults.Wrap(e, v.faults), m, v.source, resume)
	if !res.Resumed {
		v.record(start, res.Report, res.Err)
	}
	return res
}

// selection returns the manifest a scan of target runs: the whole
// manifest for "", else one holding only the named entry.
func (v *Validator) selection(target string) (*cvl.Manifest, error) {
	if target == "" {
		return v.manifest, nil
	}
	entry, ok := v.manifest.Entry(target)
	if !ok {
		return nil, fmt.Errorf("configvalidator: %w: %q", ErrUnknownTarget, target)
	}
	return &cvl.Manifest{Entries: []*cvl.ManifestEntry{entry}}, nil
}

// ValidateRules applies an explicit rule list with explicit search paths —
// no manifest, no composite rules.
func (v *Validator) ValidateRules(e Entity, ruleList []*Rule, searchPaths []string) (*Report, error) {
	return v.engine.ValidateRules(faults.Wrap(e, v.faults), ruleList, searchPaths)
}

// Targets lists the built-in target names (Table 1).
func Targets() []string {
	ts := rules.Targets()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// LoadRules resolves a rule file (with inheritance) through the reader.
func LoadRules(reader FileReader, path string) ([]*Rule, error) {
	return cvl.ResolveRules(reader, path)
}

// BuiltinRules loads the built-in rules for one target.
func BuiltinRules(target string) ([]*Rule, error) {
	return rules.Load(target)
}

// WithRuntimePlugins wraps an entity with the built-in crawler feature
// plugins, which synthesize runtime state (mysql.ssl, sysctl.runtime) from
// configuration files when the entity cannot answer live queries — the
// paper's application-specific crawler plugins. Native features always win.
func WithRuntimePlugins(e Entity) Entity {
	return crawler.WithPlugins(e, crawler.DefaultPlugins()...)
}

// Transient reports whether a scan error is likely retryable (explicitly
// marked, deadline expiry, or a timeout/temporary network condition).
// ValidateFleet consults it before re-scanning under FleetOptions.Retries.
func Transient(err error) bool { return engine.Transient(err) }

// MarkTransient wraps err so Transient reports it retryable — for entity
// implementations and crawler plugins whose failures are worth retrying.
func MarkTransient(err error) error { return engine.MarkTransient(err) }

// Proposal is a suggested configuration edit for a failing check.
type Proposal = remediate.Proposal

// ProposeFixes builds remediation proposals for every remediable failure
// in the report. Only config-tree rules with an unambiguous preferred
// value and a write-back-capable lens produce proposals.
func (v *Validator) ProposeFixes(e Entity, rep *Report) []*Proposal {
	return remediate.New(nil).ProposeAll(e, rep)
}

// WriteText renders a report as human-readable text.
func WriteText(w io.Writer, rep *Report, opts OutputOptions) error {
	return output.WriteText(w, rep, opts)
}

// WriteJSON renders a report as JSON.
func WriteJSON(w io.Writer, rep *Report, opts OutputOptions) error {
	return output.WriteJSON(w, rep, opts)
}

// WriteJUnit renders a report as JUnit XML, for CI-pipeline integration.
func WriteJUnit(w io.Writer, rep *Report, opts OutputOptions) error {
	return output.WriteJUnit(w, rep, opts)
}

// WriteComplianceSummary renders a per-tag pass/fail table across reports.
func WriteComplianceSummary(w io.Writer, reports []*Report) error {
	return output.WriteComplianceSummary(w, reports)
}
