// Package telemetry provides process-local runtime metrics for the
// validation pipeline: scan and result counters, a fixed-bucket scan
// latency histogram, error/retry/panic/timeout counters, and per-route
// HTTP request instrumentation. One Collector is shared by single scans,
// fleet scans, and the HTTP service, so an operator sees the whole
// deployment in a single snapshot — the observability layer the paper's
// production deployment (tens of thousands of scans daily inside IBM
// Vulnerability Advisor) implies but the reproduction lacked.
//
// Every scalar metric is one row of the metrics table: its name, help
// text, type, and Snapshot field are declared there once, and Snapshot and
// WritePrometheus walk the table.
//
// All counters are atomic; a Collector is safe for concurrent use by any
// number of fleet workers and HTTP handlers. Snapshots are consistent
// enough for operations (each counter is read atomically; the set of
// counters is not read under one lock).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"configvalidator/internal/engine"
)

// LatencyBuckets are the histogram upper bounds in seconds, chosen to
// bracket observed scan times: sub-millisecond in-memory scans up through
// multi-second scans of large entities.
var LatencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram with atomic counters. The
// final bucket is the implicit +Inf overflow.
type histogram struct {
	buckets  [len(LatencyBuckets) + 1]atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	idx := len(LatencyBuckets) // +Inf
	for i, ub := range LatencyBuckets {
		if secs <= ub {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

func (h *histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: LatencyBuckets[:],
		Counts: make([]int64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    time.Duration(h.sumNanos.Load()),
	}
	for i := range out.Counts {
		out.Counts[i] = h.buckets[i].Load()
	}
	return out
}

// HistogramSnapshot is a point-in-time copy of a latency histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Counts has one extra
	// trailing element for the +Inf overflow bucket.
	Bounds []float64
	Counts []int64
	// Count and Sum are the total observations and their summed duration.
	Count int64
	Sum   time.Duration
}

// Mean returns the average observed duration, or 0 with no observations.
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets,
// attributing each observation to its bucket's upper bound. Good enough
// for progress lines, not for billing.
func (h HistogramSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	var cum int64
	for i, n := range h.Counts {
		cum += n
		if cum >= rank {
			if i < len(h.Bounds) {
				return time.Duration(h.Bounds[i] * float64(time.Second))
			}
			// Overflow bucket: the best upper estimate is the mean of
			// what is left, but the last bound is the honest floor.
			return time.Duration(h.Bounds[len(h.Bounds)-1] * float64(time.Second))
		}
	}
	return h.Mean()
}

// metric indexes one scalar metric: a row of the metrics table and a slot
// of Collector.v. The order is the exposition order.
type metric int

const (
	mScans metric = iota
	mErrors
	mRetries
	mPanics
	mTimeouts
	mShed
	mBreakerOpens
	mParseCacheHits
	mParseCacheMisses
	mParseCacheEvictions
	mJournalAppends
	mJournalReplayed
	mJournalCorrupt
	mJournalSkipped
	mJournalAppendErrors
	mJournalReprobes
	mMergeStalls
	mScansAbandoned
	mShardsDispatched
	mShardsCompleted
	mLeaseReassignments
	mHeartbeatsMissed
	mDuplicateResults
	mWorkerRPCRetries
	mInFlight
	mActiveLeases
	mQueueDepth
	mBreakerOpen
	mJournalDegraded
	numMetrics
)

// metrics declares every scalar metric once: its exposition name and help
// text, whether it is a gauge (else a counter), and the Snapshot field it
// fills.
var metrics = [numMetrics]struct {
	name, help string
	gauge      bool
	field      func(*Snapshot) *int64
}{
	mScans:               {"configvalidator_scans_total", "Validation attempts with a terminal outcome.", false, func(s *Snapshot) *int64 { return &s.Scans }},
	mErrors:              {"configvalidator_scan_errors_total", "Validation attempts that ended in an error.", false, func(s *Snapshot) *int64 { return &s.Errors }},
	mRetries:             {"configvalidator_scan_retries_total", "Retries of transient scan failures.", false, func(s *Snapshot) *int64 { return &s.Retries }},
	mPanics:              {"configvalidator_scan_panics_total", "Scans that panicked and were isolated.", false, func(s *Snapshot) *int64 { return &s.Panics }},
	mTimeouts:            {"configvalidator_scan_timeouts_total", "Scans abandoned at their deadline.", false, func(s *Snapshot) *int64 { return &s.Timeouts }},
	mShed:                {"configvalidator_requests_shed_total", "HTTP requests rejected at admission (429).", false, func(s *Snapshot) *int64 { return &s.Shed }},
	mBreakerOpens:        {"configvalidator_breaker_opens_total", "Circuit-breaker trips.", false, func(s *Snapshot) *int64 { return &s.BreakerOpens }},
	mParseCacheHits:      {"configvalidator_parse_cache_hits_total", "Parse-cache lookups served from cache.", false, func(s *Snapshot) *int64 { return &s.ParseCacheHits }},
	mParseCacheMisses:    {"configvalidator_parse_cache_misses_total", "Parse-cache lookups that had to parse.", false, func(s *Snapshot) *int64 { return &s.ParseCacheMisses }},
	mParseCacheEvictions: {"configvalidator_parse_cache_evictions_total", "Parse-cache entries dropped at capacity.", false, func(s *Snapshot) *int64 { return &s.ParseCacheEvictions }},
	mJournalAppends:      {"configvalidator_journal_appends_total", "Records appended to the durable result journal.", false, func(s *Snapshot) *int64 { return &s.JournalAppends }},
	mJournalReplayed:     {"configvalidator_journal_replayed_total", "Journal records replayed at recovery.", false, func(s *Snapshot) *int64 { return &s.JournalReplayed }},
	mJournalCorrupt:      {"configvalidator_journal_corrupt_records_total", "Corrupt journal records dropped at recovery.", false, func(s *Snapshot) *int64 { return &s.JournalCorruptRecords }},
	mJournalSkipped:      {"configvalidator_journal_skipped_entities_total", "Fleet entities skipped on resume (journaled digest matched).", false, func(s *Snapshot) *int64 { return &s.JournalSkippedEntities }},
	mJournalAppendErrors: {"configvalidator_journal_append_errors_total", "Journal appends that failed (scan continued, result not persisted).", false, func(s *Snapshot) *int64 { return &s.JournalAppendErrors }},
	mJournalReprobes:     {"configvalidator_journal_reprobes_total", "Write re-probes attempted by a degraded journal.", false, func(s *Snapshot) *int64 { return &s.JournalReprobes }},
	mMergeStalls:         {"configvalidator_merge_stalls_total", "Coordinator merge stalls (slow FleetResult consumer paused shard reads).", false, func(s *Snapshot) *int64 { return &s.MergeStalls }},
	mScansAbandoned:      {"configvalidator_scans_abandoned_total", "Computed fleet results dropped at context cancellation.", false, func(s *Snapshot) *int64 { return &s.ScansAbandoned }},
	mShardsDispatched:    {"configvalidator_shards_dispatched_total", "Shards handed to workers under a lease.", false, func(s *Snapshot) *int64 { return &s.ShardsDispatched }},
	mShardsCompleted:     {"configvalidator_shards_completed_total", "Shards whose every entity produced a result.", false, func(s *Snapshot) *int64 { return &s.ShardsCompleted }},
	mLeaseReassignments:  {"configvalidator_scan_lease_reassignments_total", "Shard leases revoked and reassigned to another worker.", false, func(s *Snapshot) *int64 { return &s.LeaseReassignments }},
	mHeartbeatsMissed:    {"configvalidator_lease_heartbeats_missed_total", "Leases whose worker went silent past the lease TTL.", false, func(s *Snapshot) *int64 { return &s.HeartbeatsMissed }},
	mDuplicateResults:    {"configvalidator_duplicate_results_dropped_total", "Duplicate remote results dropped last-writer-wins.", false, func(s *Snapshot) *int64 { return &s.DuplicateResults }},
	mWorkerRPCRetries:    {"configvalidator_worker_rpc_retries_total", "Shard dispatches retried against a worker.", false, func(s *Snapshot) *int64 { return &s.WorkerRPCRetries }},
	mInFlight:            {"configvalidator_inflight_scans", "Validations executing right now.", true, func(s *Snapshot) *int64 { return &s.InFlightScans }},
	mActiveLeases:        {"configvalidator_active_leases", "Shard leases live right now.", true, func(s *Snapshot) *int64 { return &s.ActiveLeases }},
	mQueueDepth:          {"configvalidator_server_queue_depth", "HTTP requests waiting for an admission slot.", true, func(s *Snapshot) *int64 { return &s.QueueDepth }},
	mBreakerOpen:         {"configvalidator_breaker_open", "Whether the validation circuit breaker is open (1) or closed (0).", true, func(s *Snapshot) *int64 { return &s.BreakerOpen }},
	mJournalDegraded:     {"configvalidator_journal_degraded", "Whether the result journal is degraded (1) — appends failing fast between re-probes — or healthy (0).", true, func(s *Snapshot) *int64 { return &s.JournalDegraded }},
}

// Collector accumulates metrics. The zero value is not usable; construct
// with NewCollector.
type Collector struct {
	// v holds the scalar metrics, indexed by the metrics table.
	v [numMetrics]atomic.Int64

	// Result counters by engine status. StatusPass..StatusDegraded are
	// 1-based and contiguous; index 0 is unused.
	statuses [6]atomic.Int64

	scanLatency histogram

	httpMu      sync.Mutex
	httpCounts  map[routeCode]int64
	httpLatency histogram
}

type routeCode struct {
	route string
	code  int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{httpCounts: make(map[routeCode]int64)}
}

// add moves one scalar metric by delta. add and set hold the nil check
// that makes the recording methods safe on a nil Collector.
func (c *Collector) add(m metric, delta int64) {
	if c != nil {
		c.v[m].Add(delta)
	}
}

// set stores a 0/1 gauge.
func (c *Collector) set(m metric, on bool) {
	if c == nil {
		return
	}
	var v int64
	if on {
		v = 1
	}
	c.v[m].Store(v)
}

// ScanDone records one completed validation: its latency and the per-rule
// result counts from the report.
func (c *Collector) ScanDone(d time.Duration, counts map[engine.Status]int) {
	if c == nil {
		return
	}
	c.add(mScans, 1)
	c.scanLatency.observe(d)
	for status, n := range counts {
		if status >= 1 && int(status) < len(c.statuses) {
			c.statuses[status].Add(int64(n))
		}
	}
}

// ScanFailed records a validation attempt that ended in an error.
func (c *Collector) ScanFailed(d time.Duration) {
	if c == nil {
		return
	}
	c.add(mScans, 1)
	c.add(mErrors, 1)
	c.scanLatency.observe(d)
}

// ScanPanicked records a validation attempt that panicked (and was
// recovered by the fleet layer).
func (c *Collector) ScanPanicked(d time.Duration) {
	c.add(mPanics, 1)
	c.ScanFailed(d)
}

// ScanTimedOut records a validation attempt abandoned at its deadline.
func (c *Collector) ScanTimedOut(d time.Duration) {
	c.add(mTimeouts, 1)
	c.ScanFailed(d)
}

// RetryScheduled records one retry of a transient scan failure.
func (c *Collector) RetryScheduled() { c.add(mRetries, 1) }

// ScanStarted marks one validation as executing; pair with ScanEnded. The
// difference is the in-flight-scans gauge.
func (c *Collector) ScanStarted() { c.add(mInFlight, 1) }

// ScanEnded marks one validation as no longer executing.
func (c *Collector) ScanEnded() { c.add(mInFlight, -1) }

// QueueEnter marks one HTTP request as waiting for an admission slot;
// pair with QueueExit.
func (c *Collector) QueueEnter() { c.add(mQueueDepth, 1) }

// QueueExit marks one queued HTTP request as admitted or abandoned.
func (c *Collector) QueueExit() { c.add(mQueueDepth, -1) }

// RequestShed records one HTTP request rejected at admission (429).
func (c *Collector) RequestShed() { c.add(mShed, 1) }

// BreakerOpened records a circuit-breaker trip and sets the open gauge.
func (c *Collector) BreakerOpened() {
	c.add(mBreakerOpens, 1)
	c.set(mBreakerOpen, true)
}

// BreakerClosed clears the circuit-breaker open gauge.
func (c *Collector) BreakerClosed() { c.set(mBreakerOpen, false) }

// ParseCacheHit records one parse-cache lookup served from cache. The
// three ParseCache* methods implement crawler.CacheMetrics, so a Collector
// can be attached directly to a crawler.ParseCache.
func (c *Collector) ParseCacheHit() { c.add(mParseCacheHits, 1) }

// ParseCacheMiss records one parse-cache lookup that had to parse.
func (c *Collector) ParseCacheMiss() { c.add(mParseCacheMisses, 1) }

// ParseCacheEviction records one parse-cache entry dropped at capacity.
func (c *Collector) ParseCacheEviction() { c.add(mParseCacheEvictions, 1) }

// JournalAppended records one record durably appended to the result
// journal. The Journal* methods implement journal.Metrics, so a
// Collector can be attached directly to a journal.
func (c *Collector) JournalAppended() { c.add(mJournalAppends, 1) }

// JournalReplayed records one valid journal record recovered at open.
func (c *Collector) JournalReplayed() { c.add(mJournalReplayed, 1) }

// JournalCorruptRecord records one torn or corrupt journal record dropped
// during recovery.
func (c *Collector) JournalCorruptRecord() { c.add(mJournalCorrupt, 1) }

// JournalAppendError records one failed journal append — the scan
// continued, the result was not persisted (disk full, I/O fault).
func (c *Collector) JournalAppendError() { c.add(mJournalAppendErrors, 1) }

// JournalDegraded flips the degraded-journal gauge: true while appends
// are failing fast between re-probes, false once journaling resumes.
func (c *Collector) JournalDegraded(degraded bool) { c.set(mJournalDegraded, degraded) }

// JournalReprobe records one degraded-mode write re-probe attempt.
func (c *Collector) JournalReprobe() { c.add(mJournalReprobes, 1) }

// MergeStalled records one coordinator merge stall: the FleetResult
// consumer fell behind long enough that shard stream reads paused.
func (c *Collector) MergeStalled() { c.add(mMergeStalls, 1) }

// JournalEntitySkipped records one fleet entity skipped because its
// journaled result's config digest still matched — the resume fast path.
func (c *Collector) JournalEntitySkipped() { c.add(mJournalSkipped, 1) }

// ScanAbandoned records one computed fleet result dropped because the
// run's context was cancelled before the result could be delivered —
// operators reconcile submitted vs. journaled entity counts with it.
func (c *Collector) ScanAbandoned() { c.add(mScansAbandoned, 1) }

// ShardDispatched records one shard handed to a worker under a lease;
// pair with either ShardCompleted or LeaseReassigned. It also raises the
// active-leases gauge.
func (c *Collector) ShardDispatched() {
	c.add(mShardsDispatched, 1)
	c.add(mActiveLeases, 1)
}

// ShardCompleted records one shard whose every entity produced a result;
// lowers the active-leases gauge.
func (c *Collector) ShardCompleted() {
	c.add(mShardsCompleted, 1)
	c.add(mActiveLeases, -1)
}

// LeaseReassigned records one lease revoked (missed heartbeats, worker
// death, drain) whose remaining entities were handed to another worker;
// lowers the active-leases gauge.
func (c *Collector) LeaseReassigned() {
	c.add(mLeaseReassignments, 1)
	c.add(mActiveLeases, -1)
}

// HeartbeatMissed records one lease whose worker went silent past the
// lease TTL — the trigger for revocation.
func (c *Collector) HeartbeatMissed() { c.add(mHeartbeatsMissed, 1) }

// DuplicateResultDropped records one remote result discarded because the
// entity already produced one (a revoked worker's stream racing its
// replacement) — the stream-level twin of the journal's last-writer-wins
// compaction.
func (c *Collector) DuplicateResultDropped() { c.add(mDuplicateResults, 1) }

// WorkerRPCRetry records one shard dispatch retried against a worker
// (connection refusal, 429 backpressure, 503 breaker).
func (c *Collector) WorkerRPCRetry() { c.add(mWorkerRPCRetries, 1) }

// RequestDone records one HTTP request against a route pattern.
func (c *Collector) RequestDone(route string, code int, d time.Duration) {
	if c == nil {
		return
	}
	c.httpMu.Lock()
	c.httpCounts[routeCode{route: route, code: code}]++
	c.httpMu.Unlock()
	c.httpLatency.observe(d)
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	// Scans counts validation attempts with a terminal outcome (success,
	// error, panic, or timeout). Errors counts the non-success subset;
	// Panics and Timeouts break Errors down further. Retries counts
	// re-attempts of transient failures (each retried attempt is also
	// counted in Scans when it completes).
	Scans, Errors, Retries, Panics, Timeouts int64
	// InFlightScans and QueueDepth are gauges: validations executing right
	// now and HTTP requests waiting for an admission slot. Shed counts
	// requests rejected at admission; BreakerOpens counts circuit-breaker
	// trips and BreakerOpen is 1 while the breaker is open, else 0.
	InFlightScans, QueueDepth, Shed, BreakerOpens, BreakerOpen int64
	// ParseCacheHits/Misses/Evictions describe the content-addressed
	// parse cache: hits are files whose normalized form was reused,
	// misses had to parse, evictions were dropped at capacity.
	ParseCacheHits, ParseCacheMisses, ParseCacheEvictions int64
	// JournalAppends/Replayed/CorruptRecords/SkippedEntities describe the
	// durable result journal: records appended, records replayed at
	// recovery, corrupt records dropped at recovery, and entities skipped
	// on resume because their journaled digest still matched.
	// ScansAbandoned counts computed fleet results dropped at context
	// cancellation before delivery.
	JournalAppends, JournalReplayed, JournalCorruptRecords, JournalSkippedEntities int64
	ScansAbandoned                                                                 int64
	// Disk-pressure counters: appends that failed (the scan continued,
	// the result was not persisted), write re-probes while degraded, and
	// coordinator merge stalls (consumer backpressure paused shard stream
	// reads). JournalDegraded is 1 while the journal is degraded, else 0.
	JournalAppendErrors, JournalReprobes, MergeStalls, JournalDegraded int64
	// Distributed-fleet counters: shards dispatched under a lease, shards
	// fully completed, leases revoked and reassigned, heartbeats missed,
	// duplicate remote results dropped, worker RPC dispatch retries, and
	// the active-leases gauge.
	ShardsDispatched, ShardsCompleted, LeaseReassignments, HeartbeatsMissed int64
	DuplicateResults, WorkerRPCRetries, ActiveLeases                        int64
	// ResultsByStatus tallies individual rule results across all scans.
	ResultsByStatus map[engine.Status]int64
	// ScanLatency is the scan-duration histogram.
	ScanLatency HistogramSnapshot
	// HTTPRequests counts requests keyed "ROUTE CODE"
	// (e.g. "POST /v1/validate/frame 200").
	HTTPRequests map[string]int64
	// HTTPLatency is the request-duration histogram.
	HTTPLatency HistogramSnapshot
}

// resultStatuses lists the engine statuses in exposition order.
var resultStatuses = [...]engine.Status{engine.StatusPass, engine.StatusFail, engine.StatusNotApplicable, engine.StatusError, engine.StatusDegraded}

// Snapshot copies the current counter values.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		ResultsByStatus: make(map[engine.Status]int64, len(resultStatuses)),
		ScanLatency:     c.scanLatency.snapshot(),
		HTTPRequests:    make(map[string]int64),
		HTTPLatency:     c.httpLatency.snapshot(),
	}
	for m := range numMetrics {
		*metrics[m].field(&s) = c.v[m].Load()
	}
	for _, status := range resultStatuses {
		if n := c.statuses[status].Load(); n != 0 {
			s.ResultsByStatus[status] = n
		}
	}
	c.httpMu.Lock()
	for k, n := range c.httpCounts {
		s.HTTPRequests[fmt.Sprintf("%s %d", k.route, k.code)] = n
	}
	c.httpMu.Unlock()
	return s
}

// String renders a one-line operator summary, the shape cvwatch prints as
// its periodic progress line.
func (s Snapshot) String() string {
	return fmt.Sprintf("scans=%d errors=%d retries=%d panics=%d timeouts=%d mean=%s p95=%s",
		s.Scans, s.Errors, s.Retries, s.Panics, s.Timeouts,
		s.ScanLatency.Mean().Round(time.Microsecond),
		s.ScanLatency.Quantile(0.95).Round(time.Microsecond))
}

// WritePrometheus renders the collector in the Prometheus text exposition
// format (version 0.0.4) — counters, status-labelled result counts, and
// cumulative histogram buckets.
func (c *Collector) WritePrometheus(w io.Writer) error {
	s := c.Snapshot()
	var b strings.Builder

	for _, m := range metrics {
		typ := "counter"
		if m.gauge {
			typ = "gauge"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, typ, m.name, *m.field(&s))
	}

	fmt.Fprintf(&b, "# HELP configvalidator_results_total Rule results across all scans, by status.\n")
	fmt.Fprintf(&b, "# TYPE configvalidator_results_total counter\n")
	for _, status := range resultStatuses {
		fmt.Fprintf(&b, "configvalidator_results_total{status=%q} %d\n",
			strings.ToLower(status.String()), s.ResultsByStatus[status])
	}

	writeHistogram(&b, "configvalidator_scan_duration_seconds", "Scan latency.", s.ScanLatency)

	fmt.Fprintf(&b, "# HELP configvalidator_http_requests_total HTTP requests by route and status code.\n")
	fmt.Fprintf(&b, "# TYPE configvalidator_http_requests_total counter\n")
	keys := make([]string, 0, len(s.HTTPRequests))
	for k := range s.HTTPRequests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idx := strings.LastIndexByte(k, ' ')
		fmt.Fprintf(&b, "configvalidator_http_requests_total{route=%q,code=%q} %d\n",
			k[:idx], k[idx+1:], s.HTTPRequests[k])
	}

	writeHistogram(&b, "configvalidator_http_request_duration_seconds", "HTTP request latency.", s.HTTPLatency)

	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name, help string, h HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, ub := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(ub), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.Sum.Seconds())
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

func formatBound(ub float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", ub), "0"), ".")
}
