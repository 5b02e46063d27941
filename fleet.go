package configvalidator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"configvalidator/internal/engine"
)

// ErrScanTimeout marks a scan abandoned at its per-entity deadline
// (FleetOptions.ScanTimeout). It wraps context.DeadlineExceeded, so it
// classifies as Transient and is retried under FleetOptions.Retries.
var ErrScanTimeout = fmt.Errorf("scan deadline exceeded: %w", context.DeadlineExceeded)

// ErrLeaseRevoked is the cancellation cause a distributed coordinator
// attaches (context.WithCancelCause) when it revokes a shard lease —
// after missed heartbeats, a worker death, or graceful drain — so scans
// cut short by orchestration classify as ErrorKindRevoked in
// FleetSummary.ErrorsByKind, distinguishable from a user pressing ^C.
var ErrLeaseRevoked = errors.New("shard lease revoked")

// FleetResult is the outcome of validating one entity of a fleet.
type FleetResult struct {
	// Entity is the scanned entity's name.
	Entity string
	// Report is the validation report; nil when Err is set.
	Report *Report
	// Err records a scan failure for this entity: the final validation
	// error after retries, ErrScanTimeout for a scan abandoned at its
	// deadline, or a *PanicError for a scan that panicked.
	Err error
	// Resumed reports that the result was replayed from the journal
	// (FleetOptions.Journal) instead of re-scanned: the entity's config
	// digest matched a journaled completed record.
	Resumed bool
	// Worker names the remote worker that produced the result when the
	// fleet ran under a distributed scheduler; empty for local scans.
	// Purely informational: Summarize ignores it, so a distributed run's
	// summary digest stays byte-identical to a single-process run's.
	Worker string
	// JournalDegraded reports that this result could not be persisted to
	// the run's journal (disk full, I/O fault): the result itself is
	// complete and correct, but a crash before the journal recovers would
	// re-scan this entity. Summarize tallies these so a degraded run is
	// visible in the summary, not silently less durable.
	JournalDegraded bool

	// digest is the config digest a journaled scan took, which the result
	// commits under; "" for none.
	digest string
}

// Scheduler is the execution-substrate seam for fleet validation: it
// consumes entities and emits exactly one FleetResult per entity. The
// default (a nil FleetOptions.Scheduler) is the in-process worker pool;
// the distributed coordinator in internal/dist implements the same
// contract over remote worker cvserver processes with shard leases and
// journal-backed reassignment. Implementations must close the returned
// channel once all results are delivered or the context is cancelled.
type Scheduler interface {
	Schedule(ctx context.Context, v *Validator, entities <-chan Entity, opts FleetOptions) <-chan FleetResult
}

// FleetOptions tune ValidateFleet.
type FleetOptions struct {
	// Workers is the number of concurrent scanners; 0 means GOMAXPROCS.
	Workers int
	// Target restricts validation to one manifest entity (e.g. "docker");
	// empty runs the full manifest.
	Target string
	// ScanTimeout bounds each per-entity scan attempt; 0 means no
	// deadline. An attempt that exceeds it is abandoned and reported as
	// ErrScanTimeout (the abandoned goroutine is left to finish on its
	// own — entities cannot be preempted mid-crawl — so a truly hung
	// entity costs one parked goroutine, not a stuck worker).
	ScanTimeout time.Duration
	// Retries is the number of extra attempts allowed per entity when the
	// scan fails with a Transient error (timeouts, marked-transient
	// crawler failures). Permanent errors are never retried.
	Retries int
	// RetryBackoff is the base delay before the first retry; 0 means 50ms.
	// Subsequent waits use decorrelated jitter — each sleep is drawn
	// uniformly from [base, 3×previous], capped at 5s — so a fleet of
	// entities failing together against one flaky backend does not retry
	// in lockstep. Backoff waits honor context cancellation.
	RetryBackoff time.Duration
	// Journal, when set, makes the run crash-safe and resumable through
	// Journal.Replay and Journal.Commit: an entity whose (name, config
	// digest) matches a journaled completed record is replayed (FleetResult
	// with Resumed set), and every other outcome, worker-resumed ones under
	// a distributed scheduler included, is committed as it completes. A run
	// killed partway is resumed by re-running it over the same journal; the
	// union of results equals one uninterrupted run. Open or recover one
	// with OpenJournal.
	Journal *Journal
	// Scheduler selects the execution substrate; nil runs the in-process
	// worker pool. A distributed run sets it to a dist.Coordinator, which
	// shards the entity stream across remote worker cvservers.
	Scheduler Scheduler
}

const (
	defaultRetryBackoff = 50 * time.Millisecond
	maxRetryBackoff     = 5 * time.Second
)

// jitterInt63n is the randomness source for retry jitter — a seam so tests
// can pin it and assert backoff bounds deterministically.
var jitterInt63n = rand.Int63n

// NextBackoff draws the next decorrelated-jitter sleep: uniform in
// [base, 3×prev], capped at 5s. With base == prev == cap the draw
// degenerates to the cap, so backoff never exceeds 5s. ValidateFleet uses
// it between scan retries; the distributed coordinator reuses it for
// worker RPC retries and unhealthy-worker probing, so a fleet of
// coordinators hammering one recovering worker does not retry in
// lockstep.
func NextBackoff(base, prev time.Duration) time.Duration {
	return nextBackoff(base, prev)
}

// nextBackoff draws the next decorrelated-jitter sleep: uniform in
// [base, 3×prev], capped at maxRetryBackoff. With base == prev == cap the
// draw degenerates to the cap, so backoff never exceeds 5s.
func nextBackoff(base, prev time.Duration) time.Duration {
	upper := 3 * prev
	if upper > maxRetryBackoff {
		upper = maxRetryBackoff
	}
	if upper <= base {
		return base
	}
	return base + time.Duration(jitterInt63n(int64(upper-base)+1))
}

// ValidateFleet validates a stream of entities concurrently — the
// production workload of the paper's §5, where tens of thousands of images
// and containers are scanned daily. Entities are read from the entities
// channel until it closes or ctx is cancelled; one FleetResult per entity
// is sent on the returned channel, which is closed after all workers
// finish. Result order is not guaranteed.
//
// Workers are isolated: a panicking entity surfaces as a FleetResult.Err
// carrying the stack (*PanicError) rather than crashing the run, scans are
// bounded by opts.ScanTimeout, and transient failures are retried per
// opts.Retries. With a telemetry collector attached (WithTelemetry), every
// outcome — including panics, timeouts, and retries — is recorded.
//
// A parse cache attached with WithParseCache is shared by all workers:
// identical config files across the fleet parse once, which is where most
// of the scan time goes when images share base layers. WithParallelism
// additionally fans rule evaluation out within each entity; the two
// compose (workers × intra-entity pool), so on a fully loaded machine
// prefer raising Workers first and leave Parallelism at 1.
func (v *Validator) ValidateFleet(ctx context.Context, entities <-chan Entity, opts FleetOptions) <-chan FleetResult {
	if opts.Scheduler != nil {
		return opts.Scheduler.Schedule(ctx, v, entities, opts)
	}
	return localScheduler{}.Schedule(ctx, v, entities, opts)
}

// localScheduler is the default execution substrate: a bounded in-process
// worker pool pulling from the entity stream, with the journal resume and
// append protocol applied per entity.
type localScheduler struct{}

func (localScheduler) Schedule(ctx context.Context, v *Validator, entities <-chan Entity, opts FleetOptions) <-chan FleetResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make(chan FleetResult)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case ent, ok := <-entities:
					if !ok {
						return
					}
					res := v.scanJournaled(ctx, ent, opts)
					select {
					case results <- res:
					case <-ctx.Done():
						// The result was computed (and journaled, when a
						// journal is attached) but the run was cancelled
						// before it could be delivered.
						v.telemetry.ScanAbandoned()
						return
					}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	return results
}

// scanJournaled wraps scanOne in the journal's resume policy: an entity
// the journal replays is not scanned past its read phase, and every
// scanned outcome is committed as it completes, under the digest that
// read phase took.
func (v *Validator) scanJournaled(ctx context.Context, ent Entity, opts FleetOptions) FleetResult {
	res := v.scanOne(ctx, ent, opts)
	res.Entity = ent.Name()
	// A failed append does not fail the scan: the result is delivered,
	// marked as not persisted. A replayed report is journaled already.
	res.JournalDegraded = opts.Journal.Commit(res.Entity, res.digest, res.Report, res.Err) != nil
	return res
}

// scanOne validates one entity under the fleet's robustness policy:
// per-attempt deadline, panic isolation, and bounded retry with
// decorrelated-jitter backoff for transient failures.
func (v *Validator) scanOne(ctx context.Context, ent Entity, opts FleetOptions) FleetResult {
	base := opts.RetryBackoff
	if base <= 0 {
		base = defaultRetryBackoff
	}
	backoff := base
	var lastErr error
	for attempt := 0; ; attempt++ {
		res := v.scanAttempt(ctx, ent, opts)
		if res.Err == nil {
			return res
		}
		lastErr = res.Err
		if attempt >= opts.Retries || !Transient(lastErr) || ctx.Err() != nil {
			break
		}
		v.telemetry.RetryScheduled()
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return FleetResult{Err: fmt.Errorf("scan %s: %w", ent.Name(), context.Cause(ctx))}
		case <-timer.C:
		}
		backoff = nextBackoff(base, backoff)
	}
	return FleetResult{Err: fmt.Errorf("scan %s: %w", ent.Name(), lastErr)}
}

// scanAttempt runs a single validation attempt, the journal's resume check
// included, with panic recovery and an optional deadline. Without a
// deadline (and with an uncancellable context) it runs inline; otherwise
// the validation runs in a goroutine that is abandoned if the deadline
// fires first.
func (v *Validator) scanAttempt(ctx context.Context, ent Entity, opts FleetOptions) FleetResult {
	if opts.ScanTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.ScanTimeout)
		defer cancel()
	}
	if ctx.Done() == nil {
		return v.safeScan(ent, opts.Target, opts.Journal)
	}
	start := time.Now()
	done := make(chan FleetResult, 1)
	go func() { done <- v.safeScan(ent, opts.Target, opts.Journal) }()
	select {
	case res := <-done:
		return res
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			v.telemetry.ScanTimedOut(time.Since(start))
			return FleetResult{Err: fmt.Errorf("%w (after %v)", ErrScanTimeout, opts.ScanTimeout)}
		}
		// Cancelled, not expired: surface the cancellation *cause* so a
		// coordinator-revoked lease (ErrLeaseRevoked) classifies as revoked
		// rather than blending into user cancellation.
		return FleetResult{Err: context.Cause(ctx)}
	}
}

// safeScan is one validation attempt with panic isolation: a panic in a
// crawler, lens, or rule evaluation becomes a *PanicError carrying the
// stack instead of killing the fleet run.
func (v *Validator) safeScan(ent Entity, target string, j *Journal) (res FleetResult) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			v.telemetry.ScanPanicked(time.Since(start))
			res = FleetResult{Err: &engine.PanicError{Value: r, Stack: debug.Stack()}}
		}
	}()
	return v.scan(ent, target, j)
}

// Scan-error kinds, the keys of FleetSummary.ErrorsByKind.
const (
	// ErrorKindTimeout marks scans abandoned at their deadline.
	ErrorKindTimeout = "timeout"
	// ErrorKindPanic marks scans that panicked and were isolated.
	ErrorKindPanic = "panic"
	// ErrorKindCancelled marks scans cut short by context cancellation.
	ErrorKindCancelled = "cancelled"
	// ErrorKindRevoked marks scans cut short because a distributed
	// coordinator revoked the shard lease (missed heartbeats, worker
	// death, drain) — orchestration, not user cancellation, and the
	// coordinator normally reassigns and re-scans these.
	ErrorKindRevoked = "revoked"
	// ErrorKindPermanent marks every other failure — the errors retrying
	// will not fix.
	ErrorKindPermanent = "permanent"
)

// ErrorKinder lets an error carry its own ErrorsByKind classification —
// the hook that keeps classification correct across process boundaries:
// a worker classifies a scan error locally (where the error chain with
// its sentinels still exists) and the coordinator reconstructs it as a
// value whose ErrorKind survives the wire.
type ErrorKinder interface {
	error
	ErrorKind() string
}

// ClassifyScanError maps a FleetResult.Err to its ErrorsByKind key. Panics
// classify first (a panic during a deadline race is still a panic), then
// errors that carry their own kind (remote results), then lease
// revocation, deadline expiry, and cancellation; everything else is
// permanent. Cancellation causes attached with context.WithCancelCause
// flow through scan errors via context.Cause, which is how a revoked
// lease stays distinguishable from a user pressing ^C.
func ClassifyScanError(err error) string {
	var pe *PanicError
	var ek ErrorKinder
	switch {
	case errors.As(err, &pe):
		return ErrorKindPanic
	case errors.As(err, &ek):
		return ek.ErrorKind()
	case errors.Is(err, ErrLeaseRevoked):
		return ErrorKindRevoked
	case errors.Is(err, ErrScanTimeout) || errors.Is(err, context.DeadlineExceeded):
		return ErrorKindTimeout
	case errors.Is(err, context.Canceled):
		return ErrorKindCancelled
	default:
		return ErrorKindPermanent
	}
}

// FleetSummary aggregates fleet results.
type FleetSummary struct {
	// Scanned is the number of entities validated successfully.
	Scanned int
	// Resumed is the subset of Scanned whose report was replayed from the
	// journal instead of re-scanned.
	Resumed int
	// Errors is the number of entities whose scan failed.
	Errors int
	// ErrorsByKind breaks Errors down by failure class: timeout, panic,
	// cancelled, or permanent (see ClassifyScanError).
	ErrorsByKind map[string]int
	// ByStatus tallies individual rule results across the fleet.
	ByStatus map[Status]int
	// EntitiesWithFindings counts entities with at least one failing check.
	EntitiesWithFindings int
	// EntitiesWithErrors counts entities with at least one error-grade
	// rule result (crawler or lens blowups that did not abort the scan).
	// Such an entity is not a clean scan even when nothing failed.
	EntitiesWithErrors int
	// EntitiesDegraded counts entities with at least one degraded result:
	// the scan completed but some checks ran on incomplete input data
	// (unreadable files, panicking lenses or rules).
	EntitiesDegraded int
	// JournalDegraded counts results that could not be persisted to the
	// run's journal (disk full, I/O fault). The findings are unaffected;
	// only crash-resume coverage for those entities is lost.
	JournalDegraded int
}

// Summarize drains a fleet-result channel into a summary.
func Summarize(results <-chan FleetResult) FleetSummary {
	out := FleetSummary{
		ByStatus:     make(map[Status]int, 4),
		ErrorsByKind: make(map[string]int, 4),
	}
	for res := range results {
		if res.JournalDegraded {
			out.JournalDegraded++
		}
		if res.Err != nil {
			out.Errors++
			out.ErrorsByKind[ClassifyScanError(res.Err)]++
			continue
		}
		out.Scanned++
		if res.Resumed {
			out.Resumed++
		}
		counts := res.Report.Counts()
		for status, n := range counts {
			out.ByStatus[status] += n
		}
		if counts[StatusFail] > 0 {
			out.EntitiesWithFindings++
		}
		if counts[StatusError] > 0 {
			out.EntitiesWithErrors++
		}
		if counts[StatusDegraded] > 0 {
			out.EntitiesDegraded++
		}
	}
	return out
}

// String renders the summary as a one-line operator digest. Resumed is
// deliberately omitted: a resumed run's digest must equal an uninterrupted
// run's, which is what the kill-and-resume CI smoke compares.
func (s FleetSummary) String() string {
	return fmt.Sprintf(
		"scanned=%d errors=%d err_timeout=%d err_panic=%d err_cancelled=%d err_revoked=%d err_permanent=%d entities_with_findings=%d entities_with_errors=%d entities_degraded=%d pass=%d fail=%d n/a=%d rule_errors=%d degraded=%d journal_degraded=%d",
		s.Scanned, s.Errors,
		s.ErrorsByKind[ErrorKindTimeout], s.ErrorsByKind[ErrorKindPanic],
		s.ErrorsByKind[ErrorKindCancelled], s.ErrorsByKind[ErrorKindRevoked], s.ErrorsByKind[ErrorKindPermanent],
		s.EntitiesWithFindings, s.EntitiesWithErrors, s.EntitiesDegraded,
		s.ByStatus[StatusPass], s.ByStatus[StatusFail],
		s.ByStatus[StatusNotApplicable], s.ByStatus[StatusError], s.ByStatus[StatusDegraded],
		s.JournalDegraded)
}
