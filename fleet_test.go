package configvalidator

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/pkgdb"
)

// feedFleet builds n images in a registry and streams their entities.
func feedFleet(t testing.TB, n int, rate float64) <-chan Entity {
	t.Helper()
	reg, _ := fixtures.Fleet(n, fixtures.Profile{Seed: 7, MisconfigRate: rate})
	ch := make(chan Entity)
	go func() {
		defer close(ch)
		for _, ref := range reg.Images() {
			img, err := reg.Pull(ref)
			if err != nil {
				return
			}
			ch <- img.Entity()
		}
	}()
	return ch
}

func TestValidateFleet(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	results := v.ValidateFleet(context.Background(), feedFleet(t, n, 0.5), FleetOptions{Workers: 4})
	summary := Summarize(results)
	if summary.Scanned != n || summary.Errors != 0 {
		t.Fatalf("summary = %+v", summary)
	}
	if summary.EntitiesWithFindings == 0 || summary.ByStatus[StatusFail] == 0 {
		t.Errorf("dirty fleet reported clean: %+v", summary)
	}
}

func TestValidateFleetSingleWorkerMatchesParallel(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	seq := Summarize(v.ValidateFleet(context.Background(), feedFleet(t, n, 0.5), FleetOptions{Workers: 1}))
	par := Summarize(v.ValidateFleet(context.Background(), feedFleet(t, n, 0.5), FleetOptions{Workers: 8}))
	if seq.Scanned != par.Scanned || seq.EntitiesWithFindings != par.EntitiesWithFindings {
		t.Fatalf("seq %+v != par %+v", seq, par)
	}
	for status, count := range seq.ByStatus {
		if par.ByStatus[status] != count {
			t.Errorf("status %v: seq %d, par %d", status, count, par.ByStatus[status])
		}
	}
}

func TestValidateFleetTargetFilter(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	results := v.ValidateFleet(context.Background(), feedFleet(t, 3, 0), FleetOptions{Workers: 2, Target: "sshd"})
	for res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for _, r := range res.Report.Results {
			if r.ManifestEntity != "sshd" {
				t.Fatalf("unexpected entity %s in targeted fleet scan", r.ManifestEntity)
			}
		}
	}
}

func TestValidateFleetCancellation(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// An endless stream of entities.
	entities := make(chan Entity)
	go func() {
		i := 0
		for {
			m := entity.NewMem(fmt.Sprintf("e-%d", i), entity.TypeHost)
			m.SetPackages([]pkgdb.Package{})
			select {
			case entities <- m:
				i++
			case <-ctx.Done():
				close(entities)
				return
			}
		}
	}()
	results := v.ValidateFleet(ctx, entities, FleetOptions{Workers: 2})
	got := 0
	for range results {
		got++
		if got == 5 {
			cancel()
		}
	}
	// The channel closed after cancellation: workers exited cleanly.
	if got < 5 {
		t.Fatalf("only %d results before close", got)
	}
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("context not cancelled")
	}
}

func TestValidateFleetBadTarget(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	results := v.ValidateFleet(context.Background(), feedFleet(t, 2, 0), FleetOptions{Workers: 1, Target: "nope"})
	summary := Summarize(results)
	if summary.Errors != 2 || summary.Scanned != 0 {
		t.Fatalf("summary = %+v", summary)
	}
}

func TestValidateFleetDefaultWorkers(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	results := v.ValidateFleet(context.Background(), feedFleet(t, 4, 0), FleetOptions{})
	if s := Summarize(results); s.Scanned != 4 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeErrors(t *testing.T) {
	ch := make(chan FleetResult, 2)
	ch <- FleetResult{Err: errors.New("boom")}
	ch <- FleetResult{Report: &Report{}}
	close(ch)
	s := Summarize(ch)
	if s.Errors != 1 || s.Scanned != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

// panicEntity panics as soon as validation crawls it.
type panicEntity struct {
	*entity.Mem
}

func (p *panicEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	panic("entity exploded mid-crawl")
}

// hangEntity blocks every crawl until release is closed.
type hangEntity struct {
	*entity.Mem
	release chan struct{}
}

func (h *hangEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	<-h.release
	return h.Mem.Walk(root, fn)
}

// flakyEntity fails its first failures crawls with a transient error,
// then behaves normally.
type flakyEntity struct {
	*entity.Mem
	mu       sync.Mutex
	failures int
}

func (f *flakyEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	f.mu.Lock()
	shouldFail := f.failures > 0
	if shouldFail {
		f.failures--
	}
	f.mu.Unlock()
	if shouldFail {
		return MarkTransient(errors.New("registry momentarily unavailable"))
	}
	return f.Mem.Walk(root, fn)
}

// permFailEntity always fails with a permanent (non-transient) error.
type permFailEntity struct {
	*entity.Mem
}

func (p *permFailEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	return errors.New("corrupt layer")
}

func sendEntities(ents ...Entity) <-chan Entity {
	ch := make(chan Entity, len(ents))
	for _, e := range ents {
		ch <- e
	}
	close(ch)
	return ch
}

// TestValidateFleetPanicIsolation is the regression for the pre-recovery
// behavior where a panicking worker killed the process (or, had the panic
// been swallowed, left Summarize deadlocked in its for-range): the results
// channel must still close, and the panic must surface as a per-entity
// error carrying the stack.
func TestValidateFleetPanicIsolation(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ok := entity.NewMem("ok-host", entity.TypeHost)
	boom := &panicEntity{Mem: entity.NewMem("boom-host", entity.TypeHost)}
	results := v.ValidateFleet(context.Background(), sendEntities(ok, boom), FleetOptions{Workers: 2})

	drained := make(chan FleetSummary, 1)
	go func() { drained <- Summarize(results) }()
	var summary FleetSummary
	select {
	case summary = <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("results channel never closed after a worker panic")
	}
	if summary.Errors != 1 || summary.Scanned != 1 {
		t.Fatalf("summary = %+v", summary)
	}
}

func TestValidateFleetPanicErrCarriesStack(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	boom := &panicEntity{Mem: entity.NewMem("boom-host", entity.TypeHost)}
	results := v.ValidateFleet(context.Background(), sendEntities(boom), FleetOptions{Workers: 1})
	res, open := <-results
	if !open {
		t.Fatal("no result for panicking entity")
	}
	if res.Err == nil {
		t.Fatal("panic did not surface as FleetResult.Err")
	}
	var pe *PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("err = %v, want *PanicError", res.Err)
	}
	if pe.Value != "entity exploded mid-crawl" || len(pe.Stack) == 0 {
		t.Fatalf("panic value = %v, stack len = %d", pe.Value, len(pe.Stack))
	}
	if Transient(res.Err) {
		t.Error("panic classified transient; it would be retried")
	}
	if _, open := <-results; open {
		t.Fatal("channel not closed")
	}
}

func TestValidateFleetScanTimeout(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release) // let the abandoned goroutine finish
	hung := &hangEntity{Mem: entity.NewMem("hung-host", entity.TypeHost), release: release}
	ok := entity.NewMem("ok-host", entity.TypeHost)

	start := time.Now()
	results := v.ValidateFleet(context.Background(), sendEntities(hung, ok),
		FleetOptions{Workers: 2, ScanTimeout: 100 * time.Millisecond})
	var timeoutErr error
	scanned := 0
	for res := range results {
		if res.Err != nil {
			timeoutErr = res.Err
		} else {
			scanned++
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fleet run took %v; hung entity stalled the pool", elapsed)
	}
	if scanned != 1 {
		t.Fatalf("scanned = %d, want 1", scanned)
	}
	if timeoutErr == nil || !errors.Is(timeoutErr, ErrScanTimeout) {
		t.Fatalf("err = %v, want ErrScanTimeout", timeoutErr)
	}
	if !Transient(timeoutErr) {
		t.Error("timeout should classify transient")
	}
}

func TestValidateFleetRetryThenSucceed(t *testing.T) {
	collector := NewCollector()
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyEntity{Mem: entity.NewMem("flaky-host", entity.TypeHost)}
	flaky.failures = 2
	results := v.ValidateFleet(context.Background(), sendEntities(flaky),
		FleetOptions{Workers: 1, Retries: 3, RetryBackoff: time.Millisecond})
	res := <-results
	if res.Err != nil {
		t.Fatalf("scan failed despite retries: %v", res.Err)
	}
	if res.Report == nil || res.Report.EntityName != "flaky-host" {
		t.Fatalf("report = %+v", res.Report)
	}
	if got := collector.Snapshot().Retries; got != 2 {
		t.Errorf("retries recorded = %d, want 2", got)
	}
}

func TestValidateFleetRetriesExhausted(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyEntity{Mem: entity.NewMem("flaky-host", entity.TypeHost)}
	flaky.failures = 100
	results := v.ValidateFleet(context.Background(), sendEntities(flaky),
		FleetOptions{Workers: 1, Retries: 2, RetryBackoff: time.Millisecond})
	res := <-results
	if res.Err == nil {
		t.Fatal("want error after exhausting retries")
	}
	flaky.mu.Lock()
	remaining := flaky.failures
	flaky.mu.Unlock()
	if got := 100 - remaining; got != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", got)
	}
}

func TestValidateFleetNoRetryOnPermanentError(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	perm := &permFailEntity{Mem: entity.NewMem("perm-host", entity.TypeHost)}
	start := time.Now()
	results := v.ValidateFleet(context.Background(), sendEntities(perm),
		FleetOptions{Workers: 1, Retries: 5, RetryBackoff: 200 * time.Millisecond})
	res := <-results
	if res.Err == nil {
		t.Fatal("want error")
	}
	// Five retries at 200ms+ backoff would take > 1s; a permanent error
	// must fail fast without any backoff waits.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("permanent error took %v; was it retried?", elapsed)
	}
}

// TestValidateFleetMixedPathologies is the acceptance scenario: a fleet
// containing one panicking and one hanging entity completes, reports both
// as per-entity errors, closes the results channel, and records non-zero
// scan/latency/error telemetry.
func TestValidateFleetMixedPathologies(t *testing.T) {
	collector := NewCollector()
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	ents := sendEntities(
		entity.NewMem("ok-1", entity.TypeHost),
		&panicEntity{Mem: entity.NewMem("boom", entity.TypeHost)},
		&hangEntity{Mem: entity.NewMem("hung", entity.TypeHost), release: release},
		entity.NewMem("ok-2", entity.TypeHost),
	)
	results := v.ValidateFleet(context.Background(), ents,
		FleetOptions{Workers: 3, ScanTimeout: 100 * time.Millisecond})

	byName := map[string]error{}
	scanned := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range results {
			if res.Err != nil {
				byName[res.Err.Error()] = res.Err
			} else {
				scanned++
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("fleet run did not complete")
	}
	if scanned != 2 || len(byName) != 2 {
		t.Fatalf("scanned = %d, errors = %d (%v)", scanned, len(byName), byName)
	}
	var sawPanic, sawTimeout bool
	for _, err := range byName {
		var pe *PanicError
		if errors.As(err, &pe) {
			sawPanic = true
		}
		if errors.Is(err, ErrScanTimeout) {
			sawTimeout = true
		}
	}
	if !sawPanic || !sawTimeout {
		t.Fatalf("sawPanic=%v sawTimeout=%v: %v", sawPanic, sawTimeout, byName)
	}

	s := collector.Snapshot()
	if s.Scans == 0 || s.Errors == 0 || s.Panics != 1 || s.Timeouts != 1 {
		t.Errorf("telemetry = %+v", s)
	}
	if s.ScanLatency.Count == 0 {
		t.Error("no scan latencies recorded")
	}
}

// TestValidateFleetConcurrentSharedValidator exercises the shared
// Validator / CachedSource under several simultaneous fleet runs — the
// configuration the race detector must stay quiet on.
func TestValidateFleetConcurrentSharedValidator(t *testing.T) {
	collector := NewCollector()
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	const fleets = 3
	const perFleet = 8
	var wg sync.WaitGroup
	summaries := make([]FleetSummary, fleets)
	for i := 0; i < fleets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results := v.ValidateFleet(context.Background(), feedFleet(t, perFleet, 0.5),
				FleetOptions{Workers: 4, ScanTimeout: 30 * time.Second})
			summaries[i] = Summarize(results)
		}(i)
	}
	wg.Wait()
	for i, s := range summaries {
		if s.Scanned != perFleet || s.Errors != 0 {
			t.Errorf("fleet %d: %+v", i, s)
		}
	}
	if got := collector.Snapshot().Scans; got != fleets*perFleet {
		t.Errorf("telemetry scans = %d, want %d", got, fleets*perFleet)
	}
}

func TestSummarizeCountsErrorEntities(t *testing.T) {
	ch := make(chan FleetResult, 3)
	// An entity whose rules all blew up in the crawler/lens: no failures,
	// but decidedly not a clean scan.
	ch <- FleetResult{Report: &Report{Results: []*Result{
		{Status: StatusError}, {Status: StatusError},
	}}}
	// A normal dirty entity.
	ch <- FleetResult{Report: &Report{Results: []*Result{
		{Status: StatusPass}, {Status: StatusFail},
	}}}
	// A clean entity.
	ch <- FleetResult{Report: &Report{Results: []*Result{{Status: StatusPass}}}}
	close(ch)
	s := Summarize(ch)
	if s.Scanned != 3 {
		t.Fatalf("scanned = %d", s.Scanned)
	}
	if s.EntitiesWithErrors != 1 {
		t.Errorf("EntitiesWithErrors = %d, want 1 (error-only entity reported clean)", s.EntitiesWithErrors)
	}
	if s.EntitiesWithFindings != 1 {
		t.Errorf("EntitiesWithFindings = %d, want 1", s.EntitiesWithFindings)
	}
	text := s.String()
	if !strings.Contains(text, "entities_with_errors=1") {
		t.Errorf("summary renderer omits error entities: %s", text)
	}
}

func BenchmarkFleetParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			v, err := New()
			if err != nil {
				b.Fatal(err)
			}
			reg, _ := fixtures.Fleet(50, fixtures.Profile{Seed: 7, MisconfigRate: 0.3})
			var ents []Entity
			for _, ref := range reg.Images() {
				img, err := reg.Pull(ref)
				if err != nil {
					b.Fatal(err)
				}
				ents = append(ents, img.Entity())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch := make(chan Entity)
				go func() {
					defer close(ch)
					for _, e := range ents {
						ch <- e
					}
				}()
				s := Summarize(v.ValidateFleet(context.Background(), ch, FleetOptions{Workers: workers}))
				if s.Scanned != 50 {
					b.Fatalf("scanned %d", s.Scanned)
				}
			}
		})
	}
}

// alwaysTransientEntity fails every crawl with a transient error, so
// retry-path tests can park scanOne in its backoff wait at will.
type alwaysTransientEntity struct {
	*entity.Mem
}

func (a *alwaysTransientEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	return MarkTransient(errors.New("backend always busy"))
}

// TestValidateFleetCancelDuringBackoff pins the backoff wait to the
// context: cancelling mid-wait must return promptly with the context
// error, not sleep out the remaining backoff.
func TestValidateFleetCancelDuringBackoff(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ent := &alwaysTransientEntity{Mem: entity.NewMem("busy-host", entity.TypeHost)}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := v.scanOne(ctx, ent, FleetOptions{Retries: 3, RetryBackoff: 30 * time.Second})
	elapsed := time.Since(start)
	if res.Err == nil || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("res.Err = %v, want context.Canceled", res.Err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancel during backoff took %v, want prompt return", elapsed)
	}
}

func TestClassifyScanError(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"panic", fmt.Errorf("scan x: %w", &PanicError{Value: "boom"}), ErrorKindPanic},
		{"timeout", fmt.Errorf("scan x: %w", ErrScanTimeout), ErrorKindTimeout},
		{"deadline", fmt.Errorf("scan x: %w", context.DeadlineExceeded), ErrorKindTimeout},
		{"cancelled", fmt.Errorf("scan x: %w", context.Canceled), ErrorKindCancelled},
		{"permanent", errors.New("corrupt layer"), ErrorKindPermanent},
		{"transient-marked", MarkTransient(errors.New("busy")), ErrorKindPermanent},
	} {
		if got := ClassifyScanError(tc.err); got != tc.want {
			t.Errorf("%s: ClassifyScanError = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestFleetErrorsByKind runs one fleet containing a panicking, a hanging,
// and a permanently failing entity and pins the per-kind error breakdown —
// both in the summary struct and in its rendered digest.
func TestFleetErrorsByKind(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	hang := &hangEntity{Mem: entity.NewMem("wedged", entity.TypeImage), release: make(chan struct{})}
	defer close(hang.release)
	results := v.ValidateFleet(context.Background(), sendEntities(
		&panicEntity{Mem: entity.NewMem("explosive", entity.TypeImage)},
		hang,
		&permFailEntity{Mem: entity.NewMem("corrupt", entity.TypeImage)},
	), FleetOptions{Workers: 3, ScanTimeout: 50 * time.Millisecond})
	s := Summarize(results)
	if s.Errors != 3 {
		t.Fatalf("errors = %d, want 3: %+v", s.Errors, s)
	}
	want := map[string]int{ErrorKindPanic: 1, ErrorKindTimeout: 1, ErrorKindPermanent: 1}
	for kind, n := range want {
		if s.ErrorsByKind[kind] != n {
			t.Errorf("ErrorsByKind[%s] = %d, want %d", kind, s.ErrorsByKind[kind], n)
		}
	}
	if s.ErrorsByKind[ErrorKindCancelled] != 0 {
		t.Errorf("phantom cancelled errors: %+v", s.ErrorsByKind)
	}
	text := s.String()
	for _, frag := range []string{"err_timeout=1", "err_panic=1", "err_cancelled=0", "err_permanent=1"} {
		if !strings.Contains(text, frag) {
			t.Errorf("summary digest missing %q: %s", frag, text)
		}
	}
}

// TestFleetCancelledErrorKind: a scan cut short by context cancellation
// classifies as cancelled, not permanent.
func TestFleetCancelledErrorKind(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ent := &alwaysTransientEntity{Mem: entity.NewMem("busy-host", entity.TypeHost)}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res := v.scanOne(ctx, ent, FleetOptions{Retries: 3, RetryBackoff: 30 * time.Second})
	if got := ClassifyScanError(res.Err); got != ErrorKindCancelled {
		t.Fatalf("ClassifyScanError(%v) = %q, want cancelled", res.Err, got)
	}
}

// signalEntity announces when its crawl starts, then blocks until released
// — the handle a test needs to cancel a run with a result in flight.
type signalEntity struct {
	*entity.Mem
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (s *signalEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	s.once.Do(func() { close(s.started) })
	<-s.release
	return s.Mem.Walk(root, fn)
}

// TestScanAbandonedCounted pins the ScanAbandoned telemetry counter: a
// result computed after the run's context is cancelled — with no receiver
// left — is dropped, and the drop is counted so operators can reconcile
// submitted vs. delivered (or journaled) entity counts.
func TestScanAbandonedCounted(t *testing.T) {
	collector := NewCollector()
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	se := &signalEntity{
		Mem:     entity.NewMem("in-flight", entity.TypeHost),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
	defer close(se.release)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := v.ValidateFleet(ctx, sendEntities(se), FleetOptions{Workers: 1})
	// Wait until the worker is mid-scan, then cancel with no receiver on
	// the results channel: the worker's delivery select sees only
	// ctx.Done, so the computed result is deterministically abandoned.
	// Hold off draining until the drop is counted — receiving earlier
	// would race the worker's delivery select.
	<-se.started
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for collector.Snapshot().ScansAbandoned == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := collector.Snapshot().ScansAbandoned; got != 1 {
		t.Fatalf("ScansAbandoned = %d, want 1", got)
	}
	delivered := 0
	for range results {
		delivered++
	}
	if delivered != 0 {
		t.Errorf("delivered = %d results after cancellation, want 0", delivered)
	}
}

// TestValidateFleetJournalResume is the library-level resume contract: a
// second run over an unchanged fleet with the same journal replays every
// report byte-identically, re-scans nothing, and counts each skip.
func TestValidateFleetJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	collector := NewCollector()
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6

	j1, err := OpenJournal(path, JournalOptions{Metrics: collector})
	if err != nil {
		t.Fatal(err)
	}
	clean := make(map[string][]byte, n)
	for res := range v.ValidateFleet(context.Background(), feedFleet(t, n, 0.5), FleetOptions{Workers: 3, Journal: j1}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Resumed {
			t.Errorf("first run resumed %s from an empty journal", res.Entity)
		}
		clean[res.Entity] = reportJSON(t, res.Report)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, JournalOptions{Metrics: collector})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := 0
	for res := range v.ValidateFleet(context.Background(), feedFleet(t, n, 0.5), FleetOptions{Workers: 3, Journal: j2}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.Resumed {
			t.Errorf("%s re-scanned on an unchanged fleet", res.Entity)
			continue
		}
		resumed++
		if got := reportJSON(t, res.Report); string(got) != string(clean[res.Entity]) {
			t.Errorf("%s: replayed report not byte-identical\ngot:  %s\nwant: %s", res.Entity, got, clean[res.Entity])
		}
	}
	if resumed != n {
		t.Errorf("resumed = %d, want %d", resumed, n)
	}
	if got := collector.Snapshot().JournalSkippedEntities; got != n {
		t.Errorf("JournalSkippedEntities = %d, want %d", got, n)
	}
}

// TestPanicErrorFormatting pins the *PanicError message shape: the panic
// value and the captured stack must both be present, so fleet logs are
// debuggable without re-reproducing the crash.
func TestPanicErrorFormatting(t *testing.T) {
	pe := &PanicError{Value: "slice index out of range", Stack: []byte("goroutine 7 [running]:\nmain.crash()")}
	msg := pe.Error()
	if !strings.Contains(msg, "scan panicked: slice index out of range") {
		t.Errorf("message %q missing panic value", msg)
	}
	if !strings.Contains(msg, "goroutine 7 [running]") {
		t.Errorf("message %q missing stack", msg)
	}
}

// TestNextBackoffBounds pins the decorrelated-jitter contract: each wait
// is drawn from [base, 3×previous] and never exceeds the 5s cap.
func TestNextBackoffBounds(t *testing.T) {
	defer func(orig func(int64) int64) { jitterInt63n = orig }(jitterInt63n)

	base := 50 * time.Millisecond
	jitterInt63n = func(n int64) int64 { return n - 1 } // worst case: max draw
	if got, want := nextBackoff(base, base), 3*base; got != want {
		t.Errorf("max draw = %v, want %v (3x previous)", got, want)
	}
	if got := nextBackoff(base, maxRetryBackoff); got != maxRetryBackoff {
		t.Errorf("max draw at cap = %v, want %v", got, maxRetryBackoff)
	}
	jitterInt63n = func(n int64) int64 { return 0 } // best case: min draw
	if got := nextBackoff(base, 10*base); got != base {
		t.Errorf("min draw = %v, want base %v", got, base)
	}
	if got := nextBackoff(maxRetryBackoff, maxRetryBackoff); got != maxRetryBackoff {
		t.Errorf("base at cap = %v, want %v", got, maxRetryBackoff)
	}
}

// TestNextBackoffStaysBounded walks the real (unpinned) jitter a few
// hundred steps and asserts the invariant holds for every draw.
func TestNextBackoffStaysBounded(t *testing.T) {
	base := 50 * time.Millisecond
	prev := base
	for i := 0; i < 500; i++ {
		next := nextBackoff(base, prev)
		upper := 3 * prev
		if upper > maxRetryBackoff {
			upper = maxRetryBackoff
		}
		if lower := base; upper < lower {
			upper = lower
		}
		if next < base || next > upper {
			t.Fatalf("step %d: backoff %v outside [%v, %v]", i, next, base, upper)
		}
		prev = next
	}
}

// TestNextBackoffProperty fuzzes the exported NextBackoff over random
// (base, previous) pairs with a seeded RNG: every draw must land in
// [base, min(3×previous, 5s)] (or degenerate to base when that interval
// is empty), the invariant the distributed coordinator relies on when it
// reuses the fleet's jitter for worker probing and dispatch retries.
func TestNextBackoffProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20170901))
	for i := 0; i < 5000; i++ {
		base := time.Duration(1+rng.Intn(2000)) * time.Millisecond
		prev := time.Duration(1+rng.Intn(12000)) * time.Millisecond
		got := NextBackoff(base, prev)
		upper := 3 * prev
		if upper > maxRetryBackoff {
			upper = maxRetryBackoff
		}
		if upper < base {
			upper = base
		}
		if got < base || got > upper {
			t.Fatalf("NextBackoff(%v, %v) = %v, outside [%v, %v]", base, prev, got, base, upper)
		}
	}
	// Cap degeneration: once base and previous both sit at the cap, the
	// draw is exactly the cap forever — backoff cannot creep past 5s.
	if got := NextBackoff(maxRetryBackoff, maxRetryBackoff); got != maxRetryBackoff {
		t.Fatalf("NextBackoff at cap = %v, want %v", got, maxRetryBackoff)
	}
}

// TestScanRevokedClassification pins the lease-revocation path end to
// end: a scan cancelled with ErrLeaseRevoked as the cancellation cause
// (context.WithCancelCause, what the distributed coordinator does when a
// lease expires) must surface the cause in the scan error and classify
// as revoked — distinguishable from a user pressing ^C — all the way
// into the fleet summary digest.
func TestScanRevokedClassification(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ent := &alwaysTransientEntity{Mem: entity.NewMem("leased-host", entity.TypeHost)}
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel(ErrLeaseRevoked)
	}()
	res := v.scanOne(ctx, ent, FleetOptions{Retries: 5, RetryBackoff: 30 * time.Second})
	if res.Err == nil || !errors.Is(res.Err, ErrLeaseRevoked) {
		t.Fatalf("res.Err = %v, want wrapped ErrLeaseRevoked", res.Err)
	}
	if got := ClassifyScanError(res.Err); got != ErrorKindRevoked {
		t.Fatalf("ClassifyScanError = %q, want %q", got, ErrorKindRevoked)
	}
	ch := make(chan FleetResult, 1)
	ch <- FleetResult{Entity: "leased-host", Err: res.Err}
	close(ch)
	sum := Summarize(ch)
	if sum.ErrorsByKind[ErrorKindRevoked] != 1 {
		t.Fatalf("ErrorsByKind = %v, want revoked=1", sum.ErrorsByKind)
	}
	if !strings.Contains(sum.String(), "err_revoked=1") {
		t.Fatalf("summary digest %q missing err_revoked=1", sum.String())
	}
}

// kindedErr is a test double for remote scan errors that carry their own
// classification across a process boundary (dist.RemoteError in
// production).
type kindedErr struct{ kind string }

func (e *kindedErr) Error() string     { return "remote: " + e.kind }
func (e *kindedErr) ErrorKind() string { return e.kind }

// TestClassifyScanErrorKinder pins the ErrorKinder hook: an error that
// names its own kind classifies as that kind — even wrapped — which is
// how a worker-side classification survives the wire to the coordinator.
func TestClassifyScanErrorKinder(t *testing.T) {
	for _, kind := range []string{ErrorKindTimeout, ErrorKindPanic, ErrorKindRevoked, ErrorKindPermanent} {
		err := fmt.Errorf("scan img:v1: %w", &kindedErr{kind: kind})
		if got := ClassifyScanError(err); got != kind {
			t.Errorf("ClassifyScanError(kinded %q) = %q, want %q", kind, got, kind)
		}
	}
	// A recovered panic outranks a carried kind: a panic during a revoked
	// lease is still a panic.
	wrapped := fmt.Errorf("%w: %w", &kindedErr{kind: ErrorKindTimeout}, &PanicError{Value: "boom"})
	if got := ClassifyScanError(wrapped); got != ErrorKindPanic {
		t.Errorf("ClassifyScanError(panic+kinded) = %q, want %q", got, ErrorKindPanic)
	}
}

// TestFleetMetricsExposition asserts the fleet counters land in the
// Prometheus exposition under their contract names: the retry counter
// driven by a real transiently-failing scan, and the shard-lease counters
// (whose increments are driven end to end by the distributed chaos
// drills) under the names operators alert on.
func TestFleetMetricsExposition(t *testing.T) {
	collector := NewCollector()
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyEntity{Mem: entity.NewMem("flaky-host", entity.TypeHost)}
	flaky.failures = 2
	results := v.ValidateFleet(context.Background(), sendEntities(flaky),
		FleetOptions{Retries: 3, RetryBackoff: time.Millisecond})
	for range results {
	}
	collector.ShardDispatched()
	collector.LeaseReassigned()
	var buf bytes.Buffer
	if err := collector.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"configvalidator_scan_retries_total 2",
		"configvalidator_shards_dispatched_total 1",
		"configvalidator_scan_lease_reassignments_total 1",
		"configvalidator_lease_heartbeats_missed_total 0",
		"configvalidator_duplicate_results_dropped_total 0",
		"configvalidator_active_leases 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	snap := collector.Snapshot()
	if snap.Retries != 2 {
		t.Errorf("Retries = %d, want 2", snap.Retries)
	}
	if snap.LeaseReassignments != 1 {
		t.Errorf("LeaseReassignments = %d, want 1", snap.LeaseReassignments)
	}
}

// TestClassifyScanErrorWrappedChains pins classification over realistic
// nested chains: sentinels and carried kinds must survive any number of
// fmt.Errorf("%w", ...) layers, context.Cause plumbing, and the fault
// injector's error type.
func TestClassifyScanErrorWrappedChains(t *testing.T) {
	// A carried kind buried two wraps deep.
	deepKinded := fmt.Errorf("retry exhausted: %w", fmt.Errorf("shard 3: %w", &kindedErr{kind: ErrorKindRevoked}))
	if got := ClassifyScanError(deepKinded); got != ErrorKindRevoked {
		t.Errorf("nested ErrorKinder = %q, want %q", got, ErrorKindRevoked)
	}

	// A lease revocation delivered as a cancellation cause: the scheduler
	// cancels with context.WithCancelCause(ErrLeaseRevoked) and the scan
	// error wraps context.Cause(ctx).
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(ErrLeaseRevoked)
	viaCause := fmt.Errorf("scan img:v3: %w", context.Cause(ctx))
	if got := ClassifyScanError(viaCause); got != ErrorKindRevoked {
		t.Errorf("cause-wrapped revocation = %q, want %q", got, ErrorKindRevoked)
	}

	// Plain cancellation through the same path stays "cancelled".
	ctx2, cancel2 := context.WithCancelCause(context.Background())
	cancel2(nil) // cause defaults to context.Canceled
	viaCancel := fmt.Errorf("scan img:v4: %w", context.Cause(ctx2))
	if got := ClassifyScanError(viaCancel); got != ErrorKindCancelled {
		t.Errorf("cause-wrapped cancellation = %q, want %q", got, ErrorKindCancelled)
	}

	// The timeout sentinel nested twice.
	deepTimeout := fmt.Errorf("scan img:v5: %w", fmt.Errorf("attempt 2: %w", ErrScanTimeout))
	if got := ClassifyScanError(deepTimeout); got != ErrorKindTimeout {
		t.Errorf("nested timeout = %q, want %q", got, ErrorKindTimeout)
	}

	// Injected faults (wrapped): permanent errors retrying will not fix.
	inj := faults.MustNew(faults.Rule{Op: faults.OpRead, Kind: faults.KindError})
	_, injErr := inj.Apply(faults.OpRead, "/etc/ssh/sshd_config", nil)
	wrappedInj := fmt.Errorf("scan img:v6: %w", injErr)
	var ie *faults.InjectedError
	if !errors.As(wrappedInj, &ie) {
		t.Fatalf("injected error lost in wrap: %v", wrappedInj)
	}
	if got := ClassifyScanError(wrappedInj); got != ErrorKindPermanent {
		t.Errorf("wrapped injected error = %q, want %q", got, ErrorKindPermanent)
	}
	// A transient injected fault that exhausted its retries is still
	// permanent at classification time — retryability is not a kind.
	trans := faults.MustNew(faults.Rule{Op: faults.OpRead, Kind: faults.KindTransient})
	_, transErr := trans.Apply(faults.OpRead, "/f", nil)
	if got := ClassifyScanError(fmt.Errorf("scan: %w", transErr)); got != ErrorKindPermanent {
		t.Errorf("wrapped transient injected error = %q, want %q", got, ErrorKindPermanent)
	}
	// An ErrorKinder nested beneath another wrapper still outranks the
	// sentinel checks below it in the switch.
	kindedOverTimeout := fmt.Errorf("%w: %w", &kindedErr{kind: ErrorKindPermanent}, ErrScanTimeout)
	if got := ClassifyScanError(kindedOverTimeout); got != ErrorKindPermanent {
		t.Errorf("kinded+timeout = %q, want kinded to win: got %q", ErrorKindPermanent, got)
	}
}

// TestJournalDegradedExposition drives a real fleet scan against a
// journal whose disk is "full" and asserts the degradation surfaces
// everywhere the ISSUE promises: the per-result flag, the summary line,
// and the Prometheus exposition under the contract metric names.
func TestJournalDegradedExposition(t *testing.T) {
	collector := NewCollector()
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindENOSPC})
	var logged atomic.Int64
	jrnl, err := OpenJournal(filepath.Join(t.TempDir(), "fleet.cvj"), JournalOptions{
		Faults:     inj,
		Metrics:    collector,
		OnDegraded: func(error) { logged.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jrnl.Close()

	const n = 6
	sum := Summarize(v.ValidateFleet(context.Background(), feedFleet(t, n, 0.5), FleetOptions{
		Workers: 2,
		Journal: jrnl,
	}))
	if sum.Scanned != n || sum.Errors != 0 {
		t.Fatalf("summary = %+v: journal degradation must not fail scans", sum)
	}
	if sum.JournalDegraded != n {
		t.Errorf("JournalDegraded = %d, want %d (every append failed)", sum.JournalDegraded, n)
	}
	if !strings.Contains(sum.String(), fmt.Sprintf("journal_degraded=%d", n)) {
		t.Errorf("summary digest %q missing journal_degraded=%d", sum.String(), n)
	}
	if got := logged.Load(); got != 1 {
		t.Errorf("operator log fired %d times, want exactly 1 per run", got)
	}
	if !jrnl.Degraded() {
		t.Error("journal not degraded after ENOSPC appends")
	}

	var buf bytes.Buffer
	if err := collector.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("configvalidator_journal_append_errors_total %d", n),
		"configvalidator_journal_degraded 1",
		"configvalidator_journal_reprobes_total 0",
		"configvalidator_merge_stalls_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	snap := collector.Snapshot()
	if snap.JournalAppendErrors != n || snap.JournalDegraded != 1 {
		t.Errorf("snapshot journal counters = append_errors=%d degraded=%d, want %d/1",
			snap.JournalAppendErrors, snap.JournalDegraded, n)
	}
}
