package configvalidator

// Chaos acceptance suite: a 50-entity fleet scanned with deterministic
// faults armed in three pipeline layers — crawler reads, lens parsing,
// and rule evaluation — plus one entity-access (walk) failure. The run
// must complete with zero crashes, every injected fault must surface as
// either a Degraded finding or a classified FleetResult.Err, and entities
// the injector never touched must produce byte-identical reports to a
// fault-free baseline.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
)

const chaosFleetSize = 50

// chaosEntity builds the i-th fleet member. Content varies per index so
// byte-identical report comparison is meaningful, not vacuous.
func chaosEntity(i int) Entity {
	m := entity.NewMem(fmt.Sprintf("chaos-host-%02d", i), entity.TypeHost)
	root := "no"
	if i%3 == 0 {
		root = "yes"
	}
	m.AddFile("/etc/ssh/sshd_config", []byte(fmt.Sprintf(
		"Port %d\nPermitRootLogin %s\nProtocol 2\nPermitEmptyPasswords no\n", 2200+i, root)))
	m.AddFile("/etc/nginx/nginx.conf", []byte(fmt.Sprintf(
		"user nginx;\nhttp {\n    server_tokens off;\n    keepalive_timeout %d;\n}\n", 30+i)))
	return m
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep, OutputOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestChaosFleetGracefulDegradation(t *testing.T) {
	// Fault-free baseline, one report per entity.
	baselineV, err := New()
	if err != nil {
		t.Fatal(err)
	}
	baseline := make(map[string][]byte, chaosFleetSize)
	for i := 0; i < chaosFleetSize; i++ {
		ent := chaosEntity(i)
		rep, err := baselineV.Validate(ent)
		if err != nil {
			t.Fatalf("baseline validate %s: %v", ent.Name(), err)
		}
		if len(rep.Degraded()) != 0 {
			t.Fatalf("baseline scan of %s degraded: %+v", ent.Name(), rep.Degraded()[0])
		}
		baseline[ent.Name()] = reportJSON(t, rep)
	}

	// Chaos run: faults in three layers plus one entity-access failure.
	// The walk rule fires on the globally first walk call, which is by
	// construction the first pipeline activity of whichever scan reaches
	// it — so exactly one entity fails entity-level with no other faults
	// consumed by its aborted scan, and the reconciliation below is exact.
	inj := faults.MustNew(
		faults.Rule{Op: faults.OpWalk, Nth: 1, Kind: faults.KindError, Msg: "layer store unreachable"},
		faults.Rule{Op: faults.OpRead, Path: "sshd_config", Every: 3, Times: 5, Kind: faults.KindError, Msg: "disk read failed"},
		faults.Rule{Op: faults.OpParse, Path: "nginx.conf", Every: 4, Times: 4, Kind: faults.KindPanic},
		faults.Rule{Op: faults.OpEval, Path: "sshd/", Every: 7, Times: 8, Kind: faults.KindError, Msg: "evaluator wedged"},
	)
	collector := NewCollector()
	chaosV, err := New(WithFaults(inj), WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Entity)
	go func() {
		defer close(ch)
		for i := 0; i < chaosFleetSize; i++ {
			ch <- chaosEntity(i)
		}
	}()
	var results []FleetResult
	for res := range chaosV.ValidateFleet(context.Background(), ch, FleetOptions{Workers: 8}) {
		results = append(results, res)
	}
	if len(results) != chaosFleetSize {
		t.Fatalf("fleet returned %d results, want %d", len(results), chaosFleetSize)
	}

	// Zero crashes: every result is a report or a classified error, and
	// every error traces back to the injector, not to a real failure.
	var scanErrs int
	var degradedTotal int64
	layers := map[string]int{"read": 0, "parse": 0, "eval": 0}
	var clean, compared int
	for _, res := range results {
		if res.Err != nil {
			scanErrs++
			if !errors.Is(res.Err, faults.ErrInjected) {
				t.Errorf("scan error not classified as injected: %v", res.Err)
			}
			var pe *PanicError
			if errors.As(res.Err, &pe) {
				t.Errorf("injected fault escaped as panic: %v", res.Err)
			}
			continue
		}
		degraded := res.Report.Degraded()
		degradedTotal += int64(len(degraded))
		for _, d := range degraded {
			switch {
			case strings.Contains(d.Message, "crawler: read"):
				layers["read"]++
			case strings.Contains(d.Message, "read/parse panicked"):
				layers["parse"]++
			case strings.Contains(d.Message, "evaluator wedged"):
				layers["eval"]++
			default:
				t.Errorf("unattributed degraded finding: %q", d.Message)
			}
		}
		if len(degraded) == 0 {
			clean++
			want, ok := baseline[res.Report.EntityName]
			if !ok {
				t.Fatalf("unknown entity %q in fleet results", res.Report.EntityName)
			}
			if got := reportJSON(t, res.Report); !bytes.Equal(got, want) {
				t.Errorf("non-faulted entity %s: chaos report differs from fault-free baseline", res.Report.EntityName)
			}
			compared++
		}
	}
	if scanErrs != 1 {
		t.Errorf("scan errors = %d, want exactly 1 (the walk fault)", scanErrs)
	}
	for layer, n := range layers {
		if n == 0 {
			t.Errorf("no degraded findings surfaced from the %s layer", layer)
		}
	}
	if compared == 0 {
		t.Error("no clean entities left to compare against the baseline")
	}

	// Exact reconciliation: every injected fault is accounted for — one
	// walk fault became the scan error, the rest are degraded findings.
	if got := inj.Injected(); got != degradedTotal+1 {
		t.Errorf("injected %d faults, surfaced %d degraded findings + 1 scan error", got, degradedTotal)
	}

	// Telemetry agrees: degraded results counted, in-flight gauge drained.
	snap := collector.Snapshot()
	if got := snap.ResultsByStatus[StatusDegraded]; got != degradedTotal {
		t.Errorf("telemetry degraded = %d, want %d", got, degradedTotal)
	}
	if snap.InFlightScans != 0 {
		t.Errorf("in-flight gauge = %d after fleet drained, want 0", snap.InFlightScans)
	}

	// Summarize sees the same world.
	resend := make(chan FleetResult, len(results))
	for _, r := range results {
		resend <- r
	}
	close(resend)
	sum := Summarize(resend)
	if sum.Errors != scanErrs || sum.Scanned != chaosFleetSize-scanErrs {
		t.Errorf("summary scanned=%d errors=%d, want %d/%d", sum.Scanned, sum.Errors, chaosFleetSize-scanErrs, scanErrs)
	}
	if int64(sum.ByStatus[StatusDegraded]) != degradedTotal {
		t.Errorf("summary degraded = %d, want %d", sum.ByStatus[StatusDegraded], degradedTotal)
	}
	if sum.EntitiesDegraded != chaosFleetSize-scanErrs-clean {
		t.Errorf("summary entities_degraded = %d, want %d", sum.EntitiesDegraded, chaosFleetSize-scanErrs-clean)
	}
	if !strings.Contains(sum.String(), "entities_degraded=") {
		t.Errorf("summary digest missing degraded field: %s", sum.String())
	}
}

// TestChaosFleetParallelEvaluation re-runs the fault-injected fleet drill
// with intra-entity parallelism and a shared parse cache armed: injected
// faults — including panics raised inside worker goroutines — must still
// surface as degraded findings with exact reconciliation, never as
// crashes, and untouched entities must match a fault-free serial baseline
// byte for byte. Unlike the serial drill this one injects no walk fault:
// with entries prepared concurrently, an entity-level abort would discard
// sibling findings whose faults were already consumed, so only
// read/parse/eval faults (which each surface in some report) keep the
// accounting exact. Runs under -race in CI (scripts/ci.sh).
func TestChaosFleetParallelEvaluation(t *testing.T) {
	baselineV, err := New()
	if err != nil {
		t.Fatal(err)
	}
	baseline := make(map[string][]byte, chaosFleetSize)
	for i := 0; i < chaosFleetSize; i++ {
		ent := chaosEntity(i)
		rep, err := baselineV.Validate(ent)
		if err != nil {
			t.Fatalf("baseline validate %s: %v", ent.Name(), err)
		}
		baseline[ent.Name()] = reportJSON(t, rep)
	}

	inj := faults.MustNew(
		faults.Rule{Op: faults.OpRead, Path: "sshd_config", Every: 3, Times: 5, Kind: faults.KindError, Msg: "disk read failed"},
		faults.Rule{Op: faults.OpParse, Path: "nginx.conf", Every: 4, Times: 4, Kind: faults.KindPanic},
		faults.Rule{Op: faults.OpEval, Path: "sshd/", Every: 7, Times: 8, Kind: faults.KindError, Msg: "evaluator wedged"},
		faults.Rule{Op: faults.OpEval, Path: "nginx/", Every: 5, Times: 6, Kind: faults.KindPanic},
	)
	chaosV, err := New(
		WithFaults(inj),
		WithParallelism(8),
		WithParseCache(NewParseCache(0)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Entity)
	go func() {
		defer close(ch)
		for i := 0; i < chaosFleetSize; i++ {
			ch <- chaosEntity(i)
		}
	}()
	var results []FleetResult
	for res := range chaosV.ValidateFleet(context.Background(), ch, FleetOptions{Workers: 4}) {
		results = append(results, res)
	}
	if len(results) != chaosFleetSize {
		t.Fatalf("fleet returned %d results, want %d", len(results), chaosFleetSize)
	}

	var degradedTotal int64
	layers := map[string]int{"read": 0, "parse": 0, "eval": 0, "eval-panic": 0}
	var compared int
	for _, res := range results {
		if res.Err != nil {
			t.Fatalf("parallel chaos scan errored (faults must degrade, not abort): %v", res.Err)
		}
		degraded := res.Report.Degraded()
		degradedTotal += int64(len(degraded))
		for _, d := range degraded {
			switch {
			case strings.Contains(d.Message, "crawler: read"):
				layers["read"]++
			case strings.Contains(d.Message, "read/parse panicked"):
				layers["parse"]++
			case strings.Contains(d.Message, "evaluator wedged"):
				layers["eval"]++
			case strings.Contains(d.Message, "rule evaluation panicked"):
				layers["eval-panic"]++
			default:
				t.Errorf("unattributed degraded finding: %q", d.Message)
			}
		}
		if len(degraded) == 0 {
			if got := reportJSON(t, res.Report); !bytes.Equal(got, baseline[res.Report.EntityName]) {
				t.Errorf("non-faulted entity %s: parallel cached report differs from serial fault-free baseline", res.Report.EntityName)
			}
			compared++
		}
	}
	for layer, n := range layers {
		if n == 0 {
			t.Errorf("no degraded findings surfaced from the %s layer", layer)
		}
	}
	if compared == 0 {
		t.Error("no clean entities left to compare against the baseline")
	}
	// Exact reconciliation: with no entity-level fault armed, every
	// injection is exactly one degraded finding in exactly one report.
	if got := inj.Injected(); got != degradedTotal {
		t.Errorf("injected %d faults, surfaced %d degraded findings", got, degradedTotal)
	}
	if stats := chaosV.ParseCacheStats(); stats.Hits+stats.Misses == 0 {
		t.Error("parse cache saw no traffic during the parallel chaos run")
	}
}

// TestChaosTransientReadRetriesToClean shows the degradation and retry
// policies composing: a transient *walk* fault aborts the first attempt
// entity-level, the fleet retries, and the second attempt comes back
// clean — no degraded findings, no error.
func TestChaosTransientWalkRetriesToClean(t *testing.T) {
	inj := faults.MustNew(
		faults.Rule{Op: faults.OpWalk, Nth: 1, Kind: faults.KindTransient, Msg: "backend briefly away"},
	)
	v, err := New(WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	ch := sendEntities(chaosEntity(1))
	res := <-v.ValidateFleet(context.Background(), ch, FleetOptions{
		Workers: 1, Retries: 2, RetryBackoff: time.Millisecond,
	})
	if res.Err != nil {
		t.Fatalf("retry did not recover from transient walk fault: %v", res.Err)
	}
	if n := len(res.Report.Degraded()); n != 0 {
		t.Fatalf("recovered scan has %d degraded findings, want 0", n)
	}
	if inj.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", inj.Injected())
	}
}

// chaosFleet returns the first n chaos entities as a slice (for
// sendEntities).
func chaosFleet(n int) []Entity {
	ents := make([]Entity, n)
	for i := range ents {
		ents[i] = chaosEntity(i)
	}
	return ents
}

// summarizeSlice replays drained results through Summarize.
func summarizeSlice(results []FleetResult) FleetSummary {
	ch := make(chan FleetResult, len(results))
	for _, r := range results {
		ch <- r
	}
	close(ch)
	return Summarize(ch)
}

// appendTornRecord leaves the journal in the on-disk state a SIGKILL
// mid-append produces: a record header promising more payload bytes than
// follow it. Layout mirrors the pinned format ([len u32le][crc u32le]
// [payload]; see journal.TestFormatPinned).
func appendTornRecord(t *testing.T, path string) {
	t.Helper()
	payload := []byte(`{"entity":"chaos-host-torn","digest":"deadbeef"}`)
	var rec bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	rec.Write(hdr[:])
	rec.Write(payload)
	torn := rec.Bytes()[:rec.Len()-7]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCrashDrillResume is the crash drill: a journaled fleet scan is
// "killed" after the Nth entity — the journal simply stops there, plus a
// torn half-record at the tail, exactly what dying mid-append leaves on
// disk. The re-run over the full fleet must recover the journal (truncate
// the torn tail, never abort), replay the N completed entities without
// re-scanning them, scan only the remainder, and produce per-entity
// reports and a summary digest byte-identical to an uninterrupted run's.
func TestChaosCrashDrillResume(t *testing.T) {
	const crashAt = 17

	// Uninterrupted baseline: per-entity reports and the summary line.
	cleanV, err := New()
	if err != nil {
		t.Fatal(err)
	}
	baseline := make(map[string][]byte, chaosFleetSize)
	var clean []FleetResult
	for res := range cleanV.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8}) {
		if res.Err != nil {
			t.Fatalf("clean scan of %s: %v", res.Entity, res.Err)
		}
		baseline[res.Entity] = reportJSON(t, res.Report)
		clean = append(clean, res)
	}
	cleanSummary := summarizeSlice(clean).String()

	// Crashed run: only the first crashAt entities complete, and the tail
	// then gains a torn half-record, as if the kill landed mid-append.
	// The journal handle is closed before the resumed run opens the path:
	// Open now enforces single-writer ownership with a process-death-
	// released flock, so the unclosed-handle variant of this drill can
	// only exist across real processes — which is exactly what
	// scripts/resume_smoke.sh exercises. The on-disk bytes here are
	// identical either way; recovery of the torn tail is unaffected.
	jpath := filepath.Join(t.TempDir(), "fleet.cvj")
	j1, err := OpenJournal(jpath, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crashV, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for res := range crashV.ValidateFleet(context.Background(), sendEntities(chaosFleet(crashAt)...), FleetOptions{Workers: 8, Journal: j1}) {
		if res.Err != nil {
			t.Fatalf("pre-crash scan of %s: %v", res.Entity, res.Err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	appendTornRecord(t, jpath)

	// Resume: recovery must swallow the torn tail (one corrupt record,
	// truncated away) and index the crashAt completed entities.
	collector := NewCollector()
	j2, err := OpenJournal(jpath, JournalOptions{Metrics: collector})
	if err != nil {
		t.Fatalf("journal recovery aborted on torn tail: %v", err)
	}
	defer func() { _ = j2.Close() }()
	if st := j2.Stats(); st.Replayed != crashAt || st.CorruptRecords != 1 {
		t.Fatalf("recovered journal: replayed=%d corrupt=%d, want %d/1", st.Replayed, st.CorruptRecords, crashAt)
	}

	resumedNames := make(map[string]bool, crashAt)
	for i := 0; i < crashAt; i++ {
		resumedNames[chaosEntity(i).Name()] = true
	}
	resumeV, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	var resumed []FleetResult
	replayCount := 0
	for res := range resumeV.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8, Journal: j2}) {
		if res.Err != nil {
			t.Fatalf("resumed scan of %s: %v", res.Entity, res.Err)
		}
		if res.Resumed {
			replayCount++
			if !resumedNames[res.Entity] {
				t.Errorf("entity %s replayed but was never journaled", res.Entity)
			}
		} else if resumedNames[res.Entity] {
			t.Errorf("entity %s re-scanned despite a journaled completed record", res.Entity)
		}
		if got := reportJSON(t, res.Report); !bytes.Equal(got, baseline[res.Entity]) {
			t.Errorf("entity %s: resumed-run report differs from clean-run report", res.Entity)
		}
		resumed = append(resumed, res)
	}
	if len(resumed) != chaosFleetSize {
		t.Fatalf("resumed run returned %d results, want %d", len(resumed), chaosFleetSize)
	}
	if replayCount != crashAt {
		t.Errorf("replayed %d entities, want %d", replayCount, crashAt)
	}
	if got := collector.Snapshot().JournalSkippedEntities; got != crashAt {
		t.Errorf("journal_skipped_entities_total = %d, want %d", got, crashAt)
	}
	if got := summarizeSlice(resumed).String(); got != cleanSummary {
		t.Errorf("merged summary differs from clean run:\n  clean:   %s\n  resumed: %s", cleanSummary, got)
	}
	// Only the entities the crash lost were appended on resume.
	if st := j2.Stats(); st.Appends != chaosFleetSize-crashAt {
		t.Errorf("resume appended %d records, want %d", st.Appends, chaosFleetSize-crashAt)
	}
}

// TestChaosCrashDrillErrorRecordRescans pins the failed-scan half of the
// resume protocol: a scan that errors (here, an injected walk panic) is
// journaled as an audit-only error record, so an otherwise-complete run
// resumed under a healthy validator replays everything EXCEPT that
// entity, which gets the re-scan it needs.
func TestChaosCrashDrillErrorRecordRescans(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "fleet.cvj")
	j1, err := OpenJournal(jpath, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.MustNew(faults.Rule{Op: faults.OpWalk, Nth: 1, Kind: faults.KindPanic})
	v1, err := New(WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	var failed string
	for res := range v1.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8, Journal: j1}) {
		if res.Err == nil {
			continue
		}
		if failed != "" {
			t.Fatalf("second scan failure %s (already had %s), want exactly one", res.Entity, failed)
		}
		failed = res.Entity
		var pe *PanicError
		if !errors.As(res.Err, &pe) {
			t.Errorf("injected walk panic not isolated as PanicError: %v", res.Err)
		}
	}
	if failed == "" {
		t.Fatal("no scan consumed the injected walk panic")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	collector := NewCollector()
	j2, err := OpenJournal(jpath, JournalOptions{Metrics: collector})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	v2, err := New(WithTelemetry(collector)) // fault-free: the re-scan succeeds
	if err != nil {
		t.Fatal(err)
	}
	for res := range v2.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8, Journal: j2}) {
		if res.Err != nil {
			t.Fatalf("resumed scan of %s: %v", res.Entity, res.Err)
		}
		if res.Entity == failed {
			if res.Resumed {
				t.Errorf("entity %s replayed its error record instead of re-scanning", failed)
			}
		} else if !res.Resumed {
			t.Errorf("entity %s re-scanned despite a journaled completed record", res.Entity)
		}
	}
	if got := collector.Snapshot().JournalSkippedEntities; got != chaosFleetSize-1 {
		t.Errorf("journal_skipped_entities_total = %d, want %d", got, chaosFleetSize-1)
	}
}

// TestValidateTargetUnknownClassified pins the ErrUnknownTarget sentinel
// the HTTP layer uses to keep caller mistakes out of breaker accounting.
func TestValidateTargetUnknownClassified(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.ValidateTarget(chaosEntity(0), "no-such-target")
	if !errors.Is(err, ErrUnknownTarget) {
		t.Fatalf("err = %v, want ErrUnknownTarget", err)
	}
}

// TestChaosDrillENOSPCByteIdentical is the disk-pressure acceptance drill:
// ENOSPC at every journal append point of a 50-entity fleet must not change
// a single finding. Per-entity reports are byte-identical to a clean run's,
// degradation is accounted exactly — all 50 results flagged, 50 append
// errors, zero scan errors — and a follow-up run over the same journal file
// resumes journaling once the disk recovers.
func TestChaosDrillENOSPCByteIdentical(t *testing.T) {
	cleanV, err := New()
	if err != nil {
		t.Fatal(err)
	}
	baseline := make(map[string][]byte, chaosFleetSize)
	var clean []FleetResult
	for res := range cleanV.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8}) {
		if res.Err != nil {
			t.Fatalf("clean scan of %s: %v", res.Entity, res.Err)
		}
		baseline[res.Entity] = reportJSON(t, res.Report)
		clean = append(clean, res)
	}
	cleanSummary := summarizeSlice(clean).String()

	// Degraded run: the disk is full for the entire scan.
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindENOSPC})
	collector := NewCollector()
	jpath := filepath.Join(t.TempDir(), "fleet.cvj")
	j1, err := OpenJournal(jpath, JournalOptions{Faults: inj, Metrics: collector})
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	var all []FleetResult
	for res := range v.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8, Journal: j1}) {
		if res.Err != nil {
			t.Fatalf("degraded-run scan of %s errored: %v (disk pressure must not fail scans)", res.Entity, res.Err)
		}
		if !res.JournalDegraded {
			t.Errorf("result %s not flagged JournalDegraded", res.Entity)
		}
		if got := reportJSON(t, res.Report); !bytes.Equal(got, baseline[res.Entity]) {
			t.Errorf("entity %s: degraded-run report differs from clean-run report", res.Entity)
		}
		all = append(all, res)
	}
	if len(all) != chaosFleetSize {
		t.Fatalf("degraded run returned %d results, want %d", len(all), chaosFleetSize)
	}
	sum := summarizeSlice(all)
	if sum.JournalDegraded != chaosFleetSize {
		t.Errorf("summary journal_degraded = %d, want %d", sum.JournalDegraded, chaosFleetSize)
	}
	// Degradation accounted, everything else byte-identical to the clean run.
	sum.JournalDegraded = 0
	if got := sum.String(); got != cleanSummary {
		t.Errorf("degraded summary diverged from clean run beyond the degraded count:\n got: %s\nwant: %s", got, cleanSummary)
	}
	if st := j1.Stats(); st.Appends != 0 || st.AppendErrors != chaosFleetSize || !st.Degraded {
		t.Errorf("journal stats = %+v, want 0 appends, %d errors, degraded", st, chaosFleetSize)
	}
	snap := collector.Snapshot()
	if snap.JournalAppendErrors != chaosFleetSize {
		t.Errorf("journal_append_errors_total = %d, want %d", snap.JournalAppendErrors, chaosFleetSize)
	}
	if snap.JournalDegraded != 1 {
		t.Error("journal_degraded gauge not set")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// The disk recovers: the same journal file accepts a fault-free run and
	// journaling resumes in full.
	collector2 := NewCollector()
	j2, err := OpenJournal(jpath, JournalOptions{Metrics: collector2})
	if err != nil {
		t.Fatalf("reopen after disk pressure: %v", err)
	}
	defer func() { _ = j2.Close() }()
	v2, err := New(WithTelemetry(collector2))
	if err != nil {
		t.Fatal(err)
	}
	var second []FleetResult
	for res := range v2.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8, Journal: j2}) {
		if res.Err != nil {
			t.Fatalf("recovered-run scan of %s: %v", res.Entity, res.Err)
		}
		if res.JournalDegraded {
			t.Errorf("result %s flagged degraded on a healthy disk", res.Entity)
		}
		second = append(second, res)
	}
	if got := summarizeSlice(second); got.JournalDegraded != 0 {
		t.Errorf("recovered-run journal_degraded = %d, want 0", got.JournalDegraded)
	}
	if st := j2.Stats(); st.Appends != chaosFleetSize || st.Degraded {
		t.Errorf("recovered journal stats = %+v, want %d appends and healthy", st, chaosFleetSize)
	}
}

// TestChaosDrillENOSPCMidRunRecovery drills in-process recovery: only the
// first append hits ENOSPC, and with a tiny re-probe interval journaling
// resumes inside the same process lifetime — no reopen, no restart. The
// timing-independent invariant: every one of the 50 results either
// journaled or counted an append error, nothing vanished.
func TestChaosDrillENOSPCMidRunRecovery(t *testing.T) {
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindENOSPC, Times: 1})
	collector := NewCollector()
	jpath := filepath.Join(t.TempDir(), "fleet.cvj")
	j, err := OpenJournal(jpath, JournalOptions{
		Faults:          inj,
		Metrics:         collector,
		ReprobeInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	degradedResults := 0
	for res := range v.ValidateFleet(context.Background(), sendEntities(chaosFleet(chaosFleetSize)...), FleetOptions{Workers: 8, Journal: j}) {
		if res.Err != nil {
			t.Fatalf("scan of %s errored under journal fault: %v", res.Entity, res.Err)
		}
		if res.JournalDegraded {
			degradedResults++
		}
	}
	st := j.Stats()
	if st.Appends+st.AppendErrors != chaosFleetSize {
		t.Errorf("append accounting leak: appends=%d + errors=%d != %d", st.Appends, st.AppendErrors, chaosFleetSize)
	}
	if st.AppendErrors == 0 {
		t.Error("injected fault never fired")
	}
	if int64(degradedResults) != st.AppendErrors {
		t.Errorf("degraded results = %d, append errors = %d; each failed append must flag exactly one result", degradedResults, st.AppendErrors)
	}

	// Whatever the scan's timing, the re-probe loop must resume journaling
	// promptly once the fault is exhausted.
	deadline := time.Now().Add(10 * time.Second)
	var aerr error
	for time.Now().Before(deadline) {
		if aerr = j.Append(JournalRecord{Entity: "drill-sentinel", Err: "sentinel"}); aerr == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if aerr != nil {
		t.Fatalf("journal never recovered from a cleared fault: %v", aerr)
	}
	if j.Degraded() {
		t.Error("journal still reports degraded after a successful append")
	}
	snap := collector.Snapshot()
	if snap.JournalReprobes == 0 {
		t.Error("recovery happened but no re-probe was recorded")
	}
	if snap.JournalDegraded != 0 {
		t.Error("journal_degraded gauge still set after recovery")
	}
	appends := j.Stats().Appends
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing the degraded episode touched corrupts the file: a reopen
	// replays every successful append and only those.
	j2, err := OpenJournal(jpath, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if st := j2.Stats(); st.Replayed != appends || st.CorruptRecords != 0 {
		t.Errorf("replay = %+v, want %d clean records", st, appends)
	}
}
