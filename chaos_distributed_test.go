// Distributed chaos drills: the coordinator/worker scale-out must survive
// worker death and network partition without losing or double-counting a
// single entity. Each drill compares the merged FleetSummary digest of a
// faulted distributed run against a clean in-process run over the same
// fleet — the two one-line summaries must be byte-identical.
//
// This file is an external test package (configvalidator_test) because it
// wires internal/dist and internal/server together, both of which import
// the root package.
package configvalidator_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/journal"
	"configvalidator/internal/server"
)

// drillFleetProfile pins the generated fleet so the baseline and the
// faulted distributed run validate identical entities.
var drillFleetProfile = fixtures.Profile{Seed: 424242, MisconfigRate: 0.5}

// drillEntities streams a freshly generated copy of the drill fleet.
func drillEntities(t *testing.T, n int) <-chan configvalidator.Entity {
	t.Helper()
	reg, _ := fixtures.Fleet(n, drillFleetProfile)
	out := make(chan configvalidator.Entity)
	go func() {
		defer close(out)
		for _, ref := range reg.Images() {
			img, err := reg.Pull(ref)
			if err != nil {
				continue
			}
			out <- img.Entity()
		}
	}()
	return out
}

// baselineSummary runs the same fleet through the in-process scheduler —
// the digest every faulted distributed run must reproduce exactly.
func baselineSummary(t *testing.T, n int) string {
	t.Helper()
	v, err := configvalidator.New()
	if err != nil {
		t.Fatal(err)
	}
	sum := configvalidator.Summarize(v.ValidateFleet(context.Background(),
		drillEntities(t, n), configvalidator.FleetOptions{}))
	return sum.String()
}

// drillWorker starts a worker-shaped cvserver: shard scanning with a
// journal segment directory and an artificial per-entity delay so drills
// can land faults mid-shard deterministically.
func drillWorker(t *testing.T, delay time.Duration) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	v, err := configvalidator.New(configvalidator.WithTelemetry(configvalidator.NewCollector()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(v)
	if err != nil {
		t.Fatal(err)
	}
	s.ShardJournalDir = dir
	s.ShardScanDelay = delay
	s.ShardWorkers = 1
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, dir
}

// drillLogf returns a coordinator Logf that is safe to call from
// coordinator goroutines (worker probes) that may outlive the test body.
func drillLogf(t *testing.T) func(string, ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() { mu.Lock(); done = true; mu.Unlock() })
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

// summarizeAll re-feeds collected results through Summarize.
func summarizeAll(results []configvalidator.FleetResult) configvalidator.FleetSummary {
	ch := make(chan configvalidator.FleetResult, len(results))
	for _, r := range results {
		ch <- r
	}
	close(ch)
	return configvalidator.Summarize(ch)
}

// TestChaosDistributedWorkerKill is the headline drill: two workers share
// a fleet, and the slow worker is killed (connections severed, listener
// closed) as soon as it delivers its first result. The coordinator must
// revoke the dead worker's leases, reassign the undelivered remainder to
// the survivor, drop any duplicate deliveries, and produce a summary
// byte-identical to a clean single-process run.
func TestChaosDistributedWorkerKill(t *testing.T) {
	const fleetSize = 18
	want := baselineSummary(t, fleetSize)

	w1, _ := drillWorker(t, 150*time.Millisecond) // slow: shards in flight when killed
	w2, _ := drillWorker(t, 0)

	collector := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator([]string{w1.URL, w2.URL}, dist.Options{
		ShardSize:         3,
		LeaseTTL:          5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		ProbeLimit:        3,
		ProbeBackoff:      30 * time.Millisecond,
		Logf:              drillLogf(t),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results := v.ValidateFleet(ctx, drillEntities(t, fleetSize),
		configvalidator.FleetOptions{Scheduler: coord})

	killed := false
	var all []configvalidator.FleetResult
	fromSurvivor := 0
	for res := range results {
		if !killed && res.Worker == w1.URL {
			killed = true
			// SIGKILL equivalent for an httptest server: sever every
			// connection (in-flight shard streams die mid-line), then close
			// the listener so /readyz probes see a dead host.
			w1.CloseClientConnections()
			go w1.Close()
		}
		if res.Worker == w2.URL {
			fromSurvivor++
		}
		all = append(all, res)
	}
	if !killed {
		t.Fatal("no result ever arrived from the to-be-killed worker; drill did not exercise reassignment")
	}

	// Exactly-once: every entity appears once, none twice, none lost.
	seen := map[string]int{}
	for _, res := range all {
		seen[res.Entity]++
		if res.Err != nil {
			t.Errorf("entity %s errored after reassignment: %v", res.Entity, res.Err)
		}
	}
	if len(seen) != fleetSize {
		t.Fatalf("distinct entities = %d, want %d", len(seen), fleetSize)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("entity %s counted %d times, want exactly once", name, n)
		}
	}
	if fromSurvivor == 0 {
		t.Error("surviving worker produced no results")
	}

	if got := summarizeAll(all).String(); got != want {
		t.Errorf("faulted distributed summary diverged from clean run:\n got: %s\nwant: %s", got, want)
	}
	snap := collector.Snapshot()
	if snap.LeaseReassignments == 0 {
		t.Error("worker killed mid-shard but no lease was reassigned")
	}
	if snap.ShardsCompleted != snap.ShardsDispatched-snap.LeaseReassignments {
		t.Errorf("lease accounting leak: dispatched=%d completed=%d reassigned=%d",
			snap.ShardsDispatched, snap.ShardsCompleted, snap.LeaseReassignments)
	}
	if snap.ActiveLeases != 0 {
		t.Errorf("active lease gauge = %d after run, want 0", snap.ActiveLeases)
	}
}

// tornSegmentTail appends a truncated record to a journal segment — the
// bytes a worker SIGKILLed mid-append leaves behind. Error-returning
// because drills call it off the test goroutine.
func tornSegmentTail(path string) error {
	payload := []byte(`{"entity":"torn","digest":"dead"}`)
	var rec bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	rec.Write(hdr[:])
	rec.Write(payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(rec.Bytes()[:rec.Len()-5]); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// TestChaosDistributedPartitionTornTail drills the uglier recovery path
// on a single worker: the coordinator's connections are severed mid-shard
// (partition — the worker process survives), the shard's journal segment
// is left with a torn tail, and the segment flock is still held when the
// coordinator re-leases (it must see 409 + Retry-After and retry, not
// fail). The re-leased shard replays the worker's completed results from
// the wounded segment, and the final summary still matches a clean run.
func TestChaosDistributedPartitionTornTail(t *testing.T) {
	const fleetSize = 8
	want := baselineSummary(t, fleetSize)

	w, dir := drillWorker(t, 150*time.Millisecond)

	collector := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator([]string{w.URL}, dist.Options{
		ShardSize:         4,
		LeaseTTL:          5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		ProbeLimit:        30,
		ProbeBackoff:      150 * time.Millisecond, // give the test the flock race
		Logf:              drillLogf(t),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results := v.ValidateFleet(ctx, drillEntities(t, fleetSize),
		configvalidator.FleetOptions{Scheduler: coord})

	faulted := make(chan string, 1) // shard segment the fault landed on
	injected := false
	var all []configvalidator.FleetResult
	for res := range results {
		if !injected {
			injected = true
			// Partition: kill the connections but leave the process alive,
			// then wound the journal segment of the in-flight shard while
			// holding its flock across the coordinator's re-lease attempt.
			w.CloseClientConnections()
			go func() {
				seg := filepath.Join(dir, "s0000.cvj")
				deadline := time.Now().Add(30 * time.Second)
				var holder *journal.Journal
				for {
					j, err := journal.Open(seg, journal.Options{})
					if err == nil {
						holder = j
						break
					}
					if !errors.Is(err, journal.ErrBusy) || time.Now().After(deadline) {
						faulted <- ""
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				if err := tornSegmentTail(seg); err != nil {
					_ = holder.Close()
					faulted <- ""
					return
				}
				// Hold the flock until the coordinator's re-lease has been
				// bounced at least once with 409, then let it through.
				for time.Now().Before(deadline) {
					if collector.Snapshot().WorkerRPCRetries > 0 {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				_ = holder.Close()
				faulted <- seg
			}()
		}
		all = append(all, res)
	}
	if !injected {
		t.Fatal("run produced no results; fault was never injected")
	}
	if seg := <-faulted; seg == "" {
		t.Fatal("could not acquire the shard segment flock after partition")
	}

	seen := map[string]int{}
	resumed := 0
	for _, res := range all {
		seen[res.Entity]++
		if res.Err != nil {
			t.Errorf("entity %s errored after partition recovery: %v", res.Entity, res.Err)
		}
		if res.Resumed {
			resumed++
		}
	}
	if len(seen) != fleetSize {
		t.Fatalf("distinct entities = %d, want %d", len(seen), fleetSize)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("entity %s counted %d times, want exactly once", name, n)
		}
	}

	if got := summarizeAll(all).String(); got != want {
		t.Errorf("post-partition summary diverged from clean run:\n got: %s\nwant: %s", got, want)
	}
	snap := collector.Snapshot()
	if snap.LeaseReassignments == 0 {
		t.Error("partition mid-shard but no lease was reassigned")
	}
	if snap.WorkerRPCRetries == 0 {
		t.Error("re-lease never hit the held segment's 409; flock fencing untested")
	}
	if snap.ActiveLeases != 0 {
		t.Errorf("active lease gauge = %d after run, want 0", snap.ActiveLeases)
	}
	t.Logf("drill: reassignments=%d rpc_retries=%d resumed=%d", snap.LeaseReassignments, snap.WorkerRPCRetries, resumed)
}

// drillWorkerFaulted starts a worker whose validator carries a fault
// injector — exactly what cvserver does when CV_FAULTS is set — and
// returns its telemetry collector for worker-side assertions.
func drillWorkerFaulted(t *testing.T, inj *configvalidator.FaultInjector, delay time.Duration) (*httptest.Server, *configvalidator.Collector) {
	t.Helper()
	collector := configvalidator.NewCollector()
	v, err := configvalidator.New(
		configvalidator.WithTelemetry(collector),
		configvalidator.WithFaults(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(v)
	if err != nil {
		t.Fatal(err)
	}
	s.ShardJournalDir = t.TempDir()
	s.ShardScanDelay = delay
	s.ShardWorkers = 1
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, collector
}

// TestChaosDistributedSegmentENOSPC: a worker's shard journal segment hits
// ENOSPC mid-shard. The worker streams a degraded-journal record and keeps
// scanning; the coordinator keeps the lease — zero reassignments, zero
// missed heartbeats — and the merged summary is byte-identical to a clean
// in-process run.
func TestChaosDistributedSegmentENOSPC(t *testing.T) {
	const fleetSize = 12
	want := baselineSummary(t, fleetSize)

	// The same spec an operator would set via CV_FAULTS.
	inj, err := configvalidator.ParseFaults("op=segment-write kind=enospc after=2")
	if err != nil {
		t.Fatal(err)
	}
	w, workerCol := drillWorkerFaulted(t, inj, 0)

	collector := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator([]string{w.URL}, dist.Options{
		ShardSize:         4,
		LeaseTTL:          5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		Logf:              drillLogf(t),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var all []configvalidator.FleetResult
	for res := range v.ValidateFleet(ctx, drillEntities(t, fleetSize),
		configvalidator.FleetOptions{Scheduler: coord}) {
		all = append(all, res)
	}

	seen := map[string]int{}
	for _, res := range all {
		seen[res.Entity]++
		if res.Err != nil {
			t.Errorf("entity %s errored under worker disk pressure: %v", res.Entity, res.Err)
		}
	}
	if len(seen) != fleetSize {
		t.Fatalf("distinct entities = %d, want %d", len(seen), fleetSize)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("entity %s counted %d times, want exactly once", name, n)
		}
	}
	if got := summarizeAll(all).String(); got != want {
		t.Errorf("summary diverged from clean run:\n got: %s\nwant: %s", got, want)
	}
	snap := collector.Snapshot()
	if snap.LeaseReassignments != 0 {
		t.Errorf("lease reassigned %d times; worker disk pressure must not cost the lease", snap.LeaseReassignments)
	}
	if snap.HeartbeatsMissed != 0 {
		t.Errorf("heartbeats missed = %d, want 0", snap.HeartbeatsMissed)
	}
	wsnap := workerCol.Snapshot()
	if wsnap.JournalAppendErrors == 0 {
		t.Error("worker counted no segment append errors; fault never fired")
	}
	if wsnap.JournalDegraded != 1 {
		t.Error("worker journal_degraded gauge not set")
	}
}

// TestChaosDistributedSegment507: the worker cannot even OPEN its journal
// segment (disk full during the header write). It must answer 507, and the
// coordinator must keep the lease and retry in place with worker-side
// resume disabled — the scan completes with zero reassignments.
func TestChaosDistributedSegment507(t *testing.T) {
	const fleetSize = 8
	want := baselineSummary(t, fleetSize)

	// The journal's header fsync is the first write a new segment performs.
	inj, err := configvalidator.ParseFaults("op=fsync kind=enospc times=1")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := drillWorkerFaulted(t, inj, 0)

	collector := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator([]string{w.URL}, dist.Options{
		ShardSize:         4,
		LeaseTTL:          5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		Logf:              drillLogf(t),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var all []configvalidator.FleetResult
	for res := range v.ValidateFleet(ctx, drillEntities(t, fleetSize),
		configvalidator.FleetOptions{Scheduler: coord}) {
		if res.Err != nil {
			t.Errorf("entity %s errored after 507 re-dispatch: %v", res.Entity, res.Err)
		}
		all = append(all, res)
	}
	if len(all) != fleetSize {
		t.Fatalf("results = %d, want %d", len(all), fleetSize)
	}
	if got := summarizeAll(all).String(); got != want {
		t.Errorf("summary diverged from clean run:\n got: %s\nwant: %s", got, want)
	}
	snap := collector.Snapshot()
	if snap.WorkerRPCRetries == 0 {
		t.Error("no in-place retry recorded; the 507 path never exercised")
	}
	if snap.LeaseReassignments != 0 {
		t.Errorf("lease reassigned %d times; a 507 must be retried in place", snap.LeaseReassignments)
	}
}

// TestChaosDistributedStuckConsumer: the FleetResult consumer wedges for
// several lease TTLs mid-run. Backpressure must hold the shard streams
// without revoking a single healthy lease — the watchdog has to tell
// "consumer stalled" from "worker silent" — the stall must be counted, and
// every goroutine the run spawned must wind down afterwards.
func TestChaosDistributedStuckConsumer(t *testing.T) {
	const fleetSize = 8
	want := baselineSummary(t, fleetSize)

	w, _ := drillWorker(t, 0)
	httpClient := &http.Client{}
	before := runtime.NumGoroutine()

	collector := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(collector))
	if err != nil {
		t.Fatal(err)
	}
	const leaseTTL = 200 * time.Millisecond
	coord := dist.NewCoordinator([]string{w.URL}, dist.Options{
		ShardSize:         4,
		LeaseTTL:          leaseTTL,
		HeartbeatInterval: 25 * time.Millisecond,
		StallWarn:         50 * time.Millisecond,
		HTTPClient:        httpClient,
		Logf:              drillLogf(t),
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results := v.ValidateFleet(ctx, drillEntities(t, fleetSize),
		configvalidator.FleetOptions{Scheduler: coord})

	stalled := false
	var all []configvalidator.FleetResult
	for res := range results {
		if !stalled {
			stalled = true
			// The consumer wedges for 5 lease TTLs while results are in
			// flight behind it.
			time.Sleep(5 * leaseTTL)
		}
		all = append(all, res)
	}

	seen := map[string]int{}
	for _, res := range all {
		seen[res.Entity]++
		if res.Err != nil {
			t.Errorf("entity %s errored during consumer stall: %v", res.Entity, res.Err)
		}
	}
	if len(seen) != fleetSize {
		t.Fatalf("distinct entities = %d, want %d", len(seen), fleetSize)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("entity %s counted %d times, want exactly once", name, n)
		}
	}
	if got := summarizeAll(all).String(); got != want {
		t.Errorf("summary diverged from clean run:\n got: %s\nwant: %s", got, want)
	}
	snap := collector.Snapshot()
	if snap.LeaseReassignments != 0 {
		t.Errorf("consumer stall cost %d lease reassignments; healthy workers must not be revoked", snap.LeaseReassignments)
	}
	if snap.HeartbeatsMissed != 0 {
		t.Errorf("heartbeats missed = %d during a consumer stall, want 0", snap.HeartbeatsMissed)
	}
	if snap.MergeStalls == 0 {
		t.Error("merge_stalls_total = 0; the stall was never surfaced")
	}

	// No goroutine leak: with the run drained and idle connections closed,
	// the goroutine count returns to its pre-run level.
	httpClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines = %d after drain, want <= %d (+3 slack); run leaked goroutines",
				runtime.NumGoroutine(), before)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDistributedCoordinatorJournalResume pins the coordinator's half of
// the resume policy: it commits every merged result it did not replay
// from its own journal, worker-resumed ones included, so a re-run over
// that journal replays the whole fleet without dispatching a shard.
func TestDistributedCoordinatorJournalResume(t *testing.T) {
	const fleetSize = 8
	want := baselineSummary(t, fleetSize)
	w, _ := drillWorker(t, 0)
	jpath := filepath.Join(t.TempDir(), "coordinator.cvj")

	// run scans the drill fleet through the worker, over a coordinator
	// journal when jrnl is set, and returns the results and counters.
	run := func(jrnl *configvalidator.Journal) ([]configvalidator.FleetResult, configvalidator.MetricsSnapshot) {
		t.Helper()
		collector := configvalidator.NewCollector()
		v, err := configvalidator.New(configvalidator.WithTelemetry(collector))
		if err != nil {
			t.Fatal(err)
		}
		coord := dist.NewCoordinator([]string{w.URL}, dist.Options{
			ShardSize:         4,
			LeaseTTL:          5 * time.Second,
			HeartbeatInterval: 25 * time.Millisecond,
			Logf:              drillLogf(t),
		})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		var all []configvalidator.FleetResult
		for res := range v.ValidateFleet(ctx, drillEntities(t, fleetSize),
			configvalidator.FleetOptions{Scheduler: coord, Journal: jrnl}) {
			if res.Err != nil {
				t.Fatalf("entity %s: %v", res.Entity, res.Err)
			}
			all = append(all, res)
		}
		if got := summarizeAll(all).String(); got != want {
			t.Fatalf("summary diverged from clean run:\n got: %s\nwant: %s", got, want)
		}
		return all, collector.Snapshot()
	}
	open := func() *configvalidator.Journal {
		t.Helper()
		j, err := configvalidator.OpenJournal(jpath, configvalidator.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Run 1, no coordinator journal: the worker fills its shard segments.
	run(nil)

	// Run 2, a fresh coordinator journal: the worker replays every entity
	// from its segments, and the coordinator commits every result.
	j := open()
	all, _ := run(j)
	for _, res := range all {
		if !res.Resumed || res.Worker != w.URL {
			t.Errorf("run 2: %s resumed=%v worker=%q, want resumed by the worker", res.Entity, res.Resumed, res.Worker)
		}
	}
	if st := j.Stats(); st.Appends != fleetSize || st.Entities != fleetSize {
		t.Errorf("run 2: coordinator journal holds %d appends over %d entities, want %d", st.Appends, st.Entities, fleetSize)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 3, the reopened journal: the coordinator replays every entity
	// itself and ships nothing.
	j = open()
	defer j.Close()
	all, snap := run(j)
	for _, res := range all {
		if !res.Resumed || res.Worker != "" {
			t.Errorf("run 3: %s resumed=%v worker=%q, want replayed by the coordinator", res.Entity, res.Resumed, res.Worker)
		}
	}
	if snap.ShardsDispatched != 0 {
		t.Errorf("run 3 dispatched %d shards, want 0", snap.ShardsDispatched)
	}
	if st := j.Stats(); st.Appends != 0 {
		t.Errorf("run 3 appended %d records, want 0 (replays are not committed again)", st.Appends)
	}
}
