// Command cvserver runs ConfigValidator as an HTTP validation service —
// the deployment shape of the paper's production system: clients capture
// configuration frames locally (with crawlframe) and POST them for
// validation; no agent or remote access to the scanned entity is needed.
//
//	cvserver -addr :8080
//	crawlframe -demo host -out host.frame
//	curl --data-binary @host.frame http://localhost:8080/v1/validate/frame
//	curl http://localhost:8080/metrics        # scan + HTTP runtime metrics
//	curl http://localhost:8080/readyz         # breaker / drain readiness
//
// Uploads beyond -max-upload bytes are rejected with HTTP 413. Validation
// routes run behind overload protection: at most -max-inflight concurrent
// validations with a -queue-sized wait queue (excess requests shed with
// 429 + Retry-After), a per-request -validate-timeout, and a circuit
// breaker that opens after -breaker-threshold consecutive server-side
// failures for -breaker-cooldown. On SIGINT/SIGTERM the server drains:
// /readyz flips to 503, in-flight validations finish, then the listener
// closes.
//
// Setting CV_FAULTS arms deterministic fault injection in the validation
// pipeline (chaos drills); see docs/OPERATIONS.md.
//
// Every cvserver is also a shard-scan worker for distributed fleet
// validation: a coordinator ships shards of configuration frames to POST
// /v1/shard/scan, and the server scans them through the ordinary fleet
// pipeline, streaming back heartbeats and per-entity results under the
// coordinator's lease. The stream is exempt from the server's write
// timeout; the lease watchdog bounds it instead.
//
//	cvserver -addr :9101 -journal-dir /var/lib/cv/segments
//
// With -journal-dir set, each shard writes a durable journal segment; a
// shard re-leased to this worker after a lease revocation replays the
// results it already completed instead of re-scanning them. The segment
// files carry an exclusive flock, so a re-lease that races a still-dying
// previous request gets HTTP 409 and the coordinator retries.
// -shard-workers bounds the concurrent entity scans per shard, and
// -scan-delay paces them for chaos drills and CI smokes.
//
// With -coordinate, cvserver runs a distributed fleet validation instead
// of serving HTTP: it generates (or reads) a fleet of entities, shards
// them across the worker cvservers named by -workers under lease-based
// fault tolerance, and prints the merged fleet summary. -journal is the
// coordinator's own result journal, separate from a worker's
// -journal-dir. An empty -workers list scans the same fleet in-process —
// the baseline the worker-kill CI smoke compares the distributed summary
// digest against:
//
//	cvserver -coordinate -fleet 24                                # local baseline
//	cvserver -coordinate -fleet 24 -workers http://h1:9101,http://h2:9101
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/fsutil"
	"configvalidator/internal/server"
)

// faultsEnvVar names the fault-injection spec variable for log lines.
const faultsEnvVar = "CV_FAULTS"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cvserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cvserver", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxUpload := fs.Int64("max-upload", server.MaxFrameBytes, "largest accepted frame/tar body in bytes (oversized uploads get HTTP 413)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent validation and shard requests admitted (0 = default)")
	maxQueue := fs.Int("queue", 0, "validation and shard requests allowed to wait for a slot (0 = default)")
	queueWait := fs.Duration("queue-wait", 0, "longest a queued validation request waits before shedding (0 = default)")
	validateTimeout := fs.Duration("validate-timeout", 0, "per-request validation timeout (0 = default)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive server-side failures that open the circuit breaker (0 = default)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long the breaker stays open before probing (0 = default)")
	parallelism := fs.Int("parallelism", 0, "intra-entity evaluation parallelism (0 = GOMAXPROCS, 1 = serial)")
	parseCacheSize := fs.Int("parse-cache", configvalidator.DefaultParseCacheSize, "content-addressed parse cache capacity in files (0 = disabled)")
	journalDir := fs.String("journal-dir", "", "directory for per-shard journal segments when serving as a worker (empty disables worker-side resume)")
	shardWorkers := fs.Int("shard-workers", 0, "concurrent entity scans per shard (0 = GOMAXPROCS)")
	scanDelay := fs.Duration("scan-delay", 0, "artificial per-entity shard delay, for chaos drills and CI smokes only")
	coordinate := fs.Bool("coordinate", false, "run a coordinated fleet validation instead of serving HTTP")
	workers := fs.String("workers", "", "comma-separated worker cvserver base URLs for -coordinate (empty = scan in-process)")
	fleetSize := fs.Int("fleet", 16, "number of generated fleet entities for -coordinate")
	seed := fs.Int64("seed", 2017, "fleet generation seed for -coordinate")
	misconfigRate := fs.Float64("misconfig", 0.4, "fleet misconfiguration rate for -coordinate")
	shardSize := fs.Int("shard-size", 0, "entities per worker lease for -coordinate (0 = default)")
	leaseTTL := fs.Duration("lease-ttl", 0, "silence tolerated on a shard stream before revoking its lease (0 = default)")
	heartbeatInterval := fs.Duration("heartbeat", 0, "heartbeat cadence requested from workers (0 = lease-ttl/4)")
	scanTimeout := fs.Duration("scan-timeout", 0, "per-entity scan deadline for -coordinate (0 = none)")
	scanRetries := fs.Int("scan-retries", 0, "transient-failure retries per entity for -coordinate")
	fleetWorkers := fs.Int("fleet-workers", 0, "in-process scan concurrency for -coordinate without -workers (0 = GOMAXPROCS)")
	journalPath := fs.String("journal", "", "coordinator result journal for -coordinate (crash-safe, resumable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxUpload <= 0 {
		return fmt.Errorf("-max-upload must be positive")
	}
	if *coordinate {
		return runCoordinate(coordinateConfig{
			workers:       *workers,
			fleetSize:     *fleetSize,
			seed:          *seed,
			misconfigRate: *misconfigRate,
			shardSize:     *shardSize,
			leaseTTL:      *leaseTTL,
			heartbeat:     *heartbeatInterval,
			scanTimeout:   *scanTimeout,
			scanRetries:   *scanRetries,
			fleetWorkers:  *fleetWorkers,
			journalPath:   *journalPath,
			parallelism:   *parallelism,
		})
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			return fmt.Errorf("create journal dir: %w", err)
		}
	}
	inj, err := configvalidator.FaultsFromEnv()
	if err != nil {
		return err
	}
	vopts := []configvalidator.Option{
		configvalidator.WithTelemetry(configvalidator.NewCollector()),
		configvalidator.WithParallelism(*parallelism),
	}
	if *parseCacheSize > 0 {
		vopts = append(vopts, configvalidator.WithParseCache(configvalidator.NewParseCache(*parseCacheSize)))
	}
	if inj != nil {
		fmt.Fprintf(os.Stderr, "cvserver: fault injection armed via %s\n", faultsEnvVar)
		vopts = append(vopts, configvalidator.WithFaults(inj))
	}
	validator, err := configvalidator.New(vopts...)
	if err != nil {
		return err
	}
	s, err := server.New(validator)
	if err != nil {
		return err
	}
	s.MaxUploadBytes = *maxUpload
	s.ShardWorkers = *shardWorkers
	s.ShardJournalDir = *journalDir
	s.ShardScanDelay = *scanDelay
	s.Limits = server.Limits{
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		QueueWait:        *queueWait,
		ValidateTimeout:  *validateTimeout,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute, // frames can be large
		WriteTimeout:      5 * time.Minute, // lifted per response on shard streams
	}

	errCh := make(chan error, 1)
	go func() {
		errCh <- httpServer.ListenAndServe()
	}()
	fmt.Fprintf(os.Stderr, "cvserver listening on %s (shards at /v1/shard/scan, metrics at /metrics)\n", *addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "received %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// Drain first: /readyz flips not-ready (coordinators stop leasing
		// shards here) and new validations are rejected while admitted ones
		// and in-flight shard streams run to completion; then close the
		// listener and remaining (cheap) connections.
		if err := s.BeginDrain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "cvserver: drain: %v\n", err)
		}
		if err := httpServer.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return nil
	}
}

// coordinateConfig carries the -coordinate flag values.
type coordinateConfig struct {
	workers       string
	fleetSize     int
	seed          int64
	misconfigRate float64
	shardSize     int
	leaseTTL      time.Duration
	heartbeat     time.Duration
	scanTimeout   time.Duration
	scanRetries   int
	fleetWorkers  int
	journalPath   string
	parallelism   int
}

// runCoordinate validates a deterministic generated fleet, either
// in-process (empty worker list — the baseline) or sharded across remote
// worker cvservers with lease-based fault tolerance. The merged summary line
// goes to stdout; the two modes must print byte-identical summaries for
// the same fleet, which is what the worker-kill CI smoke asserts.
func runCoordinate(cfg coordinateConfig) error {
	collector := configvalidator.NewCollector()
	vopts := []configvalidator.Option{
		configvalidator.WithTelemetry(collector),
		configvalidator.WithParallelism(cfg.parallelism),
	}
	inj, err := configvalidator.FaultsFromEnv()
	if err != nil {
		return err
	}
	if inj != nil {
		fmt.Fprintln(os.Stderr, "cvserver: fault injection armed via CV_FAULTS")
		vopts = append(vopts, configvalidator.WithFaults(inj))
		fsutil.ArmFaults(inj)
	}
	v, err := configvalidator.New(vopts...)
	if err != nil {
		return err
	}

	fopts := configvalidator.FleetOptions{
		Workers:     cfg.fleetWorkers,
		ScanTimeout: cfg.scanTimeout,
		Retries:     cfg.scanRetries,
	}
	if cfg.journalPath != "" {
		jrnl, err := configvalidator.OpenJournal(cfg.journalPath, configvalidator.JournalOptions{
			Metrics: collector,
			Faults:  inj,
			OnDegraded: func(derr error) {
				fmt.Fprintf(os.Stderr, "cvserver: coordinator journal degraded, results no longer persisted (scan continues): %v\n", derr)
			},
			OnRecovered: func() {
				fmt.Fprintln(os.Stderr, "cvserver: coordinator journal recovered")
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = jrnl.Close() }()
		fopts.Journal = jrnl
	}
	var workerURLs []string
	for _, w := range strings.Split(cfg.workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workerURLs = append(workerURLs, w)
		}
	}
	if len(workerURLs) > 0 {
		fopts.Scheduler = dist.NewCoordinator(workerURLs, dist.Options{
			ShardSize:         cfg.shardSize,
			LeaseTTL:          cfg.leaseTTL,
			HeartbeatInterval: cfg.heartbeat,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		fmt.Fprintf(os.Stderr, "cvserver: coordinating %d entities across %d workers\n", cfg.fleetSize, len(workerURLs))
	}

	reg, _ := fixtures.Fleet(cfg.fleetSize, fixtures.Profile{Seed: cfg.seed, MisconfigRate: cfg.misconfigRate})
	entities := make(chan configvalidator.Entity)
	go func() {
		defer close(entities)
		for _, ref := range reg.Images() {
			img, err := reg.Pull(ref)
			if err != nil {
				continue
			}
			entities <- img.Entity()
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	summary := configvalidator.Summarize(v.ValidateFleet(ctx, entities, fopts))
	fmt.Println(summary.String())

	snap := collector.Snapshot()
	if len(workerURLs) > 0 {
		fmt.Fprintf(os.Stderr,
			"cvserver: shards dispatched=%d completed=%d lease_reassignments=%d heartbeats_missed=%d duplicates_dropped=%d rpc_retries=%d journal_append_errors=%d merge_stalls=%d\n",
			snap.ShardsDispatched, snap.ShardsCompleted, snap.LeaseReassignments,
			snap.HeartbeatsMissed, snap.DuplicateResults, snap.WorkerRPCRetries,
			snap.JournalAppendErrors, snap.MergeStalls)
	}
	if summary.Errors > 0 {
		return fmt.Errorf("fleet completed with %d errored entities", summary.Errors)
	}
	return nil
}
