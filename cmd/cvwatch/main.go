// Command cvwatch continuously validates an entity and reports drift — the
// paper's production cadence ("validating on the order of tens of
// thousands of containers and images daily") reduced to one entity: scan
// on an interval, compare with the previous scan, and print only what
// changed.
//
//	cvwatch -host / -interval 1h
//	cvwatch -frame latest.frame -interval 10m    # re-reads the file each tick
//	cvwatch -host / -metrics-addr :9100          # Prometheus metrics sidecar
//
// Each scan appends a one-line telemetry progress digest to stderr; with
// -metrics-addr the same counters are served at GET /metrics.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/entity"
	"configvalidator/internal/frames"
	"configvalidator/internal/fsutil"
	"configvalidator/internal/output"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cvwatch:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("cvwatch", flag.ContinueOnError)
	var (
		hostDir     = fs.String("host", "", "watch the filesystem rooted at this directory")
		frameFile   = fs.String("frame", "", "watch a frame file (re-read each tick)")
		interval    = fs.Duration("interval", time.Hour, "scan interval")
		maxScans    = fs.Int("max-scans", 0, "stop after N scans (0 = run until interrupted)")
		metricsAddr = fs.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
		checkpoint  = fs.String("checkpoint", "", "durable baseline journal: drift survives restarts (created if missing)")
		maxFails    = fs.Int("max-consecutive-failures", 3, "exit after this many consecutive scan failures (0 = keep trying forever)")
		parallelism = fs.Int("parallelism", 0, "intra-entity evaluation parallelism (0 = GOMAXPROCS, 1 = serial)")
		cacheSize   = fs.Int("parse-cache", configvalidator.DefaultParseCacheSize, "content-addressed parse cache capacity in files (0 = disabled); repeated scans of an unchanged entity skip re-parsing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*hostDir == "") == (*frameFile == "") {
		return fmt.Errorf("exactly one of -host or -frame is required")
	}
	if *interval <= 0 {
		return fmt.Errorf("interval must be positive")
	}
	collector := configvalidator.NewCollector()
	vopts := []configvalidator.Option{
		configvalidator.WithTelemetry(collector),
		configvalidator.WithParallelism(*parallelism),
	}
	if *cacheSize > 0 {
		vopts = append(vopts, configvalidator.WithParseCache(configvalidator.NewParseCache(*cacheSize)))
	}
	inj, err := configvalidator.FaultsFromEnv()
	if err != nil {
		return err
	}
	if inj != nil {
		fmt.Fprintln(errOut, "cvwatch: fault injection armed via CV_FAULTS")
		vopts = append(vopts, configvalidator.WithFaults(inj))
		// Atomic writes (journal compaction) run outside the validator;
		// arm them process-wide so disk-pressure drills cover them too.
		fsutil.ArmFaults(inj)
	}
	v, err := configvalidator.New(vopts...)
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		shutdown, err := serveMetrics(*metricsAddr, collector, errOut)
		if err != nil {
			return err
		}
		defer shutdown()
	}
	var previous *configvalidator.Report

	// With a checkpoint journal the drift baseline survives restarts: the
	// latest journaled report is restored before the first scan, so the
	// first post-restart drift is computed against the last pre-restart
	// state instead of silently resetting. Startup compaction keeps the
	// journal at one record per watched entity.
	var jrnl *configvalidator.Journal
	if *checkpoint != "" {
		jrnl, err = configvalidator.OpenJournal(*checkpoint, configvalidator.JournalOptions{
			Metrics: collector,
			Faults:  inj,
			OnDegraded: func(derr error) {
				fmt.Fprintf(errOut, "cvwatch: checkpoint journal degraded, baseline no longer persisted (watch continues): %v\n", derr)
			},
			OnRecovered: func() {
				fmt.Fprintf(errOut, "cvwatch: checkpoint journal recovered, baseline persistence resumed\n")
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = jrnl.Close() }()
		if rec, ok := jrnl.Latest(); ok {
			previous = rec.Report.Report()
			fmt.Fprintf(errOut, "cvwatch: baseline for %s restored from %s\n", rec.Entity, *checkpoint)
		}
		// Startup compaction is an optimization; a full disk must not kill
		// the watch. The journal just replays more records next restart.
		if cerr := jrnl.Compact(); cerr != nil {
			fmt.Fprintf(errOut, "cvwatch: checkpoint compaction skipped: %v\n", cerr)
		}
	}

	// scan validates the entity as it is now, as a one-entity fleet scan
	// that runs to completion however the watch is stopped. With a
	// checkpoint, an unchanged tick replays the journaled report, and a
	// scanned one commits under the digest of what it read.
	scan := func() (*configvalidator.Report, error) {
		var ent configvalidator.Entity
		if *hostDir != "" {
			ent = entity.NewOSDir("watched-host", entity.TypeHost, *hostDir)
		} else {
			data, err := os.ReadFile(*frameFile)
			if err != nil {
				return nil, err
			}
			frame, err := frames.Read(bytes.NewReader(data))
			if err != nil {
				return nil, err
			}
			ent = frame.Entity()
		}
		ents := make(chan configvalidator.Entity, 1)
		ents <- ent
		close(ents)
		res := <-v.ValidateFleet(context.Background(), ents, configvalidator.FleetOptions{Workers: 1, Journal: jrnl})
		return res.Report, res.Err
	}

	scans := 0
	consecutiveFailures := 0
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	// wait blocks until the next tick; false means the watch was stopped.
	wait := func() bool {
		select {
		case <-ctx.Done():
			fmt.Fprintln(out, "cvwatch: stopped")
			return false
		case <-ticker.C:
			return true
		}
	}
	for {
		report, err := scan()
		if err != nil {
			// A transient failure (frame mid-rewrite, unreachable root)
			// must not kill the watch and must not reset the baseline:
			// log it, skip the tick, and only give up after maxFails in a
			// row.
			consecutiveFailures++
			fmt.Fprintf(errOut, "cvwatch: scan failed (%d consecutive): %v\n", consecutiveFailures, err)
			if *maxFails > 0 && consecutiveFailures >= *maxFails {
				return fmt.Errorf("%d consecutive scan failures, last: %w", consecutiveFailures, err)
			}
			if !wait() {
				return nil
			}
			continue
		}
		consecutiveFailures = 0
		scans++
		counts := report.Counts()
		fmt.Fprintf(out, "[scan %d] %s: %d pass, %d fail, %d n/a",
			scans, report.EntityName,
			counts[configvalidator.StatusPass],
			counts[configvalidator.StatusFail],
			counts[configvalidator.StatusNotApplicable])
		if n := counts[configvalidator.StatusDegraded]; n > 0 {
			fmt.Fprintf(out, ", %d degraded", n)
		}
		fmt.Fprintln(out)
		fmt.Fprintf(errOut, "cvwatch progress: %s\n", collector.Snapshot())
		if previous != nil {
			drift := output.DiffReports(previous, report)
			if !drift.Empty() {
				if err := output.WriteDrift(out, drift); err != nil {
					return err
				}
			}
		}
		previous = report
		if *maxScans > 0 && scans >= *maxScans {
			return nil
		}
		if !wait() {
			return nil
		}
	}
}

// serveMetrics exposes the collector at GET /metrics on addr and returns a
// shutdown function.
func serveMetrics(addr string, collector *configvalidator.Collector, errOut io.Writer) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = collector.WritePrometheus(w)
	})
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	fmt.Fprintf(errOut, "cvwatch metrics on http://%s/metrics\n", ln.Addr())
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(errOut, "cvwatch: metrics server: %v\n", err)
		}
	}()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(errOut, "cvwatch: metrics server shutdown: %v\n", err)
		}
	}, nil
}
