package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
	"configvalidator/internal/faults"
	"configvalidator/internal/frames"
	"configvalidator/internal/journal"
)

// shardIDPattern restricts shard ids to filename-safe tokens, since the
// id names the worker's journal segment on disk.
var shardIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// shardEntity is one decoded request entity ready to scan.
type shardEntity struct {
	rec dist.EntityRecord
	ent configvalidator.Entity
}

// streamWriter serializes StreamRecords onto the response as JSON lines,
// flushing each one so the coordinator's lease watchdog sees liveness in
// real time. The mutex interleaves heartbeats with results safely; buf is
// the stream's one encode buffer, reused for every line.
type streamWriter struct {
	mu  sync.Mutex
	w   http.ResponseWriter
	rc  *http.ResponseController
	err error
	buf []byte
}

func (sw *streamWriter) send(rec dist.StreamRecord) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	sw.buf = append(dist.AppendStreamRecord(sw.buf[:0], &rec), '\n')
	if _, err := sw.w.Write(sw.buf); err != nil {
		sw.err = err
		return
	}
	// A flush fails only on a writer that cannot flush or a dead
	// connection; the next Write reports the latter.
	_ = sw.rc.Flush()
}

// handleShardScan executes one shard lease: decode the shipped frames,
// scan them through the ordinary fleet pipeline (per-entity timeout,
// retries, panic isolation, and — with ShardJournalDir set — the same
// journal resume protocol a local run uses), and stream back heartbeats,
// per-entity results, and a done trailer. The coordinator revokes the
// lease by dropping the connection; r.Context() cancellation then stops
// the scan.
func (s *Server) handleShardScan(w http.ResponseWriter, r *http.Request) {
	shardID := r.URL.Query().Get("shard")
	if shardID == "" {
		shardID = "shard"
	}
	if !shardIDPattern.MatchString(shardID) {
		httpError(w, http.StatusBadRequest, "bad shard id %q", shardID)
		return
	}
	heartbeat := 2 * time.Second
	if v := r.URL.Query().Get("heartbeat"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad heartbeat: %v", err)
			return
		}
		if d > 0 {
			heartbeat = d
		}
	}
	if heartbeat < 10*time.Millisecond {
		heartbeat = 10 * time.Millisecond
	}
	var scanTimeout time.Duration
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad timeout: %v", err)
			return
		}
		if d > 0 {
			scanTimeout = d
		}
	}
	retries := 0
	if v := r.URL.Query().Get("retries"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &retries); err != nil || retries < 0 {
			httpError(w, http.StatusBadRequest, "bad retries %q", v)
			return
		}
	}

	// Decode the whole shard up front: a malformed entity must fail the
	// request with 400 before any result is streamed, and the journal
	// segment must not open for a request that cannot run.
	dec := json.NewDecoder(boundedBody(w, r, s.MaxUploadBytes))
	var ents []shardEntity
	digests := make(map[string]string)
	for {
		var rec dist.EntityRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if rejectOversize(w, err, s.MaxUploadBytes) {
				return
			}
			httpError(w, http.StatusBadRequest, "bad entity record: %v", err)
			return
		}
		frame, err := frames.Read(bytes.NewReader(rec.Frame))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad frame for %q: %v", rec.Name, err)
			return
		}
		ent := frame.Entity()
		if rec.Name != "" && rec.Name != ent.Name() {
			httpError(w, http.StatusBadRequest, "entity name %q does not match frame %q", rec.Name, ent.Name())
			return
		}
		digests[ent.Name()] = rec.Digest
		ents = append(ents, shardEntity{rec: rec, ent: ent})
	}
	if len(ents) == 0 {
		httpError(w, http.StatusBadRequest, "empty shard")
		return
	}

	// The per-shard journal segment gives the worker local crash-resume:
	// a re-leased shard replays what this worker already completed instead
	// of re-scanning it. The journal's flock ownership doubles as lease
	// fencing — while a revoked request is still tearing down, a new lease
	// for the same shard gets 409 and the coordinator retries with backoff.
	// segment=0 disables the segment: the coordinator sends it after a 507
	// so a disk-pressured worker still scans, just without local resume.
	var seg *journal.Journal
	if s.ShardJournalDir != "" && r.URL.Query().Get("segment") != "0" {
		path := filepath.Join(s.ShardJournalDir, shardID+".cvj")
		var err error
		seg, err = journal.Open(path, journal.Options{
			Metrics: s.metrics,
			Faults:  s.validator.Faults(),
			WriteOp: faults.OpSegmentWrite,
		})
		if err != nil {
			if errors.Is(err, journal.ErrBusy) {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusConflict, "shard journal segment busy: %v", err)
				return
			}
			if errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO) {
				// Disk pressure is not a worker fault: 507 tells the
				// coordinator to keep the lease and re-dispatch without a
				// segment, so the breaker stays closed.
				httpError(w, http.StatusInsufficientStorage, "open shard journal: %v", err)
				return
			}
			s.brk.failure()
			httpError(w, http.StatusInternalServerError, "open shard journal: %v", err)
			return
		}
		defer func() { _ = seg.Close() }()
	}

	// The stream is long-lived by design: lift the server's WriteTimeout
	// for this response. The coordinator's lease watchdog bounds it
	// instead, revoking a silent stream by dropping the connection. Only a
	// writer with no deadline to lift rejects the call.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := &streamWriter{w: w, rc: rc}

	// Heartbeats keep the coordinator's lease watchdog fed while long
	// scans produce no results.
	stopHeartbeat := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-stopHeartbeat:
				return
			case <-r.Context().Done():
				return
			case <-ticker.C:
				out.send(dist.StreamRecord{Type: dist.TypeHeartbeat})
			}
		}
	}()

	feed := make(chan configvalidator.Entity)
	go func() {
		defer close(feed)
		for _, se := range ents {
			if s.ShardScanDelay > 0 {
				// Test/smoke pacing knob: stretches the scan so chaos drills
				// can kill a worker mid-shard deterministically.
				timer := time.NewTimer(s.ShardScanDelay)
				select {
				case <-timer.C:
				case <-r.Context().Done():
					timer.Stop()
					return
				}
			}
			select {
			case feed <- se.ent:
			case <-r.Context().Done():
				return
			}
		}
	}()

	n := 0
	degradedSent := false
	results := s.validator.ValidateFleet(r.Context(), feed, configvalidator.FleetOptions{
		Workers:     s.ShardWorkers,
		ScanTimeout: scanTimeout,
		Retries:     retries,
		Journal:     seg,
	})
	for res := range results {
		rec := dist.StreamRecord{
			Type:    dist.TypeResult,
			Entity:  res.Entity,
			Digest:  digests[res.Entity],
			Resumed: res.Resumed,
		}
		if res.Err != nil {
			rec.Err = res.Err.Error()
			rec.ErrKind = configvalidator.ClassifyScanError(res.Err)
		} else {
			rec.Report = journal.NewReportRecord(res.Report)
		}
		out.send(rec)
		n++
		// Mid-shard disk pressure: tell the coordinator once that this
		// shard lost worker-side resume, and keep streaming results.
		if !degradedSent && seg != nil && seg.Degraded() {
			degradedSent = true
			drec := dist.StreamRecord{Type: dist.TypeDegradedJournal}
			if derr := seg.DegradedErr(); derr != nil {
				drec.Err = derr.Error()
			}
			out.send(drec)
		}
	}
	close(stopHeartbeat)
	hbWG.Wait()
	if r.Context().Err() != nil {
		// Revoked lease: no done trailer, the coordinator re-leases the
		// remainder. Results already streamed (and journaled) are kept.
		return
	}
	out.send(dist.StreamRecord{Type: dist.TypeDone, Scanned: n})
	s.brk.success()
}
