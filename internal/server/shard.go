package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
	"configvalidator/internal/faults"
	"configvalidator/internal/frames"
	"configvalidator/internal/journal"
	"configvalidator/internal/jsonwire"
)

// shardIDPattern restricts shard ids to filename-safe tokens, since the
// id names the worker's journal segment on disk.
var shardIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

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
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad retries %q", v)
			return
		}
		retries = n
	}

	// Decode the whole shard up front: a malformed entity must fail the
	// request with 400 before any result is streamed, and the journal
	// segment must not open for a request that cannot run.
	body, err := readBody(boundedBody(w, r, s.MaxUploadBytes), r.ContentLength)
	if err != nil {
		if rejectOversize(w, err, s.MaxUploadBytes) {
			return
		}
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	ents, digests, err := decodeShard(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
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
		for _, ent := range ents {
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
			case feed <- ent:
			case <-r.Context().Done():
				return
			}
		}
	}()

	n := 0
	degradedSent := false
	results := s.validator.ValidateFleet(r.Context(), feed, configvalidator.FleetOptions{
		Workers:     s.ShardWorkers,
		Target:      r.URL.Query().Get("target"),
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

// decodeShard decodes a shard request body into the entities to scan and
// the digest each one's request line carries, by entity name. Each frame
// is decoded into one reused buffer, and nothing a decoded entity keeps
// shares the body's memory.
func decodeShard(body string) ([]configvalidator.Entity, map[string]string, error) {
	var ents []configvalidator.Entity
	digests := make(map[string]string)
	var dec jsonwire.Decoder
	dec.Reset(body)
	var rec dist.EntityRecord
	for dec.More() {
		if err := dist.DecodeEntityRecord(&dec, &rec); err != nil {
			return nil, nil, fmt.Errorf("bad entity record: %w", err)
		}
		frame, err := frames.Read(bytes.NewReader(rec.Frame))
		if err != nil {
			return nil, nil, fmt.Errorf("bad frame for %q: %w", rec.Name, err)
		}
		ent := frame.Entity()
		if rec.Name != "" && rec.Name != ent.Name() {
			return nil, nil, fmt.Errorf("entity name %q does not match frame %q", rec.Name, ent.Name())
		}
		digests[ent.Name()] = rec.Digest
		ents = append(ents, ent)
	}
	if len(ents) == 0 {
		return nil, nil, errors.New("empty shard")
	}
	return ents, digests, nil
}

// maxBodyPresize caps how much readBody allocates up front on a
// request's word, so a false Content-Length costs little.
const maxBodyPresize = 4 << 20

// readBody reads a request body whole into one string, sized up front
// from the declared length when there is one.
func readBody(body io.Reader, declared int64) (string, error) {
	var sb strings.Builder
	if declared > 0 {
		sb.Grow(int(min(declared, maxBodyPresize)))
	}
	_, err := io.Copy(&sb, body)
	return sb.String(), err
}
