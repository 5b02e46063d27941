// Package journal implements a durable, replayable result log for fleet
// validation — the crash-safety layer that makes the paper's production
// cadence ("tens of thousands of containers and images daily", §5)
// operable. A fleet scan appends one record per completed entity; a run
// killed at entity 49,000 of 50,000 resumes by replaying the journal and
// re-scanning only what is missing or changed, and a warm re-run over an
// unchanged fleet is near-free. ConfEx (arXiv:2008.08656) frames
// cloud-scale config analysis as exactly this continuously re-run pipeline
// over a largely-unchanged corpus; Rehearsal (arXiv:1509.05100) argues
// idempotence is what makes config tooling trustworthy — replaying a
// journaled result must be indistinguishable from re-scanning an unchanged
// entity.
//
// # Resume
//
// Replay and Commit are the resume policy every journaled scanner
// applies: an entity whose digest is unchanged replays its report, and
// every other outcome is committed as it completes.
//
// # File format
//
// A journal is an 8-byte magic ("CVJRNL01") followed by records:
//
//	[uint32 LE payload length][uint32 LE CRC-32 (IEEE) of payload][payload]
//
// The payload is a Record as JSON. A hand-written codec (codec.go, on
// internal/jsonwire) writes and reads it without reflection, producing
// exactly the bytes encoding/json writes: journals written with
// json.Marshal replay unchanged, and a decoded report is the one
// json.Unmarshal's value converts to. Reports decode straight into
// engine.Report, with each distinct rule built once per Decoder. The
// format is append-only; nothing in the file is ever updated in place, so
// the only corruption a crash can cause is a torn tail — which recovery
// truncates, never fails on.
//
// # Recovery
//
// Open replays the file record by record and stops at the first record
// that cannot be trusted: a short header, an implausible length, a torn
// payload, a CRC mismatch, or undecodable JSON. Everything after that
// point is discarded (the file is truncated back to the last valid record)
// and counted as corrupt; everything before it is replayed into the
// resume index. A mid-file bit flip therefore loses the records after it —
// they are simply re-scanned — but never aborts a run.
//
// # Compaction
//
// Compact rewrites the journal as a snapshot holding only the latest
// completed record per entity, via temp file + rename + directory fsync
// (never in place), then continues appending to the compacted file — so a
// long-lived journal is a snapshot plus a tail of recent appends.
//
// # Degraded mode
//
// A journal whose disk stops accepting writes (ENOSPC, EIO) must not
// take the scan down with it: crash-safety is a feature of the run, not
// a precondition. On an append or sync failure the journal flips to
// degraded — Degraded() reports true, the first error is retained, and
// subsequent appends fail fast without touching the disk. A jittered
// re-probe (ReprobeInterval) periodically truncates any torn partial
// write back to the last known-good byte and retries for real; the first
// success exits degraded mode and journaling resumes. Callers observe
// failures per append and OnDegraded announces each episode once, but
// the scan itself continues and produces identical findings — only
// durability degrades.
//
// # Ownership
//
// A journal path is owned by exactly one handle at a time: Open takes an
// exclusive flock on the file and a second Open — same process or
// another — fails fast with ErrBusy instead of risking interleaved
// appends or a compaction racing a concurrent writer. The lock dies with
// the owning process, so crash-resume (the whole point of the journal)
// never meets a stale lock. Any number of fleet workers may share the
// *one* handle; Append serializes internally.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"configvalidator/internal/engine"
	"configvalidator/internal/faults"
	"configvalidator/internal/fsutil"
)

// magic identifies (and versions) the on-disk format.
const magic = "CVJRNL01"

// maxRecordSize bounds a single record payload (64 MiB). A length field
// beyond it is treated as corruption, not as an allocation request.
const maxRecordSize = 64 << 20

// Re-probe pacing for degraded journals: the first probe happens no
// sooner than defaultReprobeInterval after the failure, later probes
// back off with decorrelated jitter up to maxReprobeInterval — disk
// pressure rarely clears in milliseconds, and a fleet of degraded
// validators must not retry-storm the moment it does.
const (
	defaultReprobeInterval = 500 * time.Millisecond
	maxReprobeInterval     = 10 * time.Second
)

// ErrNotJournal reports a file whose header is present but is not a
// journal — recovery refuses to truncate what it does not own.
var ErrNotJournal = errors.New("journal: file is not a configvalidator journal")

// ErrClosed reports an operation on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrBusy reports an Open of a journal another live handle already owns.
// A journal is single-writer: exactly one handle (in one process) may
// append to or compact a given path at a time. Without this guard a
// second writer could interleave appends mid-record — torn garbage
// recovery would silently truncate — or keep appending to the pre-compact
// inode after Compact renames a snapshot over the path, losing records.
// Ownership is enforced with an exclusive flock on the journal file, so a
// SIGKILLed owner releases it automatically and crash-resume never meets
// a stale lock.
var ErrBusy = errors.New("journal: already open by another writer (journals are single-writer)")

// Metrics receives journal events; *telemetry.Collector implements it. The
// interface lives here so the journal does not import telemetry.
type Metrics interface {
	// JournalAppended records one record durably appended.
	JournalAppended()
	// JournalReplayed records one valid record recovered at Open.
	JournalReplayed()
	// JournalCorruptRecord records one torn or corrupt record dropped
	// during recovery.
	JournalCorruptRecord()
	// JournalDegraded flips the degraded-journal gauge: true when an
	// append/sync failure degrades the journal, false on recovery.
	JournalDegraded(degraded bool)
	// JournalReprobe records one degraded-mode write re-probe attempt.
	JournalReprobe()
	// JournalEntitySkipped records one Replay hit: an entity not re-scanned.
	JournalEntitySkipped()
	// JournalAppendError records one failed Commit.
	JournalAppendError()
}

// Options tune a journal.
type Options struct {
	// SyncEvery is the number of appends between fsyncs. 0 (the default)
	// and 1 sync after every record — an interrupted run loses at most the
	// in-flight record, at the cost of one fsync per entity. N > 1
	// amortizes the fsync over N records and risks losing up to N-1
	// journaled results on a power failure (a process crash loses nothing:
	// the OS page cache survives it). -1 never syncs explicitly.
	SyncEvery int
	// Metrics optionally receives append/replay/corruption events.
	Metrics Metrics

	// Faults optionally injects write-path faults into appends and syncs
	// (chaos drills, the ENOSPC CI smoke). Nil means no injection.
	Faults *faults.Injector
	// WriteOp is the fault op consulted per append when Faults is armed;
	// empty defaults to faults.OpJournalAppend. The worker shard handler
	// passes faults.OpSegmentWrite so drills can target worker segments
	// without touching coordinator journals.
	WriteOp faults.Op
	// ReprobeInterval is the minimum wait before a degraded journal
	// re-probes the disk with a real write; 0 means 500ms. Probes back
	// off with decorrelated jitter up to 10s while failures persist.
	ReprobeInterval time.Duration
	// OnDegraded is called once per degradation episode with the first
	// append/sync error: the one notice that results stopped persisting.
	// Nil writes that notice to standard error. It runs under the
	// journal lock: log and return, do not call back.
	OnDegraded func(error)
	// OnRecovered, if set, is called when a re-probe succeeds and
	// journaling resumes. Same locking caveat as OnDegraded.
	OnRecovered func()
}

// Record is one journaled per-entity outcome. Exactly one of Report and
// Err is set. codec.go writes and reads its payload; the tests hold the
// codec to encoding/json through an oracle schema of the same fields.
type Record struct {
	// Entity is the scanned entity's name.
	Entity string
	// Digest is the entity's config digest at scan time; a record with an
	// empty digest is never replayed.
	Digest string
	// Err is the scan failure, when the scan did not complete. Failed
	// scans are journaled for reconciliation but never replayed — a
	// resumed run re-scans them.
	Err string
	// Report is the completed validation report.
	Report *ReportRecord
}

// Stats is a point-in-time copy of a journal's counters.
type Stats struct {
	// Appends counts records durably appended through this handle;
	// AppendErrors counts appends that failed (disk full, closed file).
	Appends, AppendErrors int64
	// Replayed counts valid records recovered at Open; CorruptRecords
	// counts torn/corrupt records dropped during recovery.
	Replayed, CorruptRecords int64
	// Entities is the number of entities with a live completed record.
	Entities int
	// Degraded reports whether the journal is currently in degraded mode
	// (appends failing fast between re-probes); Reprobes counts the
	// write re-probes attempted while degraded.
	Degraded bool
	Reprobes int64
}

// Journal is an append-only, CRC-checksummed record log. Safe for
// concurrent use by any number of fleet workers.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	opts Options

	// index maps entity name to its latest completed record — duplicate
	// records for one entity resolve last-writer-wins.
	index  map[string]Record
	latest *Record // most recent completed record (replay, then appends)

	appends, appendErrs, replayedN, corrupt int64
	sinceSync                               int
	closed                                  bool

	// Degraded mode: after an append/sync failure the journal fails
	// appends fast (the scan must not block on a dead disk) until a
	// jittered re-probe writes successfully again. goodOff is the offset
	// one past the last known-good byte; a re-probe truncates back to it
	// first, discarding any torn partial write from the failing period.
	degraded    bool
	degradedErr error // first error of the current episode
	reprobes    int64
	goodOff     int64
	nextProbe   time.Time
	probeWait   time.Duration

	now   func() time.Time    // test seam; nil means time.Now
	randN func(n int64) int64 // test seam; nil means rand.Int63n
}

// Open creates or recovers the journal at path. Recovery replays every
// valid record into the resume index and truncates any torn or corrupt
// tail; it never fails on corruption, only on I/O errors, on a file that
// is not a journal at all, or on a journal another live handle already
// owns (ErrBusy — journals are single-writer; see that error's doc).
func Open(path string, opts Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if err := fsutil.LockFile(f); err != nil {
		_ = f.Close()
		if errors.Is(err, fsutil.ErrLocked) {
			return nil, fmt.Errorf("%w: %s", ErrBusy, path)
		}
		return nil, fmt.Errorf("journal: lock %s: %w", path, err)
	}
	j := &Journal{f: f, path: path, opts: opts, index: make(map[string]Record)}
	if err := j.recover(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return j, nil
}

// recover replays the file, truncating at the first untrusted byte.
func (j *Journal) recover() error {
	fi, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: stat %s: %w", j.path, err)
	}
	size := fi.Size()
	if size == 0 {
		if _, err := j.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("journal: write header %s: %w", j.path, err)
		}
		j.goodOff = int64(len(magic))
		return j.syncNow()
	}
	header := make([]byte, len(magic))
	n, err := io.ReadFull(j.f, header)
	switch {
	case err == io.ErrUnexpectedEOF || err == io.EOF || n < len(magic):
		// Crash during initial creation: the header itself is torn.
		j.noteCorrupt()
		return j.truncateTo(0, true)
	case err != nil:
		return fmt.Errorf("journal: read header %s: %w", j.path, err)
	case string(header) != magic:
		return fmt.Errorf("%w: %s", ErrNotJournal, j.path)
	}

	offset := int64(len(magic))
	head := make([]byte, 8)
	var buf []byte
	var dec Decoder
	for offset < size {
		if _, err := io.ReadFull(j.f, head); err != nil {
			j.noteCorrupt() // torn record header
			return j.truncateTo(offset, false)
		}
		length := binary.LittleEndian.Uint32(head[0:4])
		sum := binary.LittleEndian.Uint32(head[4:8])
		if length == 0 || length > maxRecordSize || offset+8+int64(length) > size {
			j.noteCorrupt() // implausible length or torn payload
			return j.truncateTo(offset, false)
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		payload := buf[:length]
		if _, err := io.ReadFull(j.f, payload); err != nil {
			j.noteCorrupt()
			return j.truncateTo(offset, false)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			j.noteCorrupt() // bit flip: drop this record and everything after
			return j.truncateTo(offset, false)
		}
		// The decoded report shares this string's memory; the record's
		// top-level fields own theirs.
		rec, err := dec.record(string(payload))
		if err != nil {
			j.noteCorrupt()
			return j.truncateTo(offset, false)
		}
		j.absorb(rec)
		j.replayedN++
		if j.opts.Metrics != nil {
			j.opts.Metrics.JournalReplayed()
		}
		offset += 8 + int64(length)
	}
	j.goodOff = offset
	return nil
}

// truncateTo discards everything at and after offset — the recovery path
// for a torn or corrupt tail. With rewriteMagic set the header itself was
// torn and is rewritten.
func (j *Journal) truncateTo(offset int64, rewriteMagic bool) error {
	if err := j.f.Truncate(offset); err != nil {
		return fmt.Errorf("journal: truncate %s: %w", j.path, err)
	}
	if _, err := j.f.Seek(offset, io.SeekStart); err != nil {
		return fmt.Errorf("journal: seek %s: %w", j.path, err)
	}
	if rewriteMagic {
		if _, err := j.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("journal: write header %s: %w", j.path, err)
		}
		offset += int64(len(magic))
	}
	j.goodOff = offset
	return j.syncNow()
}

func (j *Journal) noteCorrupt() {
	j.corrupt++
	if j.opts.Metrics != nil {
		j.opts.Metrics.JournalCorruptRecord()
	}
}

// absorb folds one valid record into the resume index (last-writer-wins).
// Failed-scan records are audit-only and not indexed.
func (j *Journal) absorb(rec Record) {
	if rec.Report == nil {
		return
	}
	j.index[rec.Entity] = rec
	cp := rec
	j.latest = &cp
}

// frameBufs recycles Append's encode buffers: a record is ~30 KB, which a
// buffer grown from nil would allocate and copy several times over.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame caps the buffers frameBufs keeps, so one outsized record
// does not pin its buffer for the life of the process.
const maxPooledFrame = 1 << 20

// appendFrame appends rec as one framed record: the payload is encoded in
// place after a reserved header, which is then filled in.
func appendFrame(dst []byte, rec *Record) []byte {
	start := len(dst)
	dst = appendRecord(append(dst, 0, 0, 0, 0, 0, 0, 0, 0), rec)
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Append durably logs one record. Concurrent appends are serialized; each
// record is written in a single Write call, so a crash tears at most the
// final record — which recovery truncates.
func (j *Journal) Append(rec Record) error {
	bp := frameBufs.Get().(*[]byte)
	buf := appendFrame((*bp)[:0], &rec)
	defer func() {
		if cap(buf) <= maxPooledFrame {
			*bp = buf
			frameBufs.Put(bp)
		}
	}()
	if len(buf)-8 > maxRecordSize {
		return fmt.Errorf("journal: record for %s exceeds %d bytes", rec.Entity, maxRecordSize)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		j.appendErrs++
		return ErrClosed
	}
	if j.degraded {
		if j.clock().Before(j.nextProbe) {
			// Fail fast between probes: a scan must not block on (or
			// hammer) a dead disk for every entity.
			j.appendErrs++
			return fmt.Errorf("journal: append %s (degraded, next probe in %v): %w",
				j.path, j.nextProbe.Sub(j.clock()).Round(time.Millisecond), j.degradedErr)
		}
		// Probe time: restore the file to the last known-good byte so any
		// torn partial write from the failing period is discarded, then
		// fall through and attempt the append for real.
		j.reprobes++
		if j.opts.Metrics != nil {
			j.opts.Metrics.JournalReprobe()
		}
		if err := j.restoreGood(); err != nil {
			j.appendErrs++
			j.scheduleReprobe()
			return fmt.Errorf("journal: append %s (degraded, restore failed): %w", j.path, err)
		}
	}
	if err := j.writeRecord(buf); err != nil {
		j.appendErrs++
		j.degrade(err)
		return fmt.Errorf("journal: append %s: %w", j.path, err)
	}
	if j.degraded {
		j.clearDegraded()
	}
	j.goodOff += int64(len(buf))
	j.appends++
	j.absorb(rec)
	if j.opts.Metrics != nil {
		j.opts.Metrics.JournalAppended()
	}
	j.sinceSync++
	every := j.opts.SyncEvery
	if every == 0 {
		every = 1
	}
	if every > 0 && j.sinceSync >= every {
		if err := j.syncNow(); err != nil {
			// The record is in the page cache but its durability is not
			// proven; degrade (the re-probe's restoreGood keeps it — the
			// bytes are known-good as written) and surface the error.
			j.appendErrs++
			j.degrade(err)
			return err
		}
	}
	return nil
}

// writeRecord puts one framed record at the current file offset, passing
// it through the armed write-fault injector first. A short-write fault
// deposits its truncated prefix in the file so the degraded period leaves
// a genuinely torn tail for restoreGood (and Open recovery) to discard.
func (j *Journal) writeRecord(buf []byte) error {
	if j.opts.Faults.Enabled() {
		op := j.opts.WriteOp
		if op == "" {
			op = faults.OpJournalAppend
		}
		data, err := j.opts.Faults.Apply(op, j.path, buf)
		if err != nil {
			if len(data) > 0 && len(data) < len(buf) {
				_, _ = j.f.Write(data)
			}
			return err
		}
	}
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	return nil
}

// degrade enters (or stays in) degraded mode: the first error of the
// episode is retained for Degraded()/fast-fail messages, the gauge and
// one-shot operator hook fire on entry, and the next re-probe is
// scheduled with jittered backoff.
func (j *Journal) degrade(err error) {
	if !j.degraded {
		j.degraded = true
		j.degradedErr = err
		if j.opts.Metrics != nil {
			j.opts.Metrics.JournalDegraded(true)
		}
		if j.opts.OnDegraded != nil {
			j.opts.OnDegraded(err)
		} else {
			fmt.Fprintf(os.Stderr, "journal %s degraded, results no longer persisted (scan continues): %v\n", j.path, err)
		}
	}
	j.scheduleReprobe()
}

// clearDegraded exits degraded mode after a successful write.
func (j *Journal) clearDegraded() {
	j.degraded = false
	j.degradedErr = nil
	j.probeWait = 0
	j.nextProbe = time.Time{}
	if j.opts.Metrics != nil {
		j.opts.Metrics.JournalDegraded(false)
	}
	if j.opts.OnRecovered != nil {
		j.opts.OnRecovered()
	}
}

// scheduleReprobe picks the next probe time with decorrelated jitter:
// uniform in [base, 3×previous], capped — the same shape as the fleet
// retry backoff, for the same reason (no synchronized retry storms).
func (j *Journal) scheduleReprobe() {
	base := j.opts.ReprobeInterval
	if base <= 0 {
		base = defaultReprobeInterval
	}
	prev := j.probeWait
	if prev < base {
		prev = base
	}
	hi := 3 * prev
	if hi > maxReprobeInterval {
		hi = maxReprobeInterval
	}
	wait := base
	if span := int64(hi - base); span > 0 {
		wait = base + time.Duration(j.rand(span))
	}
	j.probeWait = wait
	j.nextProbe = j.clock().Add(wait)
}

// restoreGood truncates the file back to the last known-good byte and
// repositions the write offset there — idempotent, and the only repair a
// torn degraded-period tail ever needs (the framing recovers the rest).
func (j *Journal) restoreGood() error {
	if err := j.f.Truncate(j.goodOff); err != nil {
		return err
	}
	if _, err := j.f.Seek(j.goodOff, io.SeekStart); err != nil {
		return err
	}
	return nil
}

func (j *Journal) clock() time.Time {
	if j.now != nil {
		return j.now()
	}
	return time.Now()
}

func (j *Journal) rand(n int64) int64 {
	if j.randN != nil {
		return j.randN(n)
	}
	return rand.Int63n(n)
}

// Degraded reports whether the journal is in degraded mode: appends are
// failing fast between re-probes and results are not being persisted.
func (j *Journal) Degraded() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// DegradedErr returns the first error of the current degradation episode,
// or nil when the journal is healthy.
func (j *Journal) DegradedErr() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degradedErr
}

func (j *Journal) syncNow() error {
	j.sinceSync = 0
	if j.opts.Faults.Enabled() {
		if err := j.opts.Faults.Check(faults.OpFsync, j.path); err != nil {
			return fmt.Errorf("journal: sync %s: %w", j.path, err)
		}
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", j.path, err)
	}
	return nil
}

// Replay returns the entity's journaled report when it was committed
// under digest, so the caller need not scan. An empty digest never
// replays, nor does a failed scan. A hit counts as
// Metrics.JournalEntitySkipped.
func (j *Journal) Replay(entity, digest string) (*engine.Report, bool) {
	if j == nil || digest == "" {
		return nil, false
	}
	j.mu.Lock()
	rec, ok := j.index[entity]
	j.mu.Unlock()
	if !ok || rec.Digest != digest {
		return nil, false
	}
	if j.opts.Metrics != nil {
		j.opts.Metrics.JournalEntitySkipped()
	}
	return rec.Report.Report(), true
}

// Commit journals one scan outcome: the report under digest, or, when
// scanErr is set, an audit-only record that never replays. A report under
// an empty digest is kept as the Latest baseline but never replayed; one
// already journaled under the same digest is not appended again. The
// journal keeps rep for Replay and Latest, so it must not change. A failed
// append counts as Metrics.JournalAppendError and is returned.
func (j *Journal) Commit(entity, digest string, rep *engine.Report, scanErr error) error {
	if j == nil {
		return nil
	}
	rec := Record{Entity: entity}
	if scanErr != nil {
		rec.Err = scanErr.Error()
	} else {
		j.mu.Lock()
		held := digest != "" && j.index[entity].Digest == digest
		j.mu.Unlock()
		if held {
			return nil
		}
		rec.Digest, rec.Report = digest, NewReportRecord(rep)
	}
	err := j.Append(rec)
	if err != nil && j.opts.Metrics != nil {
		j.opts.Metrics.JournalAppendError()
	}
	return err
}

// Latest returns the most recent completed record — replayed or appended —
// which is the durable drift baseline cvwatch restores on restart.
func (j *Journal) Latest() (Record, bool) {
	if j == nil {
		return Record{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.latest == nil {
		return Record{}, false
	}
	return *j.latest, true
}

// Stats copies the current counters.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Appends:        j.appends,
		AppendErrors:   j.appendErrs,
		Replayed:       j.replayedN,
		CorruptRecords: j.corrupt,
		Entities:       len(j.index),
		Degraded:       j.degraded,
		Reprobes:       j.reprobes,
	}
}

// Compact atomically rewrites the journal as a snapshot holding only the
// latest completed record per entity (sorted by entity name), dropping
// superseded duplicates and audit-only failure records. The rewrite goes
// through a temp file + rename + directory fsync, so a crash mid-compaction
// leaves the previous journal fully intact.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	names := make([]string, 0, len(j.index))
	for name := range j.index {
		names = append(names, name)
	}
	sort.Strings(names)

	err := fsutil.WriteAtomic(j.path, 0o644, func(w io.Writer) error {
		if _, err := w.Write([]byte(magic)); err != nil {
			return err
		}
		var buf []byte
		for _, name := range names {
			rec := j.index[name]
			buf = appendFrame(buf[:0], &rec)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Swap the handle to the compacted file and position at its end for
	// subsequent appends (the snapshot's tail). The rename replaced the
	// inode, so ownership is re-asserted on the new file before the old
	// (still-locked) handle is released — the single-writer guarantee
	// holds across the swap.
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen after compact: %w", err)
	}
	if err := fsutil.LockFile(f); err != nil {
		_ = f.Close()
		if errors.Is(err, fsutil.ErrLocked) {
			return fmt.Errorf("%w: %s (stolen during compaction)", ErrBusy, j.path)
		}
		return fmt.Errorf("journal: relock after compact: %w", err)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("journal: seek after compact: %w", err)
	}
	_ = j.f.Close()
	j.f = f
	j.sinceSync = 0
	j.goodOff = end
	// A successful compaction proves the disk accepts writes again; a
	// degraded journal can resume appending without waiting for a probe.
	if j.degraded {
		j.clearDegraded()
	}
	return nil
}

// Close syncs and closes the journal. Further appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	cerr := j.f.Close()
	if serr != nil {
		return fmt.Errorf("journal: sync on close %s: %w", j.path, serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close %s: %w", j.path, cerr)
	}
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Remove deletes a journal file (after Close); missing files are fine.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return fsutil.SyncDir(filepath.Dir(path))
}

// ReportRecord is the journal's handle on an engine.Report: the report a
// record carries, encoded from and decoded straight into the engine's own
// type. The codec keeps every field the output renderers (text, JSON,
// JUnit, drift) read, so a replayed report renders byte-identically to
// the report produced by re-scanning the unchanged entity.
type ReportRecord engine.Report

// NewReportRecord returns the journal's handle on rep, without copying.
// The report must not change while a record holds it.
func NewReportRecord(rep *engine.Report) *ReportRecord { return (*ReportRecord)(rep) }

// Report returns the engine report rr handles. A decoded report's rules
// carry the renderer-visible fields only and may be shared with other
// decoded reports; Report.ByTag, drift diffing, and all four output
// formats behave identically to the original.
func (rr *ReportRecord) Report() *engine.Report { return (*engine.Report)(rr) }
