package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/output"
)

// sampleReport builds a small but renderer-complete report for entity i.
// It holds no DEGRADED result, so it replays (see degradedReport).
func sampleReport(i int) *engine.Report {
	rule := &cvl.Rule{
		Type:            cvl.TypeTree,
		Name:            "PermitRootLogin",
		Tags:            []string{"#cis", "#ssh"},
		Severity:        "high",
		SuggestedAction: "set PermitRootLogin no",
	}
	return &engine.Report{
		EntityName: fmt.Sprintf("host-%02d", i),
		EntityType: "host",
		Results: []*engine.Result{
			{
				EntityName:     fmt.Sprintf("host-%02d", i),
				ManifestEntity: "sshd",
				Rule:           rule,
				Status:         engine.StatusFail,
				Message:        "root login enabled",
				Detail:         fmt.Sprintf("observed value yes (entity %d)", i),
				File:           "/etc/ssh/sshd_config",
			},
			{
				EntityName:     fmt.Sprintf("host-%02d", i),
				ManifestEntity: "sshd",
				Status:         engine.StatusError,
				Message:        "crawler: read failed",
			},
		},
	}
}

func sampleRecord(i int) Record {
	return Record{
		Entity: fmt.Sprintf("host-%02d", i),
		Digest: fmt.Sprintf("digest-%02d", i),
		Report: NewReportRecord(sampleReport(i)),
	}
}

func mustOpen(t *testing.T, path string, opts Options) *Journal {
	t.Helper()
	j, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func appendN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := j.Append(sampleRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// renderJSON renders a report the way the fleet acceptance drill compares
// them, so round-trip equality here means byte-identical reports there.
func renderJSON(t *testing.T, rep *engine.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := output.WriteJSON(&buf, rep, output.Options{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenFreshAndReopenEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	if st := j.Stats(); st.Replayed != 0 || st.CorruptRecords != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen the empty (header-only) journal: still nothing to replay.
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 0 || st.CorruptRecords != 0 {
		t.Fatalf("reopened empty stats = %+v", st)
	}
}

// TestOpenZeroByteFile covers a crash after create but before the header
// write hit the disk.
func TestOpenZeroByteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, path, Options{})
	defer j.Close()
	if err := j.Append(sampleRecord(0)); err != nil {
		t.Fatal(err)
	}
}

// TestOpenTornHeader covers a crash mid-way through writing the magic.
func TestOpenTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	if err := os.WriteFile(path, []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, path, Options{})
	if st := j.Stats(); st.CorruptRecords != 1 {
		t.Fatalf("corrupt = %d, want 1", st.CorruptRecords)
	}
	appendN(t, j, 2)
	j.Close()
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", st.Replayed)
	}
}

func TestOpenNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, []byte(`{"entity":"web-01"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, Options{})
	if !errors.Is(err, ErrNotJournal) {
		t.Fatalf("err = %v, want ErrNotJournal", err)
	}
	// The foreign file must be left byte-for-byte intact.
	got, _ := os.ReadFile(path)
	if string(got) != `{"entity":"web-01"}` {
		t.Fatalf("foreign file modified: %q", got)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	appendN(t, j, 5)
	if err := j.Append(Record{Entity: "broken-image:v1", Err: "scan panicked"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	st := j2.Stats()
	if st.Replayed != 6 || st.CorruptRecords != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Entities != 5 {
		t.Fatalf("entities = %d, want 5 (failure records are not indexed)", st.Entities)
	}
	for i := 0; i < 5; i++ {
		rep, ok := j2.Replay(fmt.Sprintf("host-%02d", i), fmt.Sprintf("digest-%02d", i))
		if !ok {
			t.Fatalf("replay host-%02d missed", i)
		}
		got := renderJSON(t, rep)
		want := renderJSON(t, sampleReport(i))
		if !bytes.Equal(got, want) {
			t.Errorf("host-%02d: replayed report not byte-identical\ngot:  %s\nwant: %s", i, got, want)
		}
	}
	// A failed scan is recovered for audit but never replays.
	if _, ok := j2.Replay("broken-image:v1", "anything"); ok {
		t.Error("failure record replayed")
	}
	// Digest mismatch (config changed) must force a re-scan.
	if _, ok := j2.Replay("host-00", "some-other-digest"); ok {
		t.Error("stale digest replayed")
	}
	// Empty digest never matches.
	if _, ok := j2.Replay("host-00", ""); ok {
		t.Error("empty digest replayed")
	}
}

// TestTornTailEveryTruncationPoint is the core recovery guarantee: for
// every possible truncation point inside the final record, replay recovers
// all preceding records, truncates the tail, and the journal stays
// appendable.
func TestTornTailEveryTruncationPoint(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.cvj")
	j := mustOpen(t, full, Options{})
	appendN(t, j, 3)
	j.Close()
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the final record begins by re-walking the headers.
	offsets := recordOffsets(t, blob)
	if len(offsets) != 4 { // 3 record starts + end-of-file
		t.Fatalf("offsets = %v", offsets)
	}
	lastStart, end := offsets[2], offsets[3]
	if end != int64(len(blob)) {
		t.Fatalf("end %d != file size %d", end, len(blob))
	}

	for cut := lastStart + 1; cut < end; cut++ {
		path := filepath.Join(dir, fmt.Sprintf("torn-%d.cvj", cut))
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tj, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		st := tj.Stats()
		if st.Replayed != 2 || st.CorruptRecords != 1 {
			t.Fatalf("cut %d: stats = %+v, want 2 replayed + 1 corrupt", cut, st)
		}
		// The tail is gone: the file ends exactly at the last valid record.
		if fi, _ := os.Stat(path); fi.Size() != lastStart {
			t.Fatalf("cut %d: size %d after recovery, want %d", cut, fi.Size(), lastStart)
		}
		// The journal is live: the lost record can simply be re-appended.
		if err := tj.Append(sampleRecord(2)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		tj.Close()
		rj := mustOpen(t, path, Options{})
		if st := rj.Stats(); st.Replayed != 3 || st.CorruptRecords != 0 {
			t.Fatalf("cut %d: reopened stats = %+v", cut, st)
		}
		rj.Close()
	}
}

// recordOffsets walks the record headers and returns each record's start
// offset plus the end-of-file offset.
func recordOffsets(t *testing.T, blob []byte) []int64 {
	t.Helper()
	offsets := []int64{}
	off := int64(len(magic))
	for off < int64(len(blob)) {
		offsets = append(offsets, off)
		length := binary.LittleEndian.Uint32(blob[off : off+4])
		off += 8 + int64(length)
	}
	return append(offsets, off)
}

// TestBitFlipMidFile pins the documented mid-file corruption semantics:
// replay stops at the last valid record before the flip, drops the rest,
// and the journal continues to work.
func TestBitFlipMidFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		// target picks the byte to flip inside record 2 of 4: its CRC
		// field or its payload.
		target func(start int64) int64
	}{
		{"crc", func(start int64) int64 { return start + 5 }},
		{"payload", func(start int64) int64 { return start + 8 + 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.cvj")
			j := mustOpen(t, path, Options{})
			appendN(t, j, 4)
			j.Close()
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			offsets := recordOffsets(t, blob)
			flip := tc.target(offsets[1])
			blob[flip] ^= 0x40
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}

			j2 := mustOpen(t, path, Options{})
			st := j2.Stats()
			if st.Replayed != 1 || st.CorruptRecords != 1 {
				t.Fatalf("stats = %+v, want 1 replayed + 1 corrupt", st)
			}
			if _, ok := j2.Replay("host-00", "digest-00"); !ok {
				t.Error("record before the flip lost")
			}
			if _, ok := j2.Replay("host-02", "digest-02"); ok {
				t.Error("record after the flip survived a truncating recovery")
			}
			// Still appendable; the dropped records are simply re-scanned.
			appendN(t, j2, 4)
			j2.Close()
			j3 := mustOpen(t, path, Options{})
			defer j3.Close()
			if st := j3.Stats(); st.Replayed != 5 || st.Entities != 4 {
				t.Fatalf("reopened stats = %+v", st)
			}
		})
	}
}

// TestDuplicateEntityLastWriterWins pins the resume index semantics when
// one entity is journaled twice (a re-scan after its config changed).
func TestDuplicateEntityLastWriterWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	old := sampleRecord(0)
	if err := j.Append(old); err != nil {
		t.Fatal(err)
	}
	updated := Record{Entity: "host-00", Digest: "digest-v2", Report: NewReportRecord(sampleReport(7))}
	if err := j.Append(updated); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if _, ok := j2.Replay("host-00", "digest-00"); ok {
		t.Error("superseded record still resumable")
	}
	rep, ok := j2.Replay("host-00", "digest-v2")
	if !ok {
		t.Fatal("latest record not resumable")
	}
	if !bytes.Equal(renderJSON(t, rep), renderJSON(t, sampleReport(7))) {
		t.Error("replay returned the older duplicate")
	}
	if st := j2.Stats(); st.Entities != 1 {
		t.Errorf("entities = %d, want 1", st.Entities)
	}
}

// TestCompactThenTail covers the snapshot+tail replay pair: compaction
// collapses duplicates and failures into one snapshot record per entity,
// appends continue behind it, and a reopen replays both parts.
func TestCompactThenTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	appendN(t, j, 3)
	// Duplicate host-01 and add an audit-only failure; both must vanish in
	// the snapshot.
	if err := j.Append(Record{Entity: "host-01", Digest: "digest-v2", Report: NewReportRecord(sampleReport(9))}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Entity: "flaky", Err: "timeout"}); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the file: %d -> %d", before.Size(), after.Size())
	}
	// The tail: two more records after the snapshot.
	if err := j.Append(sampleRecord(5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(sampleRecord(6)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	st := j2.Stats()
	if st.Replayed != 5 { // 3 snapshot records + 2 tail records
		t.Fatalf("replayed = %d, want 5 (snapshot 3 + tail 2)", st.Replayed)
	}
	if st.Entities != 5 {
		t.Fatalf("entities = %d, want 5", st.Entities)
	}
	if _, ok := j2.Replay("host-01", "digest-v2"); !ok {
		t.Error("compacted record lost its last-writer-wins value")
	}
	if rep, ok := j2.Replay("host-05", "digest-05"); !ok || rep == nil {
		t.Error("tail record after snapshot not replayed")
	}
}

// TestCompactedJournalSurvivesTornTail composes the two recovery paths: a
// snapshot with a torn tail record replays the snapshot and truncates the
// tail.
func TestCompactedJournalSurvivesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	appendN(t, j, 3)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(sampleRecord(4)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	blob, _ := os.ReadFile(path)
	if err := os.WriteFile(path, blob[:len(blob)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 3 || st.CorruptRecords != 1 {
		t.Fatalf("stats = %+v, want snapshot's 3 + 1 corrupt", st)
	}
}

func TestLatestFollowsAppendsAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "watch.cvj")
	j := mustOpen(t, path, Options{})
	if _, ok := j.Latest(); ok {
		t.Fatal("fresh journal has a latest record")
	}
	appendN(t, j, 2)
	rec, ok := j.Latest()
	if !ok || rec.Entity != "host-01" {
		t.Fatalf("latest = %+v, %v", rec, ok)
	}
	// Failure records never become the baseline.
	if err := j.Append(Record{Entity: "host-01", Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := j.Latest(); rec.Err != "" {
		t.Error("failure record became the latest baseline")
	}
	j.Close()
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	rec, ok = j2.Latest()
	if !ok || rec.Entity != "host-01" || rec.Report == nil {
		t.Fatalf("replayed latest = %+v, %v", rec, ok)
	}
}

type fakeMetrics struct {
	appended, replayed, corrupt, reprobes int
	skipped, appendErrors                 int
	degradedFlips                         []bool
}

func (m *fakeMetrics) JournalAppended()       { m.appended++ }
func (m *fakeMetrics) JournalReplayed()       { m.replayed++ }
func (m *fakeMetrics) JournalCorruptRecord()  { m.corrupt++ }
func (m *fakeMetrics) JournalDegraded(d bool) { m.degradedFlips = append(m.degradedFlips, d) }
func (m *fakeMetrics) JournalReprobe()        { m.reprobes++ }
func (m *fakeMetrics) JournalEntitySkipped()  { m.skipped++ }
func (m *fakeMetrics) JournalAppendError()    { m.appendErrors++ }

// TestCommitReplayPolicy pins the resume policy every journaled scanner
// shares: a report committed under a digest replays under that digest
// only, an empty digest never replays, a failed scan is an audit-only
// record, committing what the journal holds appends nothing, and replay
// hits and failed commits are counted.
func TestCommitReplayPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	m := &fakeMetrics{}
	j := mustOpen(t, path, Options{Metrics: m})
	if err := j.Commit("host-00", "d0", sampleReport(0), nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit("host-01", "d1", nil, errors.New("scan panicked")); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit("host-02", "", sampleReport(2), nil); err != nil {
		t.Fatal(err)
	}
	// Already journaled under this digest: nothing to append.
	if err := j.Commit("host-00", "d0", sampleReport(0), nil); err != nil {
		t.Fatal(err)
	}
	rep, ok := j.Replay("host-00", "d0")
	if !ok || !bytes.Equal(renderJSON(t, rep), renderJSON(t, sampleReport(0))) {
		t.Fatalf("committed report not replayed: %v", ok)
	}
	for _, miss := range []struct{ entity, digest string }{
		{"host-00", ""}, {"host-00", "d1"}, {"host-01", "d1"}, {"host-02", ""}, {"nobody", "d0"},
	} {
		if _, ok := j.Replay(miss.entity, miss.digest); ok {
			t.Errorf("Replay(%q, %q) hit", miss.entity, miss.digest)
		}
	}
	// The digest-less report is kept as the drift baseline.
	if rec, ok := j.Latest(); !ok || rec.Entity != "host-02" || rec.Digest != "" {
		t.Errorf("latest = %+v, %v; want host-02 without a digest", rec, ok)
	}
	if st := j.Stats(); st.Appends != 3 || st.Entities != 2 {
		t.Errorf("stats = %+v, want 3 appends, 2 entities (the failure is audit-only)", st)
	}
	if m.skipped != 1 || m.appendErrors != 0 {
		t.Errorf("skipped=%d append errors=%d, want 1/0", m.skipped, m.appendErrors)
	}
	j.Close()
	if err := j.Commit("host-03", "d3", sampleReport(3), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close = %v, want ErrClosed", err)
	}
	if m.appendErrors != 1 {
		t.Errorf("append errors = %d, want 1", m.appendErrors)
	}

	// The audit-only record survives recovery without becoming resumable.
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 3 || st.Entities != 2 {
		t.Errorf("reopened stats = %+v, want 3 replayed, 2 entities", st)
	}
	if _, ok := j2.Replay("host-01", "d1"); ok {
		t.Error("failure record replayed after recovery")
	}

	// A nil journal replays nothing and commits nowhere.
	var none *Journal
	if _, ok := none.Replay("host-00", "d0"); ok {
		t.Error("nil journal replayed")
	}
	if err := none.Commit("host-00", "d0", sampleReport(0), nil); err != nil {
		t.Errorf("nil journal commit = %v", err)
	}
}

func TestMetricsPlumbing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	m1 := &fakeMetrics{}
	j := mustOpen(t, path, Options{Metrics: m1})
	appendN(t, j, 3)
	j.Close()
	if m1.appended != 3 || m1.replayed != 0 || m1.corrupt != 0 {
		t.Fatalf("metrics after appends = %+v", m1)
	}
	blob, _ := os.ReadFile(path)
	if err := os.WriteFile(path, blob[:len(blob)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := &fakeMetrics{}
	j2 := mustOpen(t, path, Options{Metrics: m2})
	defer j2.Close()
	if m2.replayed != 2 || m2.corrupt != 1 {
		t.Fatalf("metrics after recovery = %+v", m2)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, every := range []int{0, 1, 3, -1} {
		path := filepath.Join(t.TempDir(), "fleet.cvj")
		j := mustOpen(t, path, Options{SyncEvery: every})
		appendN(t, j, 5)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2 := mustOpen(t, path, Options{})
		if st := j2.Stats(); st.Replayed != 5 {
			t.Fatalf("SyncEvery=%d: replayed = %d", every, st.Replayed)
		}
		j2.Close()
	}
}

func TestAppendAfterClose(t *testing.T) {
	j := mustOpen(t, filepath.Join(t.TempDir(), "fleet.cvj"), Options{})
	j.Close()
	if err := j.Append(sampleRecord(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if st := j.Stats(); st.AppendErrors != 1 {
		t.Errorf("append errors = %d, want 1", st.AppendErrors)
	}
}

// TestCRCCatchesLengthPreservingCorruption: same-length garbage payload
// with a stale CRC must not replay.
func TestCRCCatchesLengthPreservingCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	appendN(t, j, 2)
	j.Close()
	blob, _ := os.ReadFile(path)
	offsets := recordOffsets(t, blob)
	// Overwrite record 1's payload with zeroes, keeping length + CRC.
	for i := offsets[1] + 8; i < offsets[2]; i++ {
		blob[i] = 0
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 1 || st.CorruptRecords != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// sanity check that the CRC in use is the standard IEEE table (pinned so
// the on-disk format cannot silently change).
func TestFormatPinned(t *testing.T) {
	if got := crc32.ChecksumIEEE([]byte("configvalidator")); got != 0x69aa3b76 {
		t.Fatalf("crc32(configvalidator) = %#x; on-disk format changed", got)
	}
}

// degradedReport is sampleReport(i) with a DEGRADED result added: a check
// that ran on input the scan could not take in full.
func degradedReport(i int) *engine.Report {
	rep := sampleReport(i)
	rep.Results = append(rep.Results, &engine.Result{
		EntityName:     rep.EntityName,
		ManifestEntity: "sshd",
		Status:         engine.StatusDegraded,
		Message:        "crawler: parse /etc/ssh/sshd_config: injected",
	})
	return rep
}

// TestDegradedReportsNeverReplay pins the degraded half of the resume
// policy: a report holding a DEGRADED result never replays, committing it
// again under its digest appends nothing, a clean report under the same
// digest replaces it, and a later degraded one does not displace the
// clean one.
func TestDegradedReportsNeverReplay(t *testing.T) {
	j := mustOpen(t, filepath.Join(t.TempDir(), "fleet.cvj"), Options{})
	defer j.Close()
	commit := func(rep *engine.Report) {
		t.Helper()
		if err := j.Commit("host-00", "d0", rep, nil); err != nil {
			t.Fatal(err)
		}
	}
	commit(degradedReport(0))
	if _, ok := j.Replay("host-00", "d0"); ok {
		t.Error("a degraded report replayed")
	}
	commit(degradedReport(0))
	if got := j.Stats().Appends; got != 1 {
		t.Errorf("a repeated degraded commit appended: %d appends, want 1", got)
	}
	commit(sampleReport(0))
	rep, ok := j.Replay("host-00", "d0")
	if !ok || len(rep.Degraded()) != 0 {
		t.Fatalf("the clean report did not replace the degraded one: replayed %v", ok)
	}
	commit(degradedReport(0))
	if got := j.Stats().Appends; got != 2 {
		t.Errorf("appends = %d, want 2 (the degraded report must not displace the clean one)", got)
	}
	if _, ok := j.Replay("host-00", "d0"); !ok {
		t.Error("the clean report stopped replaying")
	}
}

// TestSingleWriterGuard is the regression for concurrent-writer
// corruption: while one handle owns a journal, a second Open of the same
// path must fail fast with ErrBusy instead of interleaving appends into
// the record stream. Close releases ownership; the next Open then
// replays normally.
func TestSingleWriterGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "guard.cvj")
	j1, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(Record{Entity: "host-00", Digest: "d0", Report: NewReportRecord(sampleReport(0))}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("second Open = %v, want ErrBusy", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open after Close = %v, want success", err)
	}
	defer func() { _ = j2.Close() }()
	if _, ok := j2.Replay("host-00", "d0"); !ok {
		t.Fatal("record lost across ownership handoff")
	}
}

// TestCompactKeepsOwnership pins the Compact/flock interaction: the
// atomic rewrite replaces the file under the handle, and the reopened
// post-rename file must carry the exclusive lock forward — a second
// writer stays locked out straight through and after a compaction.
func TestCompactKeepsOwnership(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact-own.cvj")
	j1, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j1.Append(Record{Entity: "host-00", Digest: fmt.Sprintf("d%d", i), Report: NewReportRecord(sampleReport(0))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("Open after Compact = %v, want ErrBusy (ownership must survive the rewrite)", err)
	}
	// The owner keeps working after compaction...
	if err := j1.Append(Record{Entity: "host-01", Digest: "x", Report: NewReportRecord(sampleReport(1))}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and a post-Close Open sees the compacted content plus the append.
	j2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if _, ok := j2.Replay("host-00", "d2"); !ok {
		t.Fatal("compacted last-writer record missing")
	}
	if _, ok := j2.Replay("host-01", "x"); !ok {
		t.Fatal("post-compaction append missing")
	}
}
