package journal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"configvalidator/internal/faults"
	"configvalidator/internal/fsutil"
)

// fakeClock pins the journal's re-probe timing so degraded-mode tests
// advance time explicitly instead of sleeping.
func fakeClock(j *Journal) *time.Time {
	now := time.Unix(1_700_000_000, 0)
	j.now = func() time.Time { return now }
	j.randN = func(int64) int64 { return 0 } // jitter floor: wait == base
	return &now
}

func TestDegradedEntersOnENOSPCAndFailsFast(t *testing.T) {
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindENOSPC})
	var degradedCalls, recoveredCalls int
	var firstErr error
	m := &fakeMetrics{}
	j := mustOpen(t, filepath.Join(t.TempDir(), "fleet.cvj"), Options{
		Faults:  inj,
		Metrics: m,
		OnDegraded: func(err error) {
			degradedCalls++
			firstErr = err
		},
		OnRecovered: func() { recoveredCalls++ },
	})
	defer j.Close()
	fakeClock(j)

	if j.Degraded() {
		t.Fatal("journal degraded before any append")
	}
	for i := 0; i < 5; i++ {
		err := j.Append(sampleRecord(i))
		if err == nil {
			t.Fatalf("append %d succeeded under permanent ENOSPC", i)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append %d error chain missing ENOSPC: %v", i, err)
		}
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after append failures")
	}
	if !errors.Is(j.DegradedErr(), syscall.ENOSPC) {
		t.Errorf("DegradedErr = %v, want ENOSPC chain", j.DegradedErr())
	}
	if degradedCalls != 1 {
		t.Errorf("OnDegraded called %d times, want 1 (one-shot per episode)", degradedCalls)
	}
	if firstErr == nil || !errors.Is(firstErr, faults.ErrInjected) {
		t.Errorf("OnDegraded error = %v, want injected chain", firstErr)
	}
	if recoveredCalls != 0 {
		t.Errorf("OnRecovered called %d times without a recovery", recoveredCalls)
	}
	// Fail-fast: only the first append (and any probes) touch the disk.
	// With the clock pinned before the first probe time, exactly one
	// injection fired for five append attempts.
	if inj.Injected() != 1 {
		t.Errorf("injector fired %d times, want 1 (appends must fail fast between probes)", inj.Injected())
	}
	st := j.Stats()
	if st.Appends != 0 || st.AppendErrors != 5 || !st.Degraded {
		t.Errorf("stats = %+v, want 0 appends, 5 errors, degraded", st)
	}
	if len(m.degradedFlips) != 1 || !m.degradedFlips[0] {
		t.Errorf("degraded gauge flips = %v, want [true]", m.degradedFlips)
	}
}

// TestDegradedNoticeDefaultsToStderr: without an OnDegraded hook the
// journal itself announces each degradation episode, once, on standard
// error.
func TestDegradedNoticeDefaultsToStderr(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()

	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindENOSPC})
	j := mustOpen(t, filepath.Join(t.TempDir(), "fleet.cvj"), Options{Faults: inj})
	now := fakeClock(j)
	for i := 0; i < 3; i++ {
		if err := j.Commit("host-00", "d0", sampleReport(0), nil); err == nil {
			t.Fatal("commit succeeded under permanent ENOSPC")
		}
		*now = now.Add(time.Minute) // each later commit re-probes and fails again
	}
	j.Close()
	os.Stderr = stderr
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "degraded"); n != 1 {
		t.Errorf("stderr carries %d degraded notices, want 1:\n%s", n, out)
	}
	if !strings.Contains(string(out), j.Path()) {
		t.Errorf("notice does not name the journal: %s", out)
	}
}

func TestDegradedReprobeResumesJournaling(t *testing.T) {
	// Only the first append hits ENOSPC; the disk "clears" afterwards.
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindENOSPC, Times: 1})
	var recovered int
	m := &fakeMetrics{}
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{Faults: inj, Metrics: m, OnRecovered: func() { recovered++ }})
	now := fakeClock(j)

	if err := j.Append(sampleRecord(0)); err == nil {
		t.Fatal("first append succeeded despite fault")
	}
	// Before the probe time the same append fails fast.
	if err := j.Append(sampleRecord(0)); err == nil {
		t.Fatal("append succeeded before probe time")
	}
	if st := j.Stats(); st.Reprobes != 0 {
		t.Fatalf("probed before ReprobeInterval elapsed: %+v", st)
	}
	// Past the probe time the append goes through and clears degradation.
	*now = now.Add(time.Minute)
	if err := j.Append(sampleRecord(0)); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	if j.Degraded() {
		t.Error("journal still degraded after successful re-probe")
	}
	if recovered != 1 {
		t.Errorf("OnRecovered called %d times, want 1", recovered)
	}
	if err := j.Append(sampleRecord(1)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	st := j.Stats()
	if st.Appends != 2 || st.AppendErrors != 2 || st.Reprobes != 1 || st.Degraded {
		t.Errorf("stats = %+v, want 2 appends, 2 errors, 1 reprobe, healthy", st)
	}
	if m.reprobes != 1 {
		t.Errorf("reprobe metric = %d, want 1", m.reprobes)
	}
	if len(m.degradedFlips) != 2 || !m.degradedFlips[0] || m.degradedFlips[1] {
		t.Errorf("degraded gauge flips = %v, want [true false]", m.degradedFlips)
	}
	j.Close()

	// The recovered journal replays cleanly: both post-recovery records,
	// nothing torn.
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 2 || st.CorruptRecords != 0 {
		t.Errorf("replay after recovery = %+v, want 2 clean records", st)
	}
}

// TestShortWriteTornTailRestored proves the re-probe's truncate-restore:
// a short write deposits a genuinely torn record in the file, and the
// next probe discards it before appending, so the journal never replays
// garbage and never loses the frame boundary.
func TestShortWriteTornTailRestored(t *testing.T) {
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindShortWrite, Times: 1})
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{Faults: inj})
	now := fakeClock(j)

	if err := j.Append(sampleRecord(0)); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short-write append = %v", err)
	}
	// The torn prefix really is on disk.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= int64(len(magic)) {
		t.Fatalf("file size %d: short write left no torn bytes to restore", fi.Size())
	}
	*now = now.Add(time.Minute)
	if err := j.Append(sampleRecord(1)); err != nil {
		t.Fatalf("append after short write: %v", err)
	}
	j.Close()

	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	st := j2.Stats()
	if st.Replayed != 1 || st.CorruptRecords != 0 {
		t.Errorf("replay = %+v, want exactly the 1 good record and no corruption", st)
	}
	if _, ok := j2.Replay("host-01", "digest-01"); !ok {
		t.Error("post-restore record not replayed")
	}
	if _, ok := j2.Replay("host-00", "digest-00"); ok {
		t.Error("torn record replayed")
	}
}

// TestDegradedCrashLeavesRecoverableJournal: a process that dies while
// its journal is degraded (torn tail still on disk, no probe ran) must
// leave a file the next Open recovers — the torn tail truncates as
// ordinary corruption.
func TestDegradedCrashLeavesRecoverableJournal(t *testing.T) {
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindShortWrite, After: 2})
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{Faults: inj})
	fakeClock(j)
	appendN(t, j, 2)
	if err := j.Append(sampleRecord(2)); err == nil {
		t.Fatal("faulted append succeeded")
	}
	j.Close() // "crash": no probe, torn tail persists

	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	st := j2.Stats()
	if st.Replayed != 2 || st.CorruptRecords != 1 {
		t.Errorf("recovery = %+v, want 2 replayed + 1 torn record dropped", st)
	}
}

func TestSyncFailureDegrades(t *testing.T) {
	inj := faults.MustNew(faults.Rule{Op: faults.OpFsync, Kind: faults.KindEIO, Times: 1})
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	// Arm the injector after Open so the header fsync does not consume
	// the single fault (in production the spec's triggers handle this).
	j := mustOpen(t, path, Options{SyncEvery: 1})
	j.opts.Faults = inj
	now := fakeClock(j)

	err := j.Append(sampleRecord(0))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("append under fsync EIO = %v", err)
	}
	if !j.Degraded() {
		t.Fatal("fsync failure did not degrade the journal")
	}
	*now = now.Add(time.Minute)
	if err := j.Append(sampleRecord(1)); err != nil {
		t.Fatalf("append after sync fault cleared: %v", err)
	}
	if j.Degraded() {
		t.Error("journal still degraded after recovery")
	}
	j.Close()

	// The record whose fsync failed was still written; both replay.
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 2 || st.CorruptRecords != 0 {
		t.Errorf("replay = %+v, want both records", st)
	}
}

// TestCompactUnderENOSPCLeavesLiveFileIntact: a compaction that cannot
// write its snapshot (disk full) must fail without touching the live
// journal — same guarantee as a crash mid-compaction.
func TestCompactUnderENOSPCLeavesLiveFileIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	defer j.Close()
	appendN(t, j, 3)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fsutil.ArmFaults(faults.MustNew(faults.Rule{Op: faults.OpAtomicWrite, Kind: faults.KindENOSPC}))
	defer fsutil.ArmFaults(nil)
	if err := j.Compact(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("compact under ENOSPC = %v, want ENOSPC chain", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed compaction modified the live journal")
	}
	// The handle stays fully usable: appends and replays keep working.
	if err := j.Append(sampleRecord(3)); err != nil {
		t.Fatalf("append after failed compact: %v", err)
	}
	if _, ok := j.Replay("host-00", "digest-00"); !ok {
		t.Error("index lost after failed compact")
	}
	fsutil.ArmFaults(nil)
	if err := j.Compact(); err != nil {
		t.Fatalf("compact after fault cleared: %v", err)
	}
	if err := j.Append(sampleRecord(4)); err != nil {
		t.Fatalf("append after successful compact: %v", err)
	}
	if st := j.Stats(); st.Entities != 5 {
		t.Errorf("entities = %d, want 5", st.Entities)
	}
}

// TestCompactClearsDegradation: a successful compaction proves the disk
// writes again, so a degraded journal resumes without waiting for a probe.
func TestCompactClearsDegradation(t *testing.T) {
	inj := faults.MustNew(faults.Rule{Op: faults.OpJournalAppend, Kind: faults.KindENOSPC, Times: 1})
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{Faults: inj})
	defer j.Close()
	fakeClock(j)

	if err := j.Append(sampleRecord(0)); err == nil {
		t.Fatal("faulted append succeeded")
	}
	if !j.Degraded() {
		t.Fatal("not degraded")
	}
	if err := j.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if j.Degraded() {
		t.Error("successful compaction did not clear degradation")
	}
	// No probe wait needed: the append goes straight through.
	if err := j.Append(sampleRecord(1)); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
}
