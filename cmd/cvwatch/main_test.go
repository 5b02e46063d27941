package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
)

func writeFrameFile(t *testing.T, path string, misconfig float64, seed int64) {
	t.Helper()
	host, _ := fixtures.SystemHost("watched", fixtures.Profile{Seed: seed, MisconfigRate: misconfig})
	writeHostFrame(t, path, host)
}

// writeHostFrame captures host into a frame file at path.
func writeHostFrame(t *testing.T, path string, host *entity.Mem) {
	t.Helper()
	frame, err := frames.Capture(host, nil, time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if err := frame.Write(f); err != nil {
		t.Fatal(err)
	}
}

func TestWatchDetectsDriftBetweenScans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "watched.frame")
	writeFrameFile(t, path, 0, 1)

	// Swap the frame contents between the first and second scan.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(150 * time.Millisecond)
		writeFrameFile(t, path, 1, 1)
	}()

	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{
		"-frame", path, "-interval", "300ms", "-max-scans", "2",
	}, &out, &errOut)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "[scan 1]") || !strings.Contains(text, "[scan 2]") {
		t.Fatalf("scans missing:\n%s", text)
	}
	if !strings.Contains(text, "REGRESSIONS") {
		t.Errorf("drift not reported:\n%s", text)
	}
}

func TestWatchStableFrameNoDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stable.frame")
	writeFrameFile(t, path, 0.5, 2)
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"-frame", path, "-interval", "50ms", "-max-scans", "3"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "REGRESSIONS") {
		t.Errorf("phantom drift:\n%s", out.String())
	}
}

func TestWatchCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.frame")
	writeFrameFile(t, path, 0, 3)
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut bytes.Buffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{"-frame", path, "-interval", "1h"}, &out, &errOut)
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop on cancellation")
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestWatchFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"-host", "/x", "-frame", "/y"},
		{"-frame", "/z", "-interval", "-1s"},
		{"-frame", "/no/such.frame", "-max-scans", "1", "-max-consecutive-failures", "1"},
	} {
		if err := run(context.Background(), args, &out, &errOut); err == nil {
			t.Errorf("args %v succeeded", args)
		}
	}
}

func TestWatchProgressLineOnStderr(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.frame")
	writeFrameFile(t, path, 0.5, 4)
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"-frame", path, "-interval", "50ms", "-max-scans", "2"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	text := errOut.String()
	if strings.Count(text, "cvwatch progress:") != 2 {
		t.Fatalf("want one progress line per scan on stderr, got:\n%s", text)
	}
	if !strings.Contains(text, "scans=2") {
		t.Errorf("progress line missing scan count:\n%s", text)
	}
	if strings.Contains(out.String(), "cvwatch progress:") {
		t.Error("progress lines leaked onto stdout")
	}
}

func TestWatchMetricsEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.frame")
	writeFrameFile(t, path, 0, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(ctx, []string{
			"-frame", path, "-interval", "1h", "-metrics-addr", "127.0.0.1:0",
		}, &out, &errOut)
	}()

	// Wait for the announced listener address, then scrape it mid-run.
	re := regexp.MustCompile(`http://([0-9.:]+)/metrics`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics address never announced:\n%s", errOut.String())
		}
		if m := re.FindStringSubmatch(errOut.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	var body string
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		body = string(raw)
		if strings.Contains(body, "configvalidator_scans_total 1") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(body, "configvalidator_scans_total 1") {
		t.Errorf("metrics missing scan counter:\n%s", body)
	}
	if !strings.Contains(body, "configvalidator_scan_duration_seconds_count 1") {
		t.Errorf("metrics missing latency histogram:\n%s", body)
	}

	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchSurvivesBrieflyUnreadableFrame pins the transient-failure
// contract: a frame file that disappears for a few ticks is logged and
// skipped — the watch keeps running, keeps its baseline, and resumes
// scanning when the file returns.
func TestWatchSurvivesBrieflyUnreadableFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.frame")
	writeFrameFile(t, path, 0, 6)
	hidden := path + ".hidden"

	var out, errOut syncBuffer
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(context.Background(), []string{
			"-frame", path, "-interval", "30ms", "-max-scans", "2",
			"-max-consecutive-failures", "0",
		}, &out, &errOut)
	}()
	waitFor(t, "first scan", func() bool { return strings.Contains(out.String(), "[scan 1]") })
	if err := os.Rename(path, hidden); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a logged scan failure", func() bool {
		return strings.Contains(errOut.String(), "scan failed")
	})
	if err := os.Rename(hidden, path); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("watch died on a transient failure: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch did not recover")
	}
	if !strings.Contains(out.String(), "[scan 2]") {
		t.Errorf("second scan missing after recovery:\n%s", out.String())
	}
	// The frame never changed, so the kept baseline must show no drift.
	if strings.Contains(out.String(), "REGRESSIONS") {
		t.Errorf("phantom drift across the outage:\n%s", out.String())
	}
}

// TestWatchExitsAfterMaxConsecutiveFailures: failures in a row beyond the
// limit end the watch with an error naming the count.
func TestWatchExitsAfterMaxConsecutiveFailures(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{
		"-frame", filepath.Join(t.TempDir(), "never.frame"),
		"-interval", "10ms", "-max-consecutive-failures", "3",
	}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "3 consecutive scan failures") {
		t.Fatalf("err = %v, want consecutive-failure error", err)
	}
	if got := strings.Count(errOut.String(), "scan failed"); got != 3 {
		t.Errorf("logged failures = %d, want 3:\n%s", got, errOut.String())
	}
}

// TestWatchCheckpointRestoresBaseline pins the durable-drift contract: a
// restarted watch with -checkpoint diffs its first scan against the last
// report of the previous process instead of silently resetting.
func TestWatchCheckpointRestoresBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.frame")
	ckpt := filepath.Join(dir, "baseline.cvj")
	writeFrameFile(t, path, 0, 7)

	var out1, errOut1 bytes.Buffer
	if err := run(context.Background(), []string{
		"-frame", path, "-interval", "10ms", "-max-scans", "1", "-checkpoint", ckpt,
	}, &out1, &errOut1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out1.String(), "REGRESSIONS") {
		t.Fatalf("first-ever scan has no baseline to drift from:\n%s", out1.String())
	}

	// The entity degrades while the watcher is down.
	writeFrameFile(t, path, 1, 7)

	var out2, errOut2 bytes.Buffer
	if err := run(context.Background(), []string{
		"-frame", path, "-interval", "10ms", "-max-scans", "1", "-checkpoint", ckpt,
	}, &out2, &errOut2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut2.String(), "baseline") {
		t.Errorf("restart did not announce the restored baseline:\n%s", errOut2.String())
	}
	if !strings.Contains(out2.String(), "REGRESSIONS") {
		t.Errorf("drift across the restart not detected:\n%s", out2.String())
	}
}

// TestWatchCheckpointAppendsOnlyChanges pins that -checkpoint commits each
// scan under the entity's config digest: 40 ticks over an unchanged frame
// leave one journal record, and a restart over a changed frame appends
// exactly one more. A report that stays DEGRADED, here for a config file
// its lens cannot parse, is no exception: it never replays, but 40 ticks
// over it still leave one record.
func TestWatchCheckpointAppendsOnlyChanges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.frame")
	ckpt := filepath.Join(dir, "baseline.cvj")
	watch := func(scans string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if err := run(context.Background(), []string{
			"-frame", path, "-interval", "20ms", "-max-scans", scans, "-checkpoint", ckpt,
		}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	records := func() int64 {
		t.Helper()
		j, err := configvalidator.OpenJournal(ckpt, configvalidator.JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = j.Close() }()
		return j.Stats().Replayed
	}

	writeFrameFile(t, path, 0, 8)
	watch("40")
	if got := records(); got != 1 {
		t.Errorf("40 unchanged ticks left %d journal records, want 1", got)
	}
	writeFrameFile(t, path, 1, 8)
	watch("1")
	if got := records(); got != 2 {
		t.Errorf("after a changed frame the journal holds %d records, want 2", got)
	}

	ckpt = filepath.Join(dir, "degraded.cvj")
	host, _ := fixtures.SystemHost("watched", fixtures.Profile{Seed: 8})
	host.AddFile("/etc/nginx/nginx.conf", []byte("server {\n"))
	writeHostFrame(t, path, host)
	if out := watch("40"); strings.Count(out, " degraded\n") != 40 {
		t.Fatalf("the unparseable nginx.conf does not degrade every tick:\n%s", out)
	}
	if got := records(); got != 1 {
		t.Errorf("40 ticks over a degraded frame left %d journal records, want 1", got)
	}
}

// TestWatchCheckpointForgetsAFaultedRead pins that -checkpoint commits
// each tick's report under the digest of what that tick read. A tick that
// read a truncated sshd_config fails its checks; the first fault-free
// restart over the unchanged frame re-scans and reports the fixes once,
// and the next one replays the clean report and prints no drift.
func TestWatchCheckpointForgetsAFaultedRead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.frame")
	ckpt := filepath.Join(dir, "baseline.cvj")
	writeFrameFile(t, path, 0, 9)
	watch := func(faults string) string {
		t.Helper()
		t.Setenv("CV_FAULTS", faults)
		var out, errOut bytes.Buffer
		if err := run(context.Background(), []string{
			"-frame", path, "-interval", "10ms", "-max-scans", "1", "-checkpoint", ckpt,
		}, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if out := watch("op=read path=sshd_config kind=short bytes=10"); strings.Contains(out, " 0 fail") {
		t.Fatalf("the truncated sshd_config fails no check:\n%s", out)
	}
	if out := watch(""); !strings.Contains(out, "FIXES") {
		t.Errorf("restart 1 reports no fixes over the faulted tick:\n%s", out)
	}
	if out := watch(""); strings.Count(out, "\n") != 1 {
		t.Errorf("restart 2 over the unchanged frame prints drift:\n%s", out)
	}
	j, err := configvalidator.OpenJournal(ckpt, configvalidator.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	if rec, ok := j.Latest(); !ok || rec.Report.Report().Counts()[configvalidator.StatusFail] != 0 {
		t.Errorf("the journal's latest report is not the clean one: %+v", rec)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the watcher goroutine
// writes while the test polls.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
