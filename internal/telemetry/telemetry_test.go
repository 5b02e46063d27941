package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"configvalidator/internal/crawler"
	"configvalidator/internal/engine"
)

// populated returns a collector with every metric moved through its
// public method, most to a distinct value, so a method wired to the wrong
// table row changes the exposition.
func populated() *Collector {
	c := NewCollector()
	repeat := func(n int, f func()) {
		for i := 0; i < n; i++ {
			f()
		}
	}
	c.ScanDone(3*time.Millisecond, map[engine.Status]int{
		engine.StatusPass: 7, engine.StatusFail: 3, engine.StatusNotApplicable: 2,
		engine.StatusError: 1, engine.StatusDegraded: 4,
	})
	c.ScanDone(1200*time.Millisecond, nil)
	c.ScanFailed(20 * time.Millisecond)
	c.ScanPanicked(time.Millisecond)
	c.ScanTimedOut(7 * time.Second)
	c.ScanTimedOut(30 * time.Second)
	repeat(3, c.RetryScheduled)
	repeat(30, c.ScanStarted)
	c.ScanEnded()
	repeat(28, c.QueueEnter)
	c.QueueExit()
	repeat(7, c.RequestShed)
	repeat(8, c.BreakerOpened)
	c.BreakerClosed()
	c.BreakerOpened()
	repeat(10, c.ParseCacheHit)
	repeat(11, c.ParseCacheMiss)
	repeat(12, c.ParseCacheEviction)
	repeat(13, c.JournalAppended)
	repeat(14, c.JournalReplayed)
	repeat(15, c.JournalCorruptRecord)
	repeat(16, c.JournalEntitySkipped)
	repeat(17, c.JournalAppendError)
	c.JournalDegraded(true)
	c.JournalDegraded(false)
	c.JournalDegraded(true)
	repeat(18, c.JournalReprobe)
	repeat(19, c.MergeStalled)
	repeat(20, c.ScanAbandoned)
	repeat(60, c.ShardDispatched)
	repeat(22, c.ShardCompleted)
	repeat(23, c.LeaseReassigned)
	repeat(24, c.HeartbeatMissed)
	repeat(25, c.DuplicateResultDropped)
	repeat(26, c.WorkerRPCRetry)
	c.RequestDone("POST /v1/validate/frame", 200, 2*time.Millisecond)
	c.RequestDone("POST /v1/validate/frame", 413, time.Millisecond)
	c.RequestDone("POST /v1/shard/scan", 200, 3*time.Second)
	c.RequestDone("GET /metrics", 200, 100*time.Microsecond)
	return c
}

// TestPrometheusGolden pins the full exposition of a populated collector
// byte for byte (testdata/metrics.golden), and requires every metric in
// the table to be documented for operators.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := populated().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("exposition differs from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}

	docs, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics {
		if !strings.Contains(string(docs), m.name) {
			t.Errorf("metric %s is not documented in docs/OPERATIONS.md", m.name)
		}
	}
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector()
	c.ScanDone(2*time.Millisecond, map[engine.Status]int{
		engine.StatusPass: 10, engine.StatusFail: 2, engine.StatusError: 1,
	})
	c.ScanFailed(time.Millisecond)
	c.ScanPanicked(time.Millisecond)
	c.ScanTimedOut(50 * time.Millisecond)
	c.RetryScheduled()
	c.RetryScheduled()

	s := c.Snapshot()
	if s.Scans != 4 {
		t.Errorf("Scans = %d, want 4", s.Scans)
	}
	if s.Errors != 3 {
		t.Errorf("Errors = %d, want 3", s.Errors)
	}
	if s.Panics != 1 || s.Timeouts != 1 || s.Retries != 2 {
		t.Errorf("panics/timeouts/retries = %d/%d/%d", s.Panics, s.Timeouts, s.Retries)
	}
	if s.ResultsByStatus[engine.StatusPass] != 10 || s.ResultsByStatus[engine.StatusFail] != 2 {
		t.Errorf("ResultsByStatus = %v", s.ResultsByStatus)
	}
	if s.ScanLatency.Count != 4 {
		t.Errorf("latency count = %d", s.ScanLatency.Count)
	}
	if s.ScanLatency.Mean() <= 0 {
		t.Errorf("mean = %v", s.ScanLatency.Mean())
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.ScanDone(time.Millisecond, nil)
	c.ScanFailed(0)
	c.ScanPanicked(0)
	c.ScanTimedOut(0)
	c.RetryScheduled()
	c.RequestDone("GET /healthz", 200, time.Millisecond)
}

func TestHistogramQuantile(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 99; i++ {
		c.ScanDone(time.Millisecond, nil) // le=0.001 bucket
	}
	c.ScanDone(4*time.Second, nil) // le=5 bucket
	h := c.Snapshot().ScanLatency
	if got := h.Quantile(0.5); got != time.Millisecond {
		t.Errorf("p50 = %v, want 1ms", got)
	}
	if got := h.Quantile(1); got != 5*time.Second {
		t.Errorf("p100 = %v, want 5s (bucket upper bound)", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCollector()
	c.ScanDone(3*time.Millisecond, map[engine.Status]int{engine.StatusPass: 5})
	c.ScanPanicked(time.Millisecond)
	c.RequestDone("POST /v1/validate/frame", 200, 2*time.Millisecond)
	c.RequestDone("POST /v1/validate/frame", 413, time.Millisecond)

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"configvalidator_scans_total 2",
		"configvalidator_scan_panics_total 1",
		"configvalidator_scan_errors_total 1",
		`configvalidator_results_total{status="pass"} 5`,
		`configvalidator_scan_duration_seconds_bucket{le="+Inf"} 2`,
		"configvalidator_scan_duration_seconds_count 2",
		`configvalidator_http_requests_total{route="POST /v1/validate/frame",code="200"} 1`,
		`configvalidator_http_requests_total{route="POST /v1/validate/frame",code="413"} 1`,
		"configvalidator_http_request_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.ScanDone(time.Millisecond, map[engine.Status]int{engine.StatusPass: 1})
				c.RequestDone("GET /metrics", 200, time.Microsecond)
				c.RetryScheduled()
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Scans != 4000 || s.Retries != 4000 {
		t.Errorf("scans=%d retries=%d, want 4000 each", s.Scans, s.Retries)
	}
	if s.HTTPRequests["GET /metrics 200"] != 4000 {
		t.Errorf("http = %v", s.HTTPRequests)
	}
	if s.ResultsByStatus[engine.StatusPass] != 4000 {
		t.Errorf("pass results = %d", s.ResultsByStatus[engine.StatusPass])
	}
}

func TestParseCacheCounters(t *testing.T) {
	// The Collector doubles as the crawler's cache metrics sink.
	var _ crawler.CacheMetrics = NewCollector()

	c := NewCollector()
	c.ParseCacheHit()
	c.ParseCacheHit()
	c.ParseCacheMiss()
	c.ParseCacheEviction()

	s := c.Snapshot()
	if s.ParseCacheHits != 2 || s.ParseCacheMisses != 1 || s.ParseCacheEvictions != 1 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 2/1/1",
			s.ParseCacheHits, s.ParseCacheMisses, s.ParseCacheEvictions)
	}

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"configvalidator_parse_cache_hits_total 2",
		"configvalidator_parse_cache_misses_total 1",
		"configvalidator_parse_cache_evictions_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}
