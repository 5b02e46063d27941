package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
	"configvalidator/internal/journal"
)

// shardServer builds a worker-configured Server behind httptest.
func shardServer(t *testing.T, journalDir string, delay time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	v, err := configvalidator.New(configvalidator.WithTelemetry(configvalidator.NewCollector()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(v)
	if err != nil {
		t.Fatal(err)
	}
	s.ShardJournalDir = journalDir
	s.ShardScanDelay = delay
	s.ShardWorkers = 1
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

// shardBody packs n fixture images into a shard request body, returning
// the body and the entity names in feed order. Digests are synthetic —
// the endpoint only echoes them.
func shardBody(t testing.TB, n int) (*bytes.Buffer, []string) {
	t.Helper()
	var body bytes.Buffer
	names := make([]string, 0, n)
	enc := json.NewEncoder(&body)
	for i := 0; i < n; i++ {
		img, _ := fixtures.Image(fmt.Sprintf("shard-img-%d", i), "v1", fixtures.Profile{Seed: int64(40 + i), MisconfigRate: 0.5})
		ent := img.Entity()
		frame, err := frames.Capture(ent, nil, time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatal(err)
		}
		var fb bytes.Buffer
		if err := frame.Write(&fb); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(dist.EntityRecord{Name: ent.Name(), Digest: fmt.Sprintf("dg-%d", i), Frame: fb.Bytes()}); err != nil {
			t.Fatal(err)
		}
		names = append(names, ent.Name())
	}
	return &body, names
}

// streamLine is a shard-stream line as a peer on encoding/json reads it:
// the fields of dist.StreamRecord, with the report left as raw JSON.
type streamLine struct {
	Type    string          `json:"type"`
	Entity  string          `json:"entity"`
	Digest  string          `json:"digest"`
	Resumed bool            `json:"resumed"`
	Err     string          `json:"err"`
	ErrKind string          `json:"err_kind"`
	Report  json.RawMessage `json:"report"`
	Scanned int             `json:"scanned"`
}

// readStream consumes a shard response stream into typed records.
func readStream(t *testing.T, r io.Reader) []streamLine {
	t.Helper()
	var recs []streamLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		var rec streamLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestShardScanStreamsResults(t *testing.T) {
	_, srv := shardServer(t, "", 30*time.Millisecond)
	body, names := shardBody(t, 3)
	resp, err := http.Post(srv.URL+"/v1/shard/scan?shard=s0000&heartbeat=10ms", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, want 200", resp.Status)
	}
	recs := readStream(t, resp.Body)
	results := map[string]streamLine{}
	heartbeats, dones := 0, 0
	var done streamLine
	for _, rec := range recs {
		switch rec.Type {
		case dist.TypeHeartbeat:
			heartbeats++
		case dist.TypeResult:
			results[rec.Entity] = rec
		case dist.TypeDone:
			dones++
			done = rec
		}
	}
	if len(results) != 3 || dones != 1 {
		t.Fatalf("got %d results, %d done trailers; want 3 and 1", len(results), dones)
	}
	if heartbeats == 0 {
		t.Error("no heartbeats on a paced stream; the lease watchdog would starve")
	}
	if done.Scanned != 3 {
		t.Errorf("done.Scanned = %d, want 3", done.Scanned)
	}
	for i, name := range names {
		rec, ok := results[name]
		if !ok {
			t.Fatalf("missing result for %s", name)
		}
		if rec.Err != "" || rec.Report == nil {
			t.Fatalf("result %s: err=%q report=%v", name, rec.Err, rec.Report != nil)
		}
		if want := fmt.Sprintf("dg-%d", i); rec.Digest != want {
			t.Errorf("result %s digest = %q, want echoed %q", name, rec.Digest, want)
		}
	}
}

// tornTail appends a truncated record — the on-disk state a SIGKILL
// mid-append leaves — to a journal segment (format per TestFormatPinned).
func tornTail(t *testing.T, path string) {
	t.Helper()
	payload := []byte(`{"entity":"torn","digest":"dead"}`)
	var rec bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	rec.Write(hdr[:])
	rec.Write(payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec.Bytes()[:rec.Len()-5]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardScanResumesFromSegment is the worker-side half of
// journal-backed reassignment: a lease cut off mid-shard (the coordinator
// revoking, or dying) leaves completed results in the shard's journal
// segment — with a torn tail, as a kill mid-append would. The re-leased
// shard must replay those results (resumed=true) instead of re-scanning,
// after recovery truncates the torn tail.
func TestShardScanResumesFromSegment(t *testing.T) {
	dir := t.TempDir()
	_, srv := shardServer(t, dir, 120*time.Millisecond)
	body, names := shardBody(t, 3)
	payload := body.Bytes()

	// Lease 1: read up to the first result, then revoke (drop the
	// connection by cancelling the request).
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/shard/scan?shard=res1&heartbeat=10ms", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, want 200", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	sawFirst := false
	for sc.Scan() {
		var rec streamLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == dist.TypeResult {
			if rec.Entity != names[0] {
				t.Fatalf("first serial result = %s, want %s", rec.Entity, names[0])
			}
			sawFirst = true
			break
		}
	}
	if !sawFirst {
		t.Fatal("stream ended before first result")
	}
	cancel()
	_ = resp.Body.Close()

	// Wait for the revoked request to release the segment's flock, then
	// wound the tail the way a worker SIGKILL mid-append would.
	segPath := filepath.Join(dir, "res1.cvj")
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := journal.Open(segPath, journal.Options{})
		if err == nil {
			_ = j.Close()
			break
		}
		if !errors.Is(err, journal.ErrBusy) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("segment flock never released after revocation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tornTail(t, segPath)

	// Lease 2: same shard, same body. The completed first entity must
	// replay from the segment; the rest scan fresh.
	resp2, err := http.Post(srv.URL+"/v1/shard/scan?shard=res1&heartbeat=10ms", "application/x-ndjson", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-lease status = %s, want 200", resp2.Status)
	}
	results := map[string]streamLine{}
	sawDone := false
	for _, rec := range readStream(t, resp2.Body) {
		switch rec.Type {
		case dist.TypeResult:
			results[rec.Entity] = rec
		case dist.TypeDone:
			sawDone = true
		}
	}
	if !sawDone || len(results) != 3 {
		t.Fatalf("re-lease: %d results, done=%v; want 3 and true", len(results), sawDone)
	}
	if !results[names[0]].Resumed {
		t.Errorf("entity %s re-scanned; want replay from journal segment", names[0])
	}
	for _, name := range names {
		if rec := results[name]; rec.Err != "" || rec.Report == nil {
			t.Errorf("re-lease result %s: err=%q report=%v", name, rec.Err, rec.Report != nil)
		}
	}
}

// TestShardScanSegmentBusyConflict pins the lease-fencing behavior: while
// another handle owns a shard's journal segment (a previous lease still
// tearing down), a new lease for that shard gets 409 + Retry-After, and
// succeeds once the segment is released — never two writers on one
// segment.
func TestShardScanSegmentBusyConflict(t *testing.T) {
	dir := t.TempDir()
	_, srv := shardServer(t, dir, 0)
	body, _ := shardBody(t, 1)
	payload := body.Bytes()

	holder, err := journal.Open(filepath.Join(dir, "busy1.cvj"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/shard/scan?shard=busy1", "application/x-ndjson", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status with held segment = %s, want 409", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("409 without Retry-After; coordinators would not back off")
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(srv.URL+"/v1/shard/scan?shard=busy1", "application/x-ndjson", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp2.Body.Close() }()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after release = %s, want 200", resp2.Status)
	}
	_, _ = io.Copy(io.Discard, resp2.Body)
}

// TestShardScanOutlivesWriteTimeout pins that a shard stream is bounded by
// the coordinator's lease watchdog, not the HTTP server's WriteTimeout:
// a shard that takes longer to scan than the timeout must still deliver
// every result and the done trailer.
func TestShardScanOutlivesWriteTimeout(t *testing.T) {
	v, err := configvalidator.New(configvalidator.WithTelemetry(configvalidator.NewCollector()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(v)
	if err != nil {
		t.Fatal(err)
	}
	s.ShardScanDelay = 150 * time.Millisecond
	s.ShardWorkers = 1
	srv := httptest.NewUnstartedServer(s.Handler())
	srv.Config.WriteTimeout = 200 * time.Millisecond
	srv.Start()
	t.Cleanup(srv.Close)

	body, _ := shardBody(t, 4)
	resp, err := http.Post(srv.URL+"/v1/shard/scan?shard=slow1&heartbeat=50ms", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, want 200", resp.Status)
	}
	results, dones := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		var rec streamLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch rec.Type {
		case dist.TypeResult:
			results++
		case dist.TypeDone:
			dones++
		}
	}
	if results != 4 || dones != 1 {
		t.Fatalf("stream past WriteTimeout: %d results, %d done trailers (read err %v); want 4 and 1",
			results, dones, sc.Err())
	}
}

func TestShardScanRejectsBadInput(t *testing.T) {
	_, srv := shardServer(t, "", 0)
	one, _ := shardBody(t, 1)
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"empty shard", "/v1/shard/scan", ""},
		{"garbage line", "/v1/shard/scan", "not-json\n"},
		{"bad frame", "/v1/shard/scan", `{"name":"x","frame":"aGk="}` + "\n"},
		{"bad shard id", "/v1/shard/scan?shard=../../etc", `{"name":"x","frame":""}` + "\n"},
		{"bad heartbeat", "/v1/shard/scan?heartbeat=soon", ""},
		// Retries must be a whole decimal number, not merely start with one.
		{"retries with a suffix", "/v1/shard/scan?retries=3abc", one.String()},
		{"fractional retries", "/v1/shard/scan?retries=2.5", one.String()},
		{"hex retries", "/v1/shard/scan?retries=0x10", one.String()},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+tc.url, "application/x-ndjson", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %s, want 400", tc.name, resp.Status)
		}
	}
}
