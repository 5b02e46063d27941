package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func frameBody(t *testing.T, misconfig float64) *bytes.Buffer {
	t.Helper()
	host, _ := fixtures.UbuntuHost("client-host", fixtures.Profile{Seed: 8, MisconfigRate: misconfig})
	frame, err := frames.Capture(host, nil, time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := frame.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %s", resp.Status)
	}
}

func TestTargets(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/targets")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var decoded struct {
		Targets []struct {
			Name  string `json:"name"`
			Rules int    `json:"rules"`
		} `json:"targets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Targets) != 11 {
		t.Errorf("targets = %d", len(decoded.Targets))
	}
	total := 0
	for _, tg := range decoded.Targets {
		total += tg.Rules
	}
	if total != 135 {
		t.Errorf("total rules over API = %d", total)
	}
}

func TestRulesEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/rules/sshd")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "PermitRootLogin") {
		t.Errorf("status %s body %q...", resp.Status, string(body[:80]))
	}

	r2, err := http.Get(srv.URL + "/v1/rules/kubernetes")
	if err != nil {
		t.Fatal(err)
	}
	_ = r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown target status = %s", r2.Status)
	}
}

func TestValidateFrame(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/validate/frame", "application/jsonl", frameBody(t, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
	var decoded struct {
		Entity  string         `json:"entity"`
		Summary map[string]int `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Entity != "client-host" || decoded.Summary["fail"] == 0 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestValidateFrameWithTargetAndTags(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/validate/frame?target=sshd&tags=%23cis", "application/jsonl", frameBody(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var decoded struct {
		Results []struct {
			ManifestEntity string `json:"manifest_entity"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range decoded.Results {
		if r.ManifestEntity != "sshd" {
			t.Errorf("leaked entity %s", r.ManifestEntity)
		}
	}
}

func TestValidateFrameBadInput(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/validate/frame", "text/plain", strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %s", resp.Status)
	}
	r2, err := http.Post(srv.URL+"/v1/validate/frame?target=nope", "application/jsonl", frameBody(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad target status = %s", r2.Status)
	}
}

func TestValidateTar(t *testing.T) {
	srv := testServer(t)
	img, _ := fixtures.Image("tarred", "v1", fixtures.Profile{Seed: 3, MisconfigRate: 1})
	var buf bytes.Buffer
	if err := img.ExportTar(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/validate/tar?name=tarred:v1&target=sshd", "application/x-tar", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
	var decoded struct {
		Entity  string         `json:"entity"`
		Summary map[string]int `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Entity != "tarred:v1" || decoded.Summary["fail"] == 0 {
		t.Errorf("decoded = %+v", decoded)
	}

	bad, err := http.Post(srv.URL+"/v1/validate/tar", "application/x-tar", strings.NewReader("not a tar"))
	if err != nil {
		t.Fatal(err)
	}
	_ = bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tar status = %s", bad.Status)
	}
}

func TestLintEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/lint", "application/yaml", strings.NewReader("config_nme: typo\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	// Decode against the raw wire shape, not lintResponse, so the JSON
	// field names themselves are pinned.
	var decoded struct {
		Errors   int `json:"errors"`
		Warnings int `json:"warnings"`
		Findings []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Rule     string `json:"rule"`
			Msg      string `json:"msg"`
			Text     string `json:"text"`
		} `json:"findings"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Errors != 1 || len(decoded.Findings) == 0 {
		t.Fatalf("lint = %+v", decoded)
	}
	f := decoded.Findings[0]
	if f.Code != "CVL003" || f.Severity != "error" || f.File != "request.yaml" || f.Line != 1 || f.Col != 1 {
		t.Errorf("finding = %+v", f)
	}
	if !strings.Contains(f.Msg, "config_name") {
		t.Errorf("no typo suggestion: %+v", f)
	}
	// The compatibility text field carries the rendered one-line form.
	if !strings.Contains(f.Text, "request.yaml:1:1") || !strings.Contains(f.Text, "CVL003") {
		t.Errorf("text = %q", f.Text)
	}
}

// TestLintEndpointParentIsWarning pins the single-file analysis mode: a
// parent_cvl_file reference cannot resolve inside a request body, so it
// must surface as a warning, never an error.
func TestLintEndpointParentIsWarning(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/lint", "application/yaml", strings.NewReader("parent_cvl_file: base.yaml\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var decoded lintResponse
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Errors != 0 || decoded.Warnings == 0 {
		t.Fatalf("lint = %+v", decoded)
	}
	if decoded.Findings[0].Code != "CVL101" || decoded.Findings[0].Severity != "warning" {
		t.Errorf("finding = %+v", decoded.Findings[0])
	}
}

// TestLintEndpointSemanticToggle pins that the constraint-level CVL4xx
// pass runs by default and that ?semantic=0 skips it.
func TestLintEndpointSemanticToggle(t *testing.T) {
	srv := testServer(t)
	const unsat = "config_name: Protocol\n" +
		"preferred_value: [\"2\"]\n" +
		"preferred_value_match: exact,any\n" +
		"non_preferred_value: [\"2\"]\n" +
		"non_preferred_value_match: exact,any\n"
	codes := func(url string) map[string]bool {
		t.Helper()
		resp, err := http.Post(url, "application/yaml", strings.NewReader(unsat))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var decoded lintResponse
		if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, f := range decoded.Findings {
			got[f.Code] = true
		}
		return got
	}
	if got := codes(srv.URL + "/v1/lint"); !got["CVL401"] {
		t.Errorf("default lint missing CVL401: %v", got)
	}
	if got := codes(srv.URL + "/v1/lint?semantic=0"); got["CVL401"] {
		t.Errorf("semantic=0 still reported CVL401: %v", got)
	}
}

// smallLimitServer is a test server whose upload cap is shrunk so the
// 413 path can be exercised without multi-hundred-MB bodies.
func smallLimitServer(t *testing.T, limit int64) *httptest.Server {
	t.Helper()
	s, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxUploadBytes = limit
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestValidateFrameOversizedBodyRejected(t *testing.T) {
	srv := smallLimitServer(t, 1024)
	body := frameBody(t, 0) // a full fixture frame is far beyond 1 KiB
	if body.Len() <= 1024 {
		t.Fatalf("fixture frame unexpectedly small: %d bytes", body.Len())
	}
	resp, err := http.Post(srv.URL+"/v1/validate/frame", "application/jsonl", body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %s (want 413): %s", resp.Status, out)
	}
}

func TestValidateTarOversizedBodyRejected(t *testing.T) {
	srv := smallLimitServer(t, 512)
	img, _ := fixtures.Image("big", "v1", fixtures.Profile{Seed: 3})
	var buf bytes.Buffer
	if err := img.ExportTar(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 512 {
		t.Fatalf("fixture tar unexpectedly small: %d bytes", buf.Len())
	}
	resp, err := http.Post(srv.URL+"/v1/validate/tar?name=big:v1", "application/x-tar", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %s (want 413): %s", resp.Status, out)
	}
}

// TestOversizedBodyNeverTruncatedClean is the regression the limit change
// guards against: a body cut off at the limit must never come back as a
// clean 200 report.
func TestOversizedBodyNeverTruncatedClean(t *testing.T) {
	srv := smallLimitServer(t, 2048)
	body := frameBody(t, 1) // heavily misconfigured entity
	resp, err := http.Post(srv.URL+"/v1/validate/frame", "application/jsonl", body)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode == http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("oversized upload returned 200 with report: %s", out)
	}
}

func TestLintOversizedBodyRejected(t *testing.T) {
	srv := testServer(t)
	big := strings.NewReader("# " + strings.Repeat("x", MaxLintBytes+1))
	resp, err := http.Post(srv.URL+"/v1/lint", "application/yaml", big)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %s (want 413)", resp.Status)
	}
	// The error body names the limit so clients can size retries.
	out, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(out), fmt.Sprint(MaxLintBytes)) {
		t.Errorf("413 body = %q", out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Drive a validation and a 404-ish request first so counters move.
	resp, err := http.Post(srv.URL+"/v1/validate/frame", "application/jsonl", frameBody(t, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	bad, err := http.Post(srv.URL+"/v1/validate/frame", "text/plain", strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	_ = bad.Body.Close()

	wants := []string{
		"configvalidator_scans_total 1",
		`configvalidator_http_requests_total{route="POST /v1/validate/frame",code="200"} 1`,
		`configvalidator_http_requests_total{route="POST /v1/validate/frame",code="400"} 1`,
		"configvalidator_scan_duration_seconds_count 1",
		// Latency histogram recorded something.
		`configvalidator_scan_duration_seconds_bucket{le="+Inf"} 1`,
	}
	// The server records a request after its response is written, so the
	// client can get here first: poll until every counter shows up.
	var body string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		m, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(m.Body)
		_ = m.Body.Close()
		if m.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %s", m.Status)
		}
		if ct := m.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type = %q", ct)
		}
		body = string(text)
		if containsAll(body, wants) || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range wants {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func containsAll(s string, subs []string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// TestFrameRoundTripThroughService is the end-to-end touchless story:
// capture locally, POST, get the same verdicts a local scan yields.
func TestFrameRoundTripThroughService(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/validate/frame", "application/jsonl", frameBody(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var decoded struct {
		Summary map[string]int `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Summary["fail"] != 0 || decoded.Summary["error"] != 0 {
		t.Errorf("clean frame over service: %+v", decoded.Summary)
	}
}
