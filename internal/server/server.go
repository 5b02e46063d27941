// Package server exposes ConfigValidator as an HTTP service — the shape of
// the paper's production deployment, where validation runs as part of a
// cloud service (IBM Vulnerability Advisor) rather than on the scanned
// hosts. Clients capture a configuration frame locally (touchless, no
// agent) and POST it for validation.
//
// API:
//
//	GET  /healthz                 liveness
//	GET  /readyz                  readiness (breaker + drain + queue state)
//	GET  /metrics                 Prometheus-style runtime metrics
//	GET  /v1/targets              built-in target list (Table 1)
//	GET  /v1/rules/{target}       the target's CVL rule file
//	POST /v1/validate/frame       validate a frame stream → JSON report
//	POST /v1/validate/tar         validate a docker-export tar → JSON report
//	POST /v1/shard/scan           scan a shard of shipped frames → result stream
//	POST /v1/lint                 lint a CVL rule file → diagnostics
//
// Upload bodies are bounded (MaxFrameBytes for frames and tars,
// MaxLintBytes for lint input); oversized bodies are rejected with
// HTTP 413 rather than silently truncated.
//
// Validation routes sit behind overload protection (see Limits): a
// bounded in-flight limit with a bounded wait queue (excess requests are
// shed with 429 and Retry-After), a per-request timeout, and a circuit
// breaker that opens after consecutive server-side validation failures
// (503 until its cooldown). /readyz reports 503 while the breaker is open
// or the server is draining, so load balancers rotate the instance out
// before clients see errors.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/analysis"
	"configvalidator/internal/entity"
	"configvalidator/internal/frames"
	"configvalidator/internal/rules"
	"configvalidator/internal/telemetry"
)

// MaxFrameBytes bounds accepted frame and tar uploads. Bodies over the
// limit get HTTP 413.
const MaxFrameBytes = 256 << 20

// MaxLintBytes bounds accepted lint uploads.
const MaxLintBytes = 8 << 20

// Server handles validation requests.
type Server struct {
	validator *configvalidator.Validator
	metrics   *telemetry.Collector

	// MaxUploadBytes bounds frame and tar bodies; New sets it to
	// MaxFrameBytes. Operators may lower it before Handler is called.
	MaxUploadBytes int64

	// Limits tune overload protection on the validation routes; New sets
	// defaults (see Limits). Operators may adjust them before Handler is
	// called; later changes are ignored.
	Limits Limits

	// ShardWorkers is the per-shard scan concurrency for /v1/shard/scan;
	// 0 means GOMAXPROCS (see FleetOptions.Workers).
	ShardWorkers int

	// ShardJournalDir, when set, gives each shard scan a durable journal
	// segment (<dir>/<shard-id>.cvj): a re-leased shard replays the results
	// this worker already completed instead of re-scanning them. Empty
	// disables worker-side resume.
	ShardJournalDir string

	// ShardScanDelay stalls each shard entity before it is scanned — a
	// pacing knob for chaos drills and CI smokes that need to kill a worker
	// deterministically mid-shard. Zero (the default, and the production
	// setting) adds nothing.
	ShardScanDelay time.Duration

	initOnce sync.Once
	lim      *limiter
	brk      *breaker
	draining atomic.Bool

	// testGate, when set by tests before Handler, blocks each admitted
	// validation request until a receive succeeds — the seam that makes
	// overload tests deterministic (hold N slots, assert the N+1st sheds).
	testGate chan struct{}
}

// New creates a server backed by the built-in rule library, or by the
// supplied validator when non-nil. A nil validator is built with a fresh
// telemetry collector; a supplied validator's collector (WithTelemetry)
// is reused, so scan metrics and HTTP metrics land in one place. Either
// way /metrics is live — with an un-instrumented custom validator it
// reports HTTP traffic only.
func New(v *configvalidator.Validator) (*Server, error) {
	if v == nil {
		var err error
		v, err = configvalidator.New(configvalidator.WithTelemetry(configvalidator.NewCollector()))
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	m := v.Telemetry()
	if m == nil {
		m = telemetry.NewCollector()
	}
	return &Server{validator: v, metrics: m, MaxUploadBytes: MaxFrameBytes}, nil
}

// initAdmission freezes s.Limits and builds the admission gate and circuit
// breaker; called once from Handler.
func (s *Server) initAdmission() {
	s.initOnce.Do(func() {
		s.Limits = s.Limits.withDefaults()
		s.lim = newLimiter(s.Limits, s.metrics)
		s.brk = newBreaker(s.Limits, s.metrics)
	})
}

// Metrics returns the server's telemetry collector.
func (s *Server) Metrics() *telemetry.Collector { return s.metrics }

// Handler returns the HTTP routes, each wrapped in per-request
// instrumentation (request count and latency by route and status code,
// exposed at /metrics).
func (s *Server) Handler() http.Handler {
	s.initAdmission()
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	// Validation routes additionally pass the admission gate and run under
	// the per-request timeout; everything else stays cheap and ungated.
	guarded := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern,
			s.admit(http.TimeoutHandler(h, s.Limits.ValidateTimeout, "validation timed out\n"))))
	}
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	handle("GET /readyz", s.handleReadyz)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /v1/targets", s.handleTargets)
	handle("GET /v1/rules/{target}", s.handleRules)
	guarded("POST /v1/validate/frame", s.handleValidateFrame)
	guarded("POST /v1/validate/tar", s.handleValidateTar)
	// Shard scans stream heartbeats and incremental results, which
	// http.TimeoutHandler would buffer into silence — so they pass the
	// admission gate (drain, breaker, in-flight limit, 429 shedding) but
	// not the per-request timeout. Their lifetime is bounded by the
	// coordinator's lease watchdog instead: a silent stream is revoked at
	// the lease TTL by dropping the connection, which cancels the request
	// context and stops the scan.
	mux.Handle("POST /v1/shard/scan", s.instrument("POST /v1/shard/scan",
		s.admit(http.HandlerFunc(s.handleShardScan))))
	handle("POST /v1/lint", s.handleLint)
	return mux
}

// admit gates a validation route: reject while draining, shed with 429 +
// Retry-After when the in-flight limit and queue are saturated, and
// reject with 503 while the circuit breaker is open. Admitted requests
// hold an execution slot for their whole lifetime, which is what
// BeginDrain waits on.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", retryAfter(s.Limits.BreakerCooldown))
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		if !s.brk.allow() {
			w.Header().Set("Retry-After", retryAfter(s.Limits.BreakerCooldown))
			httpError(w, http.StatusServiceUnavailable, "validation circuit breaker open")
			return
		}
		if !s.lim.acquire(r.Context()) {
			s.metrics.RequestShed()
			w.Header().Set("Retry-After", retryAfter(s.Limits.QueueWait))
			httpError(w, http.StatusTooManyRequests, "validation capacity exhausted, retry later")
			return
		}
		defer s.lim.release()
		if s.testGate != nil {
			<-s.testGate
		}
		next.ServeHTTP(w, r)
	})
}

// BeginDrain stops admitting validation requests (503 with Retry-After)
// and waits for the in-flight ones to finish, or for ctx to expire.
// Callers then shut the HTTP listener down; see cmd/cvserver.
func (s *Server) BeginDrain(ctx context.Context) error {
	s.initAdmission()
	s.draining.Store(true)
	for i := 0; i < cap(s.lim.slots); i++ {
		select {
		case s.lim.slots <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("server: drain: %w", ctx.Err())
		}
	}
	return nil
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleReadyz reports readiness: 503 while the circuit breaker is open
// or the server is draining, 200 otherwise — distinct from /healthz,
// which only answers "the process is up". The body carries the gate state
// for operators.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	breakerOpen := s.brk.isOpen()
	draining := s.draining.Load()
	ready := !breakerOpen && !draining
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"ready":        ready,
		"breaker_open": breakerOpen,
		"draining":     draining,
		"in_flight":    len(s.lim.slots),
		"queued":       s.lim.queued.Load(),
	})
}

// statusRecorder captures the response code for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// streaming routes (shard scans) can flush and lift their write deadline
// under instrumentation.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a handler with request counting and latency recording
// under the route pattern it was registered with.
func (s *Server) instrument(pattern string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.metrics.RequestDone(pattern, rec.code, time.Since(start))
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

type targetInfo struct {
	Name     string `json:"name"`
	Category string `json:"category"`
	Standard string `json:"standard"`
	Rules    int    `json:"rules"`
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	all, err := rules.All()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "load rules: %v", err)
		return
	}
	out := make([]targetInfo, 0, len(rules.Targets()))
	for _, t := range rules.Targets() {
		out = append(out, targetInfo{
			Name:     t.Name,
			Category: t.Category,
			Standard: t.Standard,
			Rules:    len(all[t.Name]),
		})
	}
	writeJSON(w, map[string]any{"targets": out})
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	target := r.PathValue("target")
	var ruleFile string
	for _, t := range rules.Targets() {
		if t.Name == target {
			ruleFile = t.RuleFile
		}
	}
	if ruleFile == "" {
		httpError(w, http.StatusNotFound, "unknown target %q", target)
		return
	}
	content, err := rules.Reader()(ruleFile)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "read rules: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/yaml")
	_, _ = w.Write(content)
}

// boundedBody caps the request body at limit bytes. Exceeding it makes
// reads fail with *http.MaxBytesError, which rejectOversize maps to 413 —
// unlike the io.LimitReader this replaces, which silently truncated the
// stream and let a partial frame or tar validate "clean".
func boundedBody(w http.ResponseWriter, r *http.Request, limit int64) io.Reader {
	return http.MaxBytesReader(w, r.Body, limit)
}

// rejectOversize writes 413 and reports true when err was caused by the
// body exceeding its limit.
func rejectOversize(w http.ResponseWriter, err error, limit int64) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
	return true
}

func (s *Server) handleValidateFrame(w http.ResponseWriter, r *http.Request) {
	frame, err := frames.Read(boundedBody(w, r, s.MaxUploadBytes))
	if err != nil {
		if rejectOversize(w, err, s.MaxUploadBytes) {
			return
		}
		httpError(w, http.StatusBadRequest, "bad frame: %v", err)
		return
	}
	s.validateEntity(w, r, frame.Entity())
}

// handleValidateTar accepts a tar archive (a docker export) and validates
// it as a container filesystem. The entity name comes from ?name=.
func (s *Server) handleValidateTar(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "uploaded-tar"
	}
	ent, err := entity.NewFromTar(name, entity.TypeContainer, boundedBody(w, r, s.MaxUploadBytes))
	if err != nil {
		if rejectOversize(w, err, s.MaxUploadBytes) {
			return
		}
		httpError(w, http.StatusBadRequest, "bad tar: %v", err)
		return
	}
	s.validateEntity(w, r, ent)
}

func (s *Server) validateEntity(w http.ResponseWriter, r *http.Request, ent configvalidator.Entity) {
	report, err := s.runValidation(r, ent)
	if err != nil {
		if errors.Is(err, configvalidator.ErrUnknownTarget) {
			// Caller mistake: no breaker accounting.
			httpError(w, http.StatusBadRequest, "validate: %v", err)
			return
		}
		s.brk.failure()
		httpError(w, http.StatusInternalServerError, "validate: %v", err)
		return
	}
	s.brk.success()
	opts := configvalidator.OutputOptions{}
	if tags := r.URL.Query().Get("tags"); tags != "" {
		opts.TagFilter = strings.Split(tags, ",")
	}
	w.Header().Set("Content-Type", "application/json")
	if err := configvalidator.WriteJSON(w, report, opts); err != nil {
		// Headers already sent; nothing safe to do but log-level surface.
		return
	}
}

// runValidation executes the validation itself with panic isolation: a
// panicking entity (hostile upload, parser bug past the crawler's per-file
// recovery) becomes a server-side failure that feeds the circuit breaker
// instead of killing the connection handler.
func (s *Server) runValidation(r *http.Request, ent configvalidator.Entity) (report *configvalidator.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			report, err = nil, fmt.Errorf("validation panicked: %v", p)
		}
	}()
	return s.validator.ValidateTarget(ent, r.URL.Query().Get("target"))
}

// lintResponse carries structured findings. Each finding has stable
// fields {code, severity, file, line, col, rule, msg}; the text field
// holds the rendered one-line form for clients that only display it.
type lintResponse struct {
	Errors   int                       `json:"errors"`
	Warnings int                       `json:"warnings"`
	Findings []analysis.JSONDiagnostic `json:"findings"`
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	content, err := io.ReadAll(boundedBody(w, r, MaxLintBytes))
	if err != nil {
		if rejectOversize(w, err, MaxLintBytes) {
			return
		}
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	// Single-file analysis: unresolved parent_cvl_file references are
	// warnings here, since the request body has no surrounding project.
	// ?semantic=0 (or false) skips the constraint-level CVL4xx pass.
	semantic := r.URL.Query().Get("semantic")
	result := analysis.AnalyzeFile("request.yaml", content, analysis.Options{
		NoSemantic: semantic == "0" || semantic == "false",
	})
	resp := lintResponse{Findings: make([]analysis.JSONDiagnostic, 0, len(result.Diagnostics))}
	resp.Errors, resp.Warnings = result.Counts()
	for _, d := range result.Diagnostics {
		resp.Findings = append(resp.Findings, d.JSON())
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
