package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/faults"
	"configvalidator/internal/telemetry"
)

// overloadServer builds a Server with explicit limits, an armed test gate,
// and an httptest listener.
func overloadServer(t *testing.T, limits Limits, v *configvalidator.Validator) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	s, err := New(v)
	if err != nil {
		t.Fatal(err)
	}
	s.Limits = limits
	gate := make(chan struct{})
	s.testGate = gate
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv, gate
}

// eventually polls cond for up to 5s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition %q not reached within 5s", what)
}

func postFrame(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/validate/frame", "application/jsonl", frameBody(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestOverloadShedsExactlyExcess is the overload acceptance test: with an
// in-flight limit of N and a queue of Q, N+Q+k concurrent requests yield
// exactly k immediate 429s (each with Retry-After) while the N running
// and Q queued requests all complete 200 once capacity frees up.
func TestOverloadShedsExactlyExcess(t *testing.T) {
	const inflight, queue, extra = 2, 1, 3
	s, srv, gate := overloadServer(t, Limits{
		MaxInFlight: inflight,
		MaxQueue:    queue,
		QueueWait:   30 * time.Second, // queued request must survive orchestration
	}, nil)

	type outcome struct {
		code       int
		retryAfter string
	}
	results := make(chan outcome, inflight+queue+extra)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp := postFrame(t, srv.URL)
		defer func() { _ = resp.Body.Close() }()
		_, _ = io.Copy(io.Discard, resp.Body)
		results <- outcome{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	}

	// Fill every slot, then the queue, syncing on observable gate state so
	// the shed requests below race with nothing.
	wg.Add(inflight)
	for i := 0; i < inflight; i++ {
		go post()
	}
	eventually(t, "all slots held", func() bool { return len(s.lim.slots) == inflight })
	wg.Add(queue)
	for i := 0; i < queue; i++ {
		go post()
	}
	eventually(t, "queue occupied", func() bool { return s.lim.queued.Load() == queue })

	// Saturated: these must shed immediately.
	wg.Add(extra)
	for i := 0; i < extra; i++ {
		go post()
	}
	var shed int
	for i := 0; i < extra; i++ {
		out := <-results
		if out.code != http.StatusTooManyRequests {
			t.Fatalf("saturated request returned %d, want 429", out.code)
		}
		if secs, err := strconv.Atoi(out.retryAfter); err != nil || secs < 1 {
			t.Errorf("429 Retry-After = %q, want integer seconds >= 1", out.retryAfter)
		}
		shed++
	}

	// Release the gate: the held and queued requests finish cleanly.
	close(gate)
	wg.Wait()
	close(results)
	for out := range results {
		if out.code != http.StatusOK {
			t.Errorf("admitted request returned %d, want 200", out.code)
		}
	}
	if shed != extra {
		t.Errorf("shed %d requests, want exactly %d", shed, extra)
	}
	snap := s.Metrics().Snapshot()
	if snap.Shed != extra {
		t.Errorf("telemetry shed = %d, want %d", snap.Shed, extra)
	}
	if snap.QueueDepth != 0 {
		t.Errorf("queue-depth gauge = %d after drain, want 0", snap.QueueDepth)
	}
}

func getReadyz(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBreakerOpensOnConsecutiveFailures drives the circuit breaker through
// its full lifecycle: consecutive server-side validation failures open it
// (503s, /readyz not-ready), the cooldown admits a probe, and a clean
// probe closes it again.
func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	// The first two validations hit an injected entity-access failure —
	// a server-side fault, unlike a client's bad upload — then the
	// injector goes quiet and validation works again.
	inj := faults.MustNew(faults.Rule{Op: faults.OpWalk, Times: 2, Kind: faults.KindError, Msg: "store down"})
	v, err := configvalidator.New(configvalidator.WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	s, srv, gate := overloadServer(t, Limits{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	}, v)
	close(gate) // no admission games in this test

	for i := 0; i < 2; i++ {
		resp := postFrame(t, srv.URL)
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulted validation %d returned %d, want 500", i+1, resp.StatusCode)
		}
	}

	// Breaker open: validations rejected without running, /readyz not ready.
	resp := postFrame(t, srv.URL)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request with open breaker returned %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open-breaker 503 missing Retry-After")
	}
	if code, body := getReadyz(t, srv.URL); code != http.StatusServiceUnavailable || body["breaker_open"] != true {
		t.Fatalf("readyz with open breaker = %d %v, want 503 with breaker_open", code, body)
	}
	snap := s.Metrics().Snapshot()
	if snap.BreakerOpens != 1 || snap.BreakerOpen != 1 {
		t.Errorf("telemetry breaker opens=%d open=%d, want 1/1", snap.BreakerOpens, snap.BreakerOpen)
	}

	// Cooldown elapses (simulated clock): the probe runs, succeeds, and
	// closes the breaker.
	s.brk.mu.Lock()
	s.brk.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	s.brk.mu.Unlock()
	resp = postFrame(t, srv.URL)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after cooldown returned %d, want 200", resp.StatusCode)
	}
	if code, body := getReadyz(t, srv.URL); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz after recovery = %d %v, want 200 ready", code, body)
	}
	if snap := s.Metrics().Snapshot(); snap.BreakerOpen != 0 {
		t.Error("breaker-open gauge still set after recovery")
	}
}

// TestBreakerHalfOpenFailureReopens: a failing probe re-opens the breaker
// immediately instead of resuming traffic.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	inj := faults.MustNew(faults.Rule{Op: faults.OpWalk, Times: 3, Kind: faults.KindError, Msg: "still down"})
	v, err := configvalidator.New(configvalidator.WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	s, srv, gate := overloadServer(t, Limits{BreakerThreshold: 2, BreakerCooldown: time.Hour}, v)
	close(gate)

	for i := 0; i < 2; i++ {
		resp := postFrame(t, srv.URL)
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	offset := 2 * time.Hour
	s.brk.mu.Lock()
	s.brk.now = func() time.Time { return time.Now().Add(offset) }
	s.brk.mu.Unlock()

	// Probe hits the third injected fault → 500 → breaker re-opens.
	resp := postFrame(t, srv.URL)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing probe returned %d, want 500", resp.StatusCode)
	}
	resp = postFrame(t, srv.URL)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request after failed probe returned %d, want 503", resp.StatusCode)
	}
	if snap := s.Metrics().Snapshot(); snap.BreakerOpens != 2 {
		t.Errorf("telemetry breaker opens = %d, want 2", snap.BreakerOpens)
	}
}

// TestUnknownTargetDoesNotTripBreaker: caller mistakes are 400s and never
// feed breaker accounting.
func TestUnknownTargetDoesNotTripBreaker(t *testing.T) {
	s, srv, gate := overloadServer(t, Limits{BreakerThreshold: 1}, nil)
	close(gate)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/validate/frame?target=nope", "application/jsonl", frameBody(t, 0))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown target returned %d, want 400", resp.StatusCode)
		}
	}
	if s.brk.isOpen() {
		t.Error("client errors opened the breaker")
	}
	resp := postFrame(t, srv.URL)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean validation after client errors returned %d, want 200", resp.StatusCode)
	}
}

// TestGracefulDrain: BeginDrain lets the in-flight validation finish,
// rejects new ones with 503, and flips /readyz — the shutdown sequence
// cvserver runs on SIGTERM.
func TestGracefulDrain(t *testing.T) {
	s, srv, gate := overloadServer(t, Limits{MaxInFlight: 2}, nil)

	inFlightDone := make(chan int, 1)
	go func() {
		resp := postFrame(t, srv.URL)
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		inFlightDone <- resp.StatusCode
	}()
	eventually(t, "request in flight", func() bool { return len(s.lim.slots) == 1 })

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- s.BeginDrain(ctx)
	}()
	eventually(t, "draining flagged", s.Draining)

	// New validations are rejected while the held one is still running.
	resp := postFrame(t, srv.URL)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("validation during drain returned %d, want 503", resp.StatusCode)
	}
	if code, body := getReadyz(t, srv.URL); code != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("readyz during drain = %d %v, want 503 draining", code, body)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain finished with request still in flight: %v", err)
	default:
	}

	// Release the request: it completes 200 and the drain finishes.
	close(gate)
	if code := <-inFlightDone; code != http.StatusOK {
		t.Fatalf("in-flight request during drain returned %d, want 200", code)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDrainTimeout: a wedged in-flight validation makes BeginDrain give
// up at its context deadline instead of hanging shutdown forever.
func TestDrainTimeout(t *testing.T) {
	s, srv, gate := overloadServer(t, Limits{MaxInFlight: 1}, nil)
	t.Cleanup(func() { close(gate) }) // unpark before srv.Close waits on the connection
	go func() {
		resp := postFrame(t, srv.URL) // parks on the gate until cleanup
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	eventually(t, "request parked", func() bool { return len(s.lim.slots) == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.BeginDrain(ctx); err == nil {
		t.Fatal("drain with wedged request returned nil, want deadline error")
	}
}

// TestReadyzFreshServer: a fresh server is ready.
func TestReadyzFreshServer(t *testing.T) {
	srv := testServer(t)
	code, body := getReadyz(t, srv.URL)
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh readyz = %d %v, want 200 ready", code, body)
	}
}

// TestQueueWaitExpiryShedsQueued: a queued request that never gets a slot
// sheds with 429 once QueueWait expires.
func TestQueueWaitExpiryShedsQueued(t *testing.T) {
	s, srv, gate := overloadServer(t, Limits{
		MaxInFlight: 1,
		MaxQueue:    1,
		QueueWait:   30 * time.Millisecond,
	}, nil)
	t.Cleanup(func() { close(gate) }) // unpark before srv.Close waits on the connection
	go func() {
		resp := postFrame(t, srv.URL) // holds the only slot until cleanup
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	eventually(t, "slot held", func() bool { return len(s.lim.slots) == 1 })
	resp := postFrame(t, srv.URL)
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request after wait expiry returned %d, want 429", resp.StatusCode)
	}
	if fmt.Sprint(resp.Header.Get("Retry-After")) == "" {
		t.Error("429 missing Retry-After")
	}
}

// TestQueueGaugeDecrementsOnClientAbort pins limiter.acquire's gauge
// accounting on the abandonment path: a queued request whose client goes
// away (context cancelled) must decrement the queue-depth gauge on its
// way out, or /metrics reports phantom queued work forever.
func TestQueueGaugeDecrementsOnClientAbort(t *testing.T) {
	m := telemetry.NewCollector()
	lim := newLimiter(Limits{MaxInFlight: 1, MaxQueue: 4, QueueWait: time.Minute}.withDefaults(), m)
	if !lim.acquire(context.Background()) {
		t.Fatal("first acquire should take the only slot")
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan bool, 1)
	go func() { got <- lim.acquire(ctx) }()
	eventually(t, "request queued", func() bool { return m.Snapshot().QueueDepth == 1 })
	cancel()
	if <-got {
		t.Fatal("acquire succeeded after its context was cancelled")
	}
	eventually(t, "queue gauge drained", func() bool { return m.Snapshot().QueueDepth == 0 })
	if q := lim.queued.Load(); q != 0 {
		t.Fatalf("internal queued counter = %d, want 0", q)
	}
	// The freed queue capacity is genuinely reusable: release the slot and
	// a fresh acquire must succeed immediately.
	lim.release()
	if !lim.acquire(context.Background()) {
		t.Fatal("acquire after abort should succeed")
	}
}
