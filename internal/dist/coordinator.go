package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/frames"
	"configvalidator/internal/journal"
	"configvalidator/internal/telemetry"
)

// A shard is re-leased at most maxReassignments times before its
// remaining entities fail with ErrLeaseRevoked, and a dispatch is retried
// in place at most dispatchRetries times against a worker's backpressure
// (429/503 with Retry-After, 409 segment-busy) before it fails the lease.
const (
	maxReassignments = 3
	dispatchRetries  = 8
)

// Options tune a Coordinator.
type Options struct {
	// ShardSize is the number of entities leased to a worker per request;
	// 0 means 8. Smaller shards re-lease less work after a worker death;
	// larger shards amortize frame-shipping overhead.
	ShardSize int
	// LeaseTTL is how long the coordinator tolerates silence on a shard
	// stream before revoking the lease and reassigning the unfinished
	// remainder; 0 means 10s. Every stream line — heartbeat or result —
	// resets the clock.
	LeaseTTL time.Duration
	// HeartbeatInterval is the heartbeat cadence workers are asked for;
	// 0 means LeaseTTL/4. It must be comfortably under LeaseTTL or healthy
	// slow scans get revoked.
	HeartbeatInterval time.Duration
	// ProbeLimit is how many /readyz probes a failed worker gets before it
	// is declared dead; 0 means 30. When every worker is dead, pending
	// shards fail fast instead of queueing forever.
	ProbeLimit int
	// ProbeBackoff is the base delay between probes of a failed worker;
	// 0 means 100ms. Successive probes use the fleet's decorrelated
	// jitter, capped at 5s.
	ProbeBackoff time.Duration
	// StallWarn is how long a merged result may block on the FleetResult
	// consumer before the coordinator counts a merge stall and logs; 0
	// means 1s. Backpressure from a slow consumer is legitimate — shard
	// streams simply stop being read — but a stall past this threshold is
	// surfaced so operators can tell "consumer stalled" from "workers
	// slow".
	StallWarn time.Duration
	// HTTPClient overrides the client used for worker RPCs. The default
	// has no global timeout: shard streams are long-lived by design and
	// bounded by the lease watchdog instead.
	HTTPClient *http.Client
	// Logf, when set, receives coordinator lifecycle events (lease
	// revocations, reassignments, worker deaths) — operator visibility,
	// never required for correctness.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.ShardSize <= 0 {
		o.ShardSize = 8
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = o.LeaseTTL / 4
	}
	if o.ProbeLimit <= 0 {
		o.ProbeLimit = 30
	}
	if o.ProbeBackoff <= 0 {
		o.ProbeBackoff = 100 * time.Millisecond
	}
	if o.StallWarn <= 0 {
		o.StallWarn = time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Coordinator implements configvalidator.Scheduler over a set of remote
// worker cvserver processes: it packs the entity stream into shards, leases each
// shard to a worker, and merges the streamed results into the ordinary
// FleetResult channel. Set it as FleetOptions.Scheduler.
//
// Fault tolerance is the point: a lease whose stream goes silent past
// LeaseTTL is revoked, the worker is quarantined behind /readyz probes,
// and the shard's unfinished remainder is re-leased to a healthy worker.
// Results the failed worker already delivered are kept; a revoked stream
// racing its replacement cannot double-count an entity, because the
// coordinator emits each entity exactly once (first writer wins, later
// arrivals are dropped and counted). Each entity is read once, by the
// frame capture that ships it. With FleetOptions.Journal set, the
// coordinator digests that frame in memory under FleetOptions.Target: an
// entity the journal replays is not shipped, and every merged result,
// worker-resumed ones included, is committed under the digest of the
// frame its worker scanned, so a killed coordinator resumes the way a
// killed local run does. Without a journal, no entity is digested.
type Coordinator struct {
	workers []string
	opts    Options

	// decoders are the stream decoders idle between leases. Reusing them
	// keeps their rule tables, so a run builds each distinct rule once per
	// decoder instead of once per result.
	decMu    sync.Mutex
	decoders []*journal.Decoder
}

// NewCoordinator builds a Coordinator over worker base URLs (e.g.
// "http://10.0.0.7:8080"). The worker list is fixed for the run; workers
// that die mid-run are probed and, failing that, retired.
func NewCoordinator(workers []string, opts Options) *Coordinator {
	ws := make([]string, 0, len(workers))
	for _, w := range workers {
		if w != "" {
			ws = append(ws, w)
		}
	}
	return &Coordinator{workers: ws, opts: opts.withDefaults()}
}

// item is one entity packed into a shard: its identity plus its
// pre-encoded request line, kept per-item so a reassigned shard can carry
// exactly the unfinished subset.
type item struct {
	name   string
	digest string
	line   []byte
}

// shard is one unit of leased work.
type shard struct {
	id      string
	attempt int
	items   []item
	// noSegment marks the shard resume-unavailable: the worker could not
	// open (507) or keep writing (degraded-journal) its journal segment,
	// so further dispatches of this shard skip worker-side resume rather
	// than hit the same full disk again. Results are unaffected — the
	// segment only accelerates re-leases.
	noSegment bool
}

// payload concatenates the shard's request-body lines.
func (s *shard) payload() []byte {
	n := 0
	for _, it := range s.items {
		n += len(it.line)
	}
	buf := make([]byte, 0, n)
	for _, it := range s.items {
		buf = append(buf, it.line...)
	}
	return buf
}

// run is the per-Schedule state shared by the producer, dispatcher, and
// lease goroutines.
type run struct {
	ctx     context.Context
	fopts   configvalidator.FleetOptions
	metrics *telemetry.Collector
	results chan configvalidator.FleetResult

	// queue carries shards awaiting a worker; wg counts shards that have
	// been enqueued and not yet terminally resolved (completed or
	// failed out). A reassigned shard keeps its predecessor's wg slot.
	queue chan *shard
	wg    sync.WaitGroup

	// ready is the pool of workers available for a lease; live counts
	// workers not yet declared dead. When live reaches zero, noWorkers is
	// closed and pending shards fail fast.
	ready     chan string
	live      atomic.Int64
	noWorkers chan struct{}

	// mu guards emitted, the exactly-once gate: one FleetResult per entity
	// name, first writer wins.
	mu      sync.Mutex
	emitted map[string]bool

	// frame is the producer goroutine's frame-encoding buffer, reused for
	// every entity it packs.
	frame []byte

	// stallWarn and logf come from the coordinator's Options; stallOnce
	// gates the one-shot operator log of the first merge stall.
	stallWarn time.Duration
	logf      func(format string, args ...any)
	stallOnce sync.Once
}

// emit delivers one result exactly once, committing it to the coordinator
// journal like a local run would; committing a result replayed from that
// journal is a no-op. Duplicate deliveries — a revoked lease's stream
// racing its replacement — are dropped and counted, never double-journaled.
func (r *run) emit(res configvalidator.FleetResult, digest string) {
	r.mu.Lock()
	if r.emitted[res.Entity] {
		r.mu.Unlock()
		r.metrics.DuplicateResultDropped()
		return
	}
	r.emitted[res.Entity] = true
	r.mu.Unlock()
	// A failed commit does not fail the scan: the result is delivered
	// marked as not persisted.
	res.JournalDegraded = r.fopts.Journal.Commit(res.Entity, digest, res.Report, res.Err) != nil
	// Delivery blocks when the consumer is slow — that is the backpressure
	// path: this goroutine stops reading its shard stream, the worker
	// blocks writing, and no new work is pulled. A stall past StallWarn is
	// counted and logged so operators can tell a stuck consumer from slow
	// workers; the lease watchdog excludes this wait (see leaseShard).
	stall := time.NewTimer(r.stallWarn)
	defer stall.Stop()
	stallC := stall.C
	for {
		select {
		case r.results <- res:
			return
		case <-stallC:
			r.metrics.MergeStalled()
			r.stallOnce.Do(func() {
				r.logf("dist: merge stalled: FleetResult consumer has not accepted a result for %v (backpressure holding shard streams)", r.stallWarn)
			})
			stallC = nil // count each stalled delivery once, then wait
		case <-r.ctx.Done():
			r.metrics.ScanAbandoned()
			return
		}
	}
}

// remaining returns the shard's not-yet-delivered items.
func (r *run) remaining(s *shard) []item {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rest []item
	for _, it := range s.items {
		if !r.emitted[it.name] {
			rest = append(rest, it)
		}
	}
	return rest
}

// failShard terminally fails every undelivered entity of the shard with a
// lease-revocation error and releases the shard's wg slot.
func (r *run) failShard(s *shard, cause error) {
	err := fmt.Errorf("shard %s: %w: %v", s.id, configvalidator.ErrLeaseRevoked, cause)
	for _, it := range r.remaining(s) {
		r.emit(configvalidator.FleetResult{Entity: it.name, Err: err}, it.digest)
	}
	r.wg.Done()
}

// Schedule implements configvalidator.Scheduler.
func (c *Coordinator) Schedule(ctx context.Context, v *configvalidator.Validator, entities <-chan configvalidator.Entity, fopts configvalidator.FleetOptions) <-chan configvalidator.FleetResult {
	r := &run{
		ctx:       ctx,
		fopts:     fopts,
		metrics:   v.Telemetry(),
		results:   make(chan configvalidator.FleetResult),
		queue:     make(chan *shard, 64),
		ready:     make(chan string, len(c.workers)),
		noWorkers: make(chan struct{}),
	}
	r.emitted = make(map[string]bool)
	r.stallWarn = c.opts.StallWarn
	r.logf = c.opts.Logf
	r.live.Store(int64(len(c.workers)))
	for _, w := range c.workers {
		r.ready <- w
	}
	if len(c.workers) == 0 {
		close(r.noWorkers)
	}

	produced := make(chan struct{})
	go c.produce(r, v, entities, produced)

	// Dispatcher: pair each queued shard with a ready worker and lease it.
	go func() {
		for s := range r.queue {
			w, err := c.acquireWorker(r)
			if err != nil {
				r.failShard(s, err)
				continue
			}
			go c.runShard(r, v, w, s)
		}
	}()

	// Closer: once the producer has packed everything and every shard has
	// terminally resolved, shut the machinery down.
	go func() {
		<-produced
		r.wg.Wait()
		close(r.queue)
		close(r.results)
	}()
	return r.results
}

// produce drains the entity stream: every entity is captured as a frame;
// one the coordinator journal replays is emitted at once, and the rest
// are packed into shards of ShardSize.
func (c *Coordinator) produce(r *run, v *configvalidator.Validator, entities <-chan configvalidator.Entity, produced chan<- struct{}) {
	defer close(produced)
	var cur []item
	seq := 0
	flush := func() {
		if len(cur) == 0 {
			return
		}
		s := &shard{id: fmt.Sprintf("s%04d", seq), items: cur}
		seq++
		cur = nil
		r.wg.Add(1)
		select {
		case r.queue <- s:
		case <-r.ctx.Done():
			r.failShard(s, context.Cause(r.ctx))
		}
	}
	for {
		select {
		case <-r.ctx.Done():
			flush()
			return
		case ent, ok := <-entities:
			if !ok {
				flush()
				return
			}
			if it, done := c.pack(r, v, ent); !done {
				cur = append(cur, it)
				if len(cur) >= c.opts.ShardSize {
					flush()
				}
			}
		}
	}
}

// pack prepares one entity for shipping: frame capture, the one read of
// the live entity, then, when there is a coordinator journal, the digest
// of that frame for resume and journaling. It reports done=true when the
// entity needs no remote scan — failed during capture, or replayed from
// the coordinator journal — in which case the result has already been
// emitted.
func (c *Coordinator) pack(r *run, v *configvalidator.Validator, ent configvalidator.Entity) (item, bool) {
	name := ent.Name()
	frame, err := frames.Capture(ent, nil, time.Now())
	if err != nil {
		r.emit(configvalidator.FleetResult{Entity: name, Err: fmt.Errorf("capture frame: %w", err)}, "")
		return item{}, true
	}
	// Without a journal, lines carry an empty digest; workers echo it.
	var digest string
	if r.fopts.Journal != nil {
		digest, _ = v.ConfigDigest(frame.Entity(), r.fopts.Target)
		if rep, ok := r.fopts.Journal.Replay(name, digest); ok {
			r.emit(configvalidator.FleetResult{Entity: name, Report: rep, Resumed: true}, digest)
			return item{}, true
		}
	}
	r.frame = frame.Append(r.frame[:0])
	rec := EntityRecord{Name: name, Digest: digest, Frame: r.frame}
	// Room for the base64 frame and the name and digest escaped at worst.
	size := 32 + base64.StdEncoding.EncodedLen(len(r.frame)) + 6*(len(name)+len(digest))
	line := append(AppendEntityRecord(make([]byte, 0, size), &rec), '\n')
	return item{name: name, digest: digest, line: line}, false
}

// acquireWorker blocks until a worker is available, every worker is dead,
// or the run is cancelled.
func (c *Coordinator) acquireWorker(r *run) (string, error) {
	select {
	case w := <-r.ready:
		return w, nil
	default:
	}
	select {
	case w := <-r.ready:
		return w, nil
	case <-r.noWorkers:
		return "", fmt.Errorf("no live workers remain")
	case <-r.ctx.Done():
		return "", context.Cause(r.ctx)
	}
}

// runShard executes one lease attempt end to end and routes its outcome:
// complete, reassign, or fail out.
func (c *Coordinator) runShard(r *run, v *configvalidator.Validator, w string, s *shard) {
	r.metrics.ShardDispatched()
	err := c.leaseShard(r, w, s)
	rest := r.remaining(s)
	if len(rest) == 0 {
		// Every entity delivered — a nil err is the normal completion, a
		// non-nil err means the stream died after its last useful line.
		r.metrics.ShardCompleted()
		r.wg.Done()
		r.ready <- w
		return
	}
	if err == nil {
		// The worker said "done" but entities are missing (its scan context
		// was cut short without the stream dying). Treat as a lease failure.
		err = fmt.Errorf("stream completed with %d/%d results", len(s.items)-len(rest), len(s.items))
	}
	c.opts.Logf("dist: shard %s attempt %d on %s failed: %v (%d/%d delivered)",
		s.id, s.attempt+1, w, err, len(s.items)-len(rest), len(s.items))

	// The worker failed its lease: quarantine it behind readiness probes.
	go c.probeWorker(r, w)

	if s.attempt >= maxReassignments {
		r.metrics.ShardCompleted()
		r.failShard(s, fmt.Errorf("lease failed %d times, last: %v", s.attempt+1, err))
		return
	}
	r.metrics.LeaseReassigned()
	ns := &shard{id: s.id, attempt: s.attempt + 1, items: rest, noSegment: s.noSegment}
	c.opts.Logf("dist: reassigning shard %s (attempt %d, %d entities left)", ns.id, ns.attempt+1, len(ns.items))
	// Requeue off the dispatcher goroutine; the queue cannot close under us
	// because our wg slot (carried over to ns) holds the closer back.
	go func() {
		select {
		case r.queue <- ns:
		case <-r.ctx.Done():
			r.failShard(ns, context.Cause(r.ctx))
		}
	}()
}

// leaseShard performs one shard RPC against one worker: dispatch with
// bounded backpressure retries, then consume the result stream under the
// lease watchdog. It returns nil only after the worker's done trailer.
func (c *Coordinator) leaseShard(r *run, w string, s *shard) error {
	// The lease context is the revocation lever: cancelling it aborts the
	// in-flight request (tearing the stream down worker-side too), with
	// ErrLeaseRevoked attached as the cause so anything downstream
	// classifies as revoked rather than user cancellation. The deferred
	// cancel also guarantees the scanner goroutine can always exit.
	leaseCtx, revoke := context.WithCancelCause(r.ctx)
	defer revoke(nil)
	resp, err := c.dispatch(r, leaseCtx, w, s)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()

	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
		for sc.Scan() {
			line := string(sc.Bytes())
			select {
			case lines <- line:
			case <-leaseCtx.Done():
				scanErr <- context.Cause(leaseCtx)
				close(lines)
				return
			}
		}
		scanErr <- sc.Err()
		close(lines)
	}()

	watchdog := time.NewTimer(c.opts.LeaseTTL)
	defer watchdog.Stop()
	dec := c.decoder()
	defer c.releaseDecoder(dec)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				// Stream ended without a done trailer: the worker died or was
				// cut off mid-shard.
				err := <-scanErr
				if err == nil {
					err = io.ErrUnexpectedEOF
				}
				return fmt.Errorf("shard stream ended early: %w", err)
			}
			rec, err := decodeStreamRecord(dec, line)
			if err != nil {
				return fmt.Errorf("bad stream record: %w", err)
			}
			switch rec.Type {
			case TypeHeartbeat:
				// Liveness only; the watchdog reset below is its entire job.
			case TypeResult:
				r.emit(c.remoteResult(w, rec), rec.Digest)
			case TypeDegradedJournal:
				// The worker's journal segment stopped accepting writes. The
				// scan continues and the lease stays healthy; only worker-side
				// resume is lost, so mark the shard accordingly for any
				// future re-dispatch.
				s.noSegment = true
				c.opts.Logf("dist: worker %s journal segment for shard %s degraded (%s); shard resume unavailable, lease continues",
					w, s.id, rec.Err)
			case TypeDone:
				return nil
			}
			// Reset only after the record is fully processed: time spent
			// blocked in emit is consumer backpressure, not worker silence,
			// and must not count against the lease. The non-blocking drain
			// discards a watchdog that fired during the stall — the worker
			// already proved liveness by producing this line.
			if !watchdog.Stop() {
				select {
				case <-watchdog.C:
				default:
				}
			}
			watchdog.Reset(c.opts.LeaseTTL)
		case <-watchdog.C:
			// Lease expired: no heartbeat, no result, nothing — revoke.
			r.metrics.HeartbeatMissed()
			c.opts.Logf("dist: lease on shard %s (worker %s) expired after %v of silence; revoking",
				s.id, w, c.opts.LeaseTTL)
			revoke(configvalidator.ErrLeaseRevoked)
			return fmt.Errorf("lease expired: no heartbeat within %v: %w", c.opts.LeaseTTL, configvalidator.ErrLeaseRevoked)
		case <-r.ctx.Done():
			return context.Cause(r.ctx)
		}
	}
}

// decoder takes an idle stream decoder, or makes one.
func (c *Coordinator) decoder() *journal.Decoder {
	c.decMu.Lock()
	defer c.decMu.Unlock()
	if n := len(c.decoders); n > 0 {
		d := c.decoders[n-1]
		c.decoders = c.decoders[:n-1]
		return d
	}
	return new(journal.Decoder)
}

// releaseDecoder returns a stream decoder for the next lease.
func (c *Coordinator) releaseDecoder(d *journal.Decoder) {
	c.decMu.Lock()
	c.decoders = append(c.decoders, d)
	c.decMu.Unlock()
}

// remoteResult reconstructs a worker's streamed result as a FleetResult.
func (c *Coordinator) remoteResult(w string, rec StreamRecord) configvalidator.FleetResult {
	res := configvalidator.FleetResult{Entity: rec.Entity, Resumed: rec.Resumed, Worker: w}
	switch {
	case rec.Err != "":
		kind := rec.ErrKind
		if kind == "" {
			kind = configvalidator.ErrorKindPermanent
		}
		res.Err = &RemoteError{Worker: w, Kind: kind, Msg: rec.Err}
	case rec.Report != nil:
		res.Report = rec.Report.Report()
	default:
		res.Err = &RemoteError{Worker: w, Kind: configvalidator.ErrorKindPermanent, Msg: "result missing report"}
	}
	return res
}

// dispatch POSTs the shard to the worker, retrying in place while the
// worker sheds load (429/503 with Retry-After) or its journal segment is
// still held by a previous lease (409) — coordinator backpressure riding
// the worker's own admission control. Connection-level errors and other
// statuses return immediately as lease failures.
func (c *Coordinator) dispatch(r *run, leaseCtx context.Context, w string, s *shard) (*http.Response, error) {
	payload := s.payload()
	backoff := c.opts.ProbeBackoff
	for attempt := 0; ; attempt++ {
		u := fmt.Sprintf("%s/v1/shard/scan?shard=%s&heartbeat=%s&timeout=%s&retries=%d",
			w, url.QueryEscape(s.id),
			url.QueryEscape(c.opts.HeartbeatInterval.String()),
			url.QueryEscape(r.fopts.ScanTimeout.String()),
			r.fopts.Retries)
		if r.fopts.Target != "" {
			u += "&target=" + url.QueryEscape(r.fopts.Target)
		}
		if s.noSegment {
			u += "&segment=0"
		}
		req, err := http.NewRequestWithContext(leaseCtx, http.MethodPost, u, bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("build shard request: %w", err)
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := c.opts.HTTPClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("dispatch shard: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return resp, nil
		case http.StatusInsufficientStorage:
			// 507: the worker cannot open its journal segment (disk
			// pressure). The scan itself needs no segment — retry at once
			// with worker-side resume disabled, keeping the lease. A second
			// 507 means the worker rejects even segment-less work; fall
			// through to a lease failure then.
			_ = resp.Body.Close()
			if s.noSegment {
				return nil, fmt.Errorf("worker out of disk even without a journal segment: %s", resp.Status)
			}
			s.noSegment = true
			r.metrics.WorkerRPCRetry()
			c.opts.Logf("dist: worker %s cannot open journal segment for shard %s (disk pressure); retrying without worker-side resume",
				w, s.id)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusConflict:
			// 429/503: the worker is shedding load. 409: its journal segment
			// for this shard is still flock-held by a previous, revoked lease
			// whose request is tearing down; both heal with a bounded wait.
			_ = resp.Body.Close()
			if attempt >= dispatchRetries {
				return nil, fmt.Errorf("worker shedding load: %s after %d attempts", resp.Status, attempt+1)
			}
			r.metrics.WorkerRPCRetry()
			wait := retryAfterHint(resp, backoff)
			backoff = configvalidator.NextBackoff(c.opts.ProbeBackoff, backoff)
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-r.ctx.Done():
				timer.Stop()
				return nil, context.Cause(r.ctx)
			}
		default:
			snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			_ = resp.Body.Close()
			return nil, fmt.Errorf("worker rejected shard: %s: %s", resp.Status, bytes.TrimSpace(snippet))
		}
	}
}

// retryAfterHint honors a Retry-After header when present, falling back to
// the coordinator's own jittered backoff.
func retryAfterHint(resp *http.Response, fallback time.Duration) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return fallback
}

// probeWorker quarantines a failed worker: it re-enters the ready pool
// only after answering a /readyz probe, and is declared dead after
// ProbeLimit failed probes. The last death closes noWorkers, failing
// pending shards fast instead of queueing forever.
func (c *Coordinator) probeWorker(r *run, w string) {
	delay := c.opts.ProbeBackoff
	for i := 0; i < c.opts.ProbeLimit; i++ {
		timer := time.NewTimer(delay)
		select {
		case <-r.ctx.Done():
			timer.Stop()
			// Keep run-level accounting moving: a cancelled run still fails
			// pending shards via acquireWorker's ctx branch.
			return
		case <-timer.C:
		}
		if c.workerReady(r.ctx, w) {
			c.opts.Logf("dist: worker %s is ready again", w)
			r.ready <- w
			return
		}
		delay = configvalidator.NextBackoff(c.opts.ProbeBackoff, delay)
	}
	c.opts.Logf("dist: worker %s declared dead after %d failed probes", w, c.opts.ProbeLimit)
	if r.live.Add(-1) == 0 {
		close(r.noWorkers)
	}
}

// workerReady probes the worker's readiness endpoint.
func (c *Coordinator) workerReady(ctx context.Context, w string) bool {
	probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, w+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
