package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cv "configvalidator"
)

// drainTimeout bounds how long a program may take to finish its in-flight
// entities after the feeder stops before the run cancels it.
const drainTimeout = 30 * time.Second

// sliceLen is the length of one window slice.
const sliceLen = time.Second

// fastestQuarter keeps the fastest quarter of xs (at least one) under the
// ordering less. Other tenants of a shared host slow a run down in streaks
// lasting seconds, never speed it up, so the least-disturbed quarter of a
// run repeats far better across runs than its whole-window average does;
// a change to the program still moves every slice and trial, including
// the fastest ones.
func fastestQuarter[T any](xs []T, less func(a, b T) bool) []T {
	kept := append([]T(nil), xs...)
	sort.SliceStable(kept, func(i, j int) bool { return less(kept[i], kept[j]) })
	return kept[:max(1, len(kept)/4)]
}

// loopConfig is one closed-loop run against a started program.
type loopConfig struct {
	inflight int
	warmup   time.Duration
	measure  time.Duration
	render   func(io.Writer, *cv.Report, cv.OutputOptions) error
	tr       *tracer // nil: untraced
	firstID  int64   // delivery ids continue across the loops of one run
}

// delivery is what a client goroutine saw for one result.
type delivery struct {
	id       int64
	acc, end int64 // unix ns: handed over; report rendered (or error seen)
	scanErr  bool
	wrong    bool // verdict digest differs from the reference
	rendered int
}

// slice is one sliceLen piece of the window: the reports rendered inside
// it, their latencies, and the process usage it took.
type slice struct {
	secs      float64
	delivered int
	cpu       time.Duration
	mallocs   uint64
	latencyMs []float64
}

func (s slice) rate() float64 { return float64(s.delivered) / s.secs }

// loopResult is everything measured inside the window.
type loopResult struct {
	delivered int // reports rendered inside the window
	attempted int // entities handed to the program inside the window
	failed    int // of those: scan errors, wrong reports, missing results
	renderedB int64
	slices    []slice
	u0, u1    usage // at the window's start and end
	nextID    int64
	results   int // results the clients received, warm-up and drain included
	cache     cv.ParseCacheStats
	spans     map[string]*spanStat // window aggregates of a traced loop
}

// quiet pools the fastest quarter of the window's slices.
func (r loopResult) quiet() slice {
	var q slice
	for _, s := range fastestQuarter(r.slices, func(a, b slice) bool { return a.rate() > b.rate() }) {
		q.secs += s.secs
		q.delivered += s.delivered
		q.cpu += s.cpu
		q.mallocs += s.mallocs
		q.latencyMs = append(q.latencyMs, s.latencyMs...)
	}
	return q
}

// handoff records when the program took each entity, for the client that
// renders its result.
type handoff struct {
	sent atomic.Int64 // ids below this were (or are being) handed over
	mu   sync.Mutex
	acc  map[int64]int64
}

// wait returns the hand-over time of id. The feeder records it right after
// the program takes the entity, which can trail the program's result by a
// scheduling delay, so wait yields until it appears.
func (h *handoff) wait(id int64) (int64, bool) {
	if id < 0 || id >= h.sent.Load() {
		return 0, false
	}
	for {
		h.mu.Lock()
		acc, ok := h.acc[id]
		delete(h.acc, id)
		h.mu.Unlock()
		if ok {
			return acc, true
		}
		runtime.Gosched()
	}
}

// runLoop drives the program with a closed loop: one feeder hands out pool
// entities while fewer than cfg.inflight are outstanding, and one client
// goroutine per CPU renders each report, checks its verdict digest and
// frees the slot. An entity counts as handed over when the program takes
// it from the channel; its latency runs from then to the end of rendering.
func runLoop(prog *program, p *pool, cfg loopConfig) loopResult {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := make(chan cv.Entity)
	results := prog.scan(ctx, in)
	slots := make(chan struct{}, cfg.inflight)
	stop := make(chan struct{})
	h := &handoff{acc: make(map[int64]int64)}
	h.sent.Store(cfg.firstID)

	var accepted []int64 // indexed by id-cfg.firstID; read only after the feeder exits
	feederDone := make(chan struct{})
	go func() {
		defer close(feederDone)
		defer close(in)
		for id := cfg.firstID; ; id++ {
			select {
			case slots <- struct{}{}:
			case <-stop:
				return
			}
			src := p.ents[int(id%int64(len(p.ents)))]
			ent := &entityView{Entity: src, name: src.Name() + "~" + strconv.FormatInt(id, 10), id: id, tr: cfg.tr}
			h.sent.Store(id + 1)
			select {
			case in <- ent:
			case <-stop:
				return
			}
			t := now()
			accepted = append(accepted, t)
			h.mu.Lock()
			h.acc[id] = t
			h.mu.Unlock()
		}
	}()

	clients := maxProcs()
	seen := make([][]delivery, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dg := newDigester()
			var buf bytes.Buffer
			for res := range results {
				seen[c] = append(seen[c], deliver(res, p, h, cfg, dg, &buf))
				<-slots
			}
		}(c)
	}

	// Usage is read at every slice boundary; ReadMemStats stops the world
	// for microseconds, once a second.
	cache0 := prog.cache()
	time.Sleep(cfg.warmup)
	cfg.tr.phase(false)
	type mark struct {
		t int64
		u usage
	}
	marks := []mark{{u: readUsage(), t: now()}}
	for end := marks[0].t + int64(cfg.measure); marks[len(marks)-1].t < end; {
		time.Sleep(time.Duration(min(marks[len(marks)-1].t+int64(sliceLen), end) - now()))
		marks = append(marks, mark{u: readUsage(), t: now()})
	}
	t0, t1 := marks[0].t, marks[len(marks)-1].t
	r := loopResult{u0: marks[0].u, u1: marks[len(marks)-1].u, spans: cfg.tr.phase(true)}
	cache1 := prog.cache()
	close(stop)
	<-feederDone
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		cancel()
		<-done
	}

	for i := 1; i < len(marks); i++ {
		r.slices = append(r.slices, slice{
			secs:    float64(marks[i].t-marks[i-1].t) / 1e9,
			cpu:     marks[i].u.cpu - marks[i-1].u.cpu,
			mallocs: marks[i].u.mallocs - marks[i-1].u.mallocs,
		})
	}
	r.nextID = cfg.firstID + int64(len(accepted))
	r.cache = cv.ParseCacheStats{
		Hits:      cache1.Hits - cache0.Hits,
		Misses:    cache1.Misses - cache0.Misses,
		Evictions: cache1.Evictions - cache0.Evictions,
	}
	inWindow := func(t int64) bool { return t >= t0 && t < t1 }
	answered := make([]bool, len(accepted))
	for _, ds := range seen {
		r.results += len(ds)
		for _, d := range ds {
			i := d.id - cfg.firstID
			if i < 0 || i >= int64(len(accepted)) {
				r.failed++ // a result for an entity that was never handed out
				continue
			}
			answered[i] = true
			if inWindow(d.acc) && (d.scanErr || d.wrong) {
				r.failed++
			}
			if !d.scanErr && inWindow(d.end) {
				// marks[k-1].t <= d.end < marks[k].t puts it in slice k-1.
				k := sort.Search(len(marks), func(k int) bool { return marks[k].t > d.end })
				s := &r.slices[k-1]
				s.delivered++
				s.latencyMs = append(s.latencyMs, float64(d.end-d.acc)/1e6)
				r.delivered++
				r.renderedB += int64(d.rendered)
			}
		}
	}
	for i, acc := range accepted {
		if inWindow(acc) {
			r.attempted++
			if !answered[i] {
				r.failed++
			}
		}
	}
	return r
}

// deliver renders one result and checks it against the reference.
func deliver(res cv.FleetResult, p *pool, h *handoff, cfg loopConfig, dg *digester, buf *bytes.Buffer) delivery {
	d := delivery{id: parseID(res.Entity)}
	acc, ok := h.wait(d.id)
	if !ok {
		d.id = -1
		return d
	}
	d.acc = acc
	if res.Err != nil || res.Report == nil {
		d.scanErr = true
		d.end = now()
		return d
	}
	buf.Reset()
	start := now()
	if err := cfg.render(buf, res.Report, cv.OutputOptions{}); err != nil {
		d.scanErr = true
	}
	d.end = now()
	d.rendered = buf.Len()
	if cfg.tr != nil {
		cfg.tr.record("render", d.id, start, d.end, -1, int64(buf.Len()))
		cfg.tr.record("delivery", d.id, d.acc, d.end, -1, 0)
	}
	if dg.digest(res.Report) != p.ref[p.payload[int(d.id%int64(len(p.ents)))]] {
		d.wrong = true
	}
	return d
}

// parseID recovers the delivery id from an entityView name.
func parseID(name string) int64 {
	i := strings.LastIndexByte(name, '~')
	if i < 0 {
		return -1
	}
	id, err := strconv.ParseInt(name[i+1:], 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// setupTrials is how many cold constructions setup_s draws on.
const setupTrials = 31

// measureSetup times cold constructions of the program: from the first
// call into the program to the first rendered report, with the report
// checked against the reference. Each trial starts from a collected heap
// so that it does not pay for the previous trial's garbage. It returns the
// median of the fastest quarter of the trials, in seconds.
func measureSetup(w *workload, out string, p *pool) (float64, error) {
	var secs []float64
	d := newDigester()
	for i := 0; i < setupTrials; i++ {
		runtime.GC()
		start := time.Now()
		prog, err := w.start(out, nil, false)
		if err != nil {
			return 0, err
		}
		in := make(chan cv.Entity, 1)
		in <- &entityView{Entity: p.ents[0], name: p.ents[0].Name() + "~0"}
		close(in)
		results := prog.scan(context.Background(), in)
		res := <-results
		rep, scanErr := res.Report, res.Err
		if scanErr == nil && rep != nil {
			scanErr = w.render(io.Discard, rep, cv.OutputOptions{})
		}
		secs = append(secs, time.Since(start).Seconds())
		for range results {
		}
		prog.close()
		if scanErr != nil || rep == nil {
			return 0, fmt.Errorf("setup trial %d: no report: %v", i, scanErr)
		}
		if d.digest(rep) != p.ref[p.payload[0]] {
			return 0, fmt.Errorf("setup trial %d: report differs from the reference", i)
		}
	}
	return quantile(fastestQuarter(secs, func(a, b float64) bool { return a < b }), 0.5), nil
}
