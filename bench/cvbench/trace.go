package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cv "configvalidator"
	"configvalidator/internal/entity"
	"configvalidator/internal/lens"
	"configvalidator/internal/pkgdb"
)

// maxPhaseSpans bounds the spans each phase keeps in memory for the spans
// file; the per-layer aggregates see every span regardless.
const maxPhaseSpans = 50_000

// percentileSpans are the span names whose individual durations are kept
// for percentiles; every other name keeps only totals.
var percentileSpans = map[string]bool{
	"validate": true, "render": true, "dist.rpc": true, "dist.ttfb": true, "server.shard_handler": true,
}

// tracer records spans at every layer boundary the benchmark can reach from
// outside the program: calls into the entity, the lenses and the rule-file
// reader, HTTP round trips and worker handlers, and the benchmark's own
// calls. A nil *tracer is an untraced run; wrappers then add nothing.
type tracer struct {
	// cur is the id of the delivery being scanned. Traced fleet runs use
	// one fleet worker and one entity in flight, so calls that do not know
	// their entity (lens parses, rule-file reads) belong to cur.
	cur atomic.Int64

	// lensParses and lensNs count every lens parse since the tracer was
	// made, across phases.
	lensParses, lensNs atomic.Int64

	mu         sync.Mutex
	spans      []spanRec
	phaseStart int // index in spans where the current phase began
	stats      map[string]*spanStat
}

type spanRec struct {
	name       string
	id         int64 // delivery id (trace id); -1 when not tied to one delivery
	start, end int64 // unix nanoseconds
}

// spanStat aggregates one span name: count, self time, bytes moved, and
// (for percentileSpans) each duration in microseconds.
type spanStat struct {
	n, selfNs, bytes int64
	durUs            []float64
}

func newTracer() *tracer { return &tracer{stats: make(map[string]*spanStat)} }

// record adds one span. self is the span's own time when callbacks into
// other layers ran inside it; pass -1 to use the whole interval.
func (t *tracer) record(name string, id, start, end, self, bytes int64) {
	if self < 0 {
		self = end - start
	}
	t.mu.Lock()
	st := t.stats[name]
	if st == nil {
		st = &spanStat{}
		t.stats[name] = st
	}
	st.n++
	st.selfNs += self
	st.bytes += bytes
	if percentileSpans[name] {
		st.durUs = append(st.durUs, float64(end-start)/1e3)
	}
	if len(t.spans)-t.phaseStart < maxPhaseSpans {
		t.spans = append(t.spans, spanRec{name: name, id: id, start: start, end: end})
	}
	t.mu.Unlock()
}

// phase ends the current phase and starts the next, returning the ended
// phase's aggregates. keep=false also drops its spans: warm-up and the
// gaps between measured phases stay out of the spans file. Nil-safe.
func (t *tracer) phase(keep bool) map[string]*spanStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	t.stats = make(map[string]*spanStat)
	if !keep {
		t.spans = t.spans[:t.phaseStart]
	}
	t.phaseStart = len(t.spans)
	return s
}

// spanOut is one line of the spans file. Parent is the index of the
// innermost span of the same delivery whose interval contains this one, or
// -1: the benchmark observes layer calls from outside, so nesting is
// reconstructed from time, which is exact in serial traced runs.
type spanOut struct {
	Name    string `json:"name"`
	Trace   int64  `json:"trace"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes every kept span to path as a JSON array, with times
// relative to the earliest span.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].id != spans[j].id {
			return spans[i].id < spans[j].id
		}
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	var epoch int64
	for i, s := range spans {
		if i == 0 || s.start < epoch {
			epoch = s.start
		}
	}
	out := make([]spanOut, len(spans))
	var open []int // indices of enclosing spans of the current delivery
	for i, s := range spans {
		if i > 0 && spans[i-1].id != s.id {
			open = open[:0]
		}
		for len(open) > 0 && spans[open[len(open)-1]].end < s.end {
			open = open[:len(open)-1]
		}
		parent := -1
		if len(open) > 0 && s.id >= 0 {
			parent = open[len(open)-1]
		}
		out[i] = spanOut{Name: s.name, Trace: s.id, Parent: parent, StartNs: s.start - epoch, EndNs: s.end - epoch}
		open = append(open, i)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// entityView hands a pool entity to the program under a delivery-unique
// name (the coordinator emits one result per name, and latency is matched
// by name). With a tracer it also times each data-access call.
type entityView struct {
	cv.Entity
	name string
	id   int64
	tr   *tracer
}

func (e *entityView) Name() string { return e.name }

func (e *entityView) ReadFile(path string) ([]byte, error) {
	if e.tr == nil {
		return e.Entity.ReadFile(path)
	}
	start := e.enter()
	data, err := e.Entity.ReadFile(path)
	e.tr.record("entity.ReadFile", e.id, start, now(), -1, int64(len(data)))
	return data, err
}

func (e *entityView) Stat(path string) (entity.FileInfo, error) {
	if e.tr == nil {
		return e.Entity.Stat(path)
	}
	start := e.enter()
	fi, err := e.Entity.Stat(path)
	e.tr.record("entity.Stat", e.id, start, now(), -1, 0)
	return fi, err
}

// Walk's own time excludes the callback, which runs crawler and lens code.
func (e *entityView) Walk(root string, fn func(entity.FileInfo) error) error {
	if e.tr == nil {
		return e.Entity.Walk(root, fn)
	}
	start := e.enter()
	var inner int64
	err := e.Entity.Walk(root, func(fi entity.FileInfo) error {
		t := now()
		err := fn(fi)
		inner += now() - t
		return err
	})
	end := now()
	e.tr.record("entity.Walk", e.id, start, end, end-start-inner, 0)
	return err
}

func (e *entityView) Packages() (*pkgdb.DB, error) {
	if e.tr == nil {
		return e.Entity.Packages()
	}
	start := e.enter()
	db, err := e.Entity.Packages()
	e.tr.record("entity.Packages", e.id, start, now(), -1, 0)
	return db, err
}

func (e *entityView) RunFeature(name string) (string, error) {
	if e.tr == nil {
		return e.Entity.RunFeature(name)
	}
	start := e.enter()
	out, err := e.Entity.RunFeature(name)
	e.tr.record("entity.RunFeature", e.id, start, now(), -1, int64(len(out)))
	return out, err
}

func (e *entityView) Features() []string {
	if e.tr == nil {
		return e.Entity.Features()
	}
	start := e.enter()
	fs := e.Entity.Features()
	e.tr.record("entity.Features", e.id, start, now(), -1, 0)
	return fs
}

func (e *entityView) enter() int64 {
	e.tr.cur.Store(e.id)
	return now()
}

func now() int64 { return time.Now().UnixNano() }

// lensEntry is one registration of lens.Default().
type lensEntry struct {
	l        lens.Lens
	patterns []string
}

// defaultLenses mirrors lens.Default(): the same lenses under the same
// patterns in the same order, so a registry built from it selects exactly
// what the default registry selects. TestLensSelectionMatchesDefault keeps
// the two in step.
func defaultLenses() []lensEntry {
	return []lensEntry{
		{lens.NewNginx(), []string{"nginx.conf", "*/nginx/*.conf", "*/sites-enabled/*", "*/sites-available/*", "*/conf.d/*.conf"}},
		{lens.NewApache(), []string{"apache2.conf", "httpd.conf", "*/apache2/*.conf"}},
		{lens.NewINI("mysql"), []string{"my.cnf", "mysqld.cnf", "*.cnf"}},
		{lens.NewHadoopXML(), []string{"core-site.xml", "hdfs-site.xml", "yarn-site.xml", "mapred-site.xml"}},
		{lens.NewSSHD(), []string{"sshd_config", "ssh_config"}},
		{lens.NewSysctl(), []string{"sysctl.conf", "*/sysctl.d/*.conf"}},
		{lens.NewFstab(), []string{"fstab"}},
		{lens.NewMounts(), []string{"mounts", "mtab"}},
		{lens.NewPasswd(), []string{"passwd"}},
		{lens.NewGroup(), []string{"group"}},
		{lens.NewAudit(), []string{"audit.rules", "*/audit/rules.d/*.rules"}},
		{lens.NewModprobe(), []string{"modprobe.conf", "*/modprobe.d/*.conf"}},
		{lens.NewHosts(), []string{"hosts"}},
		{lens.NewResolv(), []string{"resolv.conf"}},
		{lens.NewLimits(), []string{"limits.conf", "*/limits.d/*.conf"}},
		{lens.NewCrontab(), []string{"crontab", "*/cron.d/*"}},
		{lens.NewJSON("dockerdaemon"), []string{"daemon.json"}},
		{lens.NewJSON("json"), []string{"*.json"}},
		{lens.NewProperties(), []string{"*.properties"}},
		{lens.NewINI("ini"), []string{"*.ini"}},
		{lens.NewKeyValue("keyvalue", "="), []string{"*.conf"}},
	}
}

// timedLens times Parse calls; the parse cache calls Parse only on a miss.
type timedLens struct {
	lens.Lens
	span string
	tr   *tracer
}

func (l timedLens) Parse(path string, content []byte) (*lens.Result, error) {
	start := now()
	res, err := l.Lens.Parse(path, content)
	end := now()
	l.tr.record(l.span, l.tr.cur.Load(), start, end, -1, int64(len(content)))
	l.tr.lensParses.Add(1)
	l.tr.lensNs.Add(end - start)
	return res, err
}

// registry builds a lens registry equal to lens.Default() with every lens
// timed.
func (t *tracer) registry() *lens.Registry {
	r := lens.NewRegistry()
	for _, e := range defaultLenses() {
		r.Register(timedLens{Lens: e.l, span: "lens." + e.l.Name(), tr: t}, e.patterns...)
	}
	return r
}

// reader times rule-file reads, which a Validator makes once per rule file
// through its memoizing rule source.
func (t *tracer) reader(read cv.FileReader) cv.FileReader {
	if t == nil {
		return read
	}
	return func(path string) ([]byte, error) {
		start := now()
		data, err := read(path)
		t.record("cvl.read", t.cur.Load(), start, now(), -1, int64(len(data)))
		return data, err
	}
}

// transport times coordinator-to-worker shard RPCs: the whole exchange
// until the streamed body is closed (dist.rpc), the time to the response
// headers (dist.ttfb), bytes each way, and result records received.
type transport struct {
	base    http.RoundTripper
	tr      *tracer
	results atomic.Int64
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/shard/scan" {
		return resp, err
	}
	t.tr.record("dist.ttfb", -1, start, now(), -1, req.ContentLength)
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start}
	return resp, nil
}

// timedBody counts response bytes and the result records among the NDJSON
// stream lines (heartbeats and the done trailer are not results). The
// coordinator reads the body on one goroutine and may close it on another.
type timedBody struct {
	io.ReadCloser
	t      *transport
	start  int64
	n      atomic.Int64
	match  int // bytes of resultPrefix matched on the current line; -1: not a result line
	closed bool
}

var resultPrefix = []byte(`{"type":"result"`)

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	for _, c := range p[:n] {
		switch {
		case c == '\n':
			b.match = 0
		case b.match < 0 || b.match == len(resultPrefix):
		case c == resultPrefix[b.match]:
			b.match++
			if b.match == len(resultPrefix) {
				b.t.results.Add(1)
			}
		default:
			b.match = -1
		}
	}
	return n, err
}

func (b *timedBody) Close() error {
	if !b.closed {
		b.closed = true
		b.t.tr.record("dist.rpc", -1, b.start, now(), -1, b.n.Load())
	}
	return b.ReadCloser.Close()
}

// handler times each worker's shard-scan handler.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/shard/scan" {
			t.record("server.shard_handler", -1, start, now(), -1, 0)
		}
	})
}
