package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	cv "configvalidator"
	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/frames"
	"configvalidator/internal/journal"
	"configvalidator/internal/lens"
)

// Probe sizes: direct timed calls run over the first probeEntities distinct
// payloads of the pool.
const (
	probeEntities = 64
	probeReps     = 5
)

// probedLenses are the lenses every workload's entities exercise; each
// gets a lens.<name>.us_per_parse metric.
var probedLenses = []string{"sshd", "sysctl", "nginx", "mysql", "fstab"}

// traceRun measures the per-layer metrics in four phases:
//
//  1. an untraced loop in the traced configuration (one fleet worker and
//     one entity in flight for the fleet workloads): the baseline for
//     trace.overhead_frac, and the runtime.* metrics;
//  2. the same loop with every wrapper installed: entity, lens, rule-file
//     reader, render and delivery spans, parse-cache counters, and on
//     dist-2w the coordinator's RPCs and the workers' shard handlers;
//  3. direct timed Validate calls on a validator configured as the
//     program's: engine.* and fleet.overhead_us_per_entity;
//  4. direct timed calls into cvl, the lenses, the crawler, ConfigDigest,
//     frames, the journal and the composite engine over a sample of the
//     pool, plus a short traced dist-2w run on the pool for the workloads
//     that do not run the distributed path themselves.
func traceRun(w *workload, cfg runConfig, p *pool, d *detail) (map[string]float64, error) {
	m := make(map[string]float64)
	tr := newTracer()
	loop := loopConfig{inflight: w.inflight(true), warmup: cfg.warmupFor(w), render: w.render}

	plain, err := w.start(cfg.out, nil, true)
	if err != nil {
		return nil, err
	}
	loop.measure = cfg.measure / 4
	rp := runLoop(plain, p, loop)
	plain.close()
	if rp.delivered == 0 {
		return nil, errors.New("untraced loop delivered no report")
	}
	runtimeMetrics(m, rp)

	traced, err := w.start(cfg.out, tr, true)
	if err != nil {
		return nil, err
	}
	loop.measure, loop.tr, loop.firstID = cfg.measure-loop.measure, tr, rp.nextID
	rt := runLoop(traced, p, loop)
	if rt.delivered == 0 {
		traced.close()
		return nil, errors.New("traced loop delivered no report")
	}
	m["trace.overhead_frac"] = 1 - rt.quiet().rate()/rp.quiet().rate()
	loopMetrics(m, rt)
	// Lens work is amortized over every report of the traced program, warm-up
	// included: once the parse cache holds a workload's files (fleet-shared)
	// no parse happens inside the window at all.
	m["lens.parses_per_entity"] = perEntity(float64(tr.lensParses.Load()), rt.results)
	m["lens.us_per_entity"] = perEntity(float64(tr.lensNs.Load())/1e3, rt.results)
	if traced.coord != nil {
		distMetrics(m, rt, traced)
	}

	tr.phase(false)
	direct, err := directValidate(traced, p, tr, rt.nextID, cfg.measure/10)
	traced.close()
	if err != nil {
		return nil, err
	}
	ds := tr.phase(true)
	engineMetrics(m, ds, rt.spans)

	if traced.coord == nil {
		if err := probeDist(m, cfg.out, p, tr, max(cfg.measure/10, 500*time.Millisecond)); err != nil {
			return nil, err
		}
	}
	if err := probeLayers(m, w.spec(), p, cfg.out); err != nil {
		return nil, err
	}
	if err := tr.writeSpans(filepath.Join(cfg.out, w.name+".spans.json")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	d.Result.Attempted = rp.attempted + rt.attempted + direct.attempted
	d.Result.Failed = rp.failed + rt.failed + direct.failed
	return m, nil
}

func runtimeMetrics(m map[string]float64, r loopResult) {
	u0, u1 := r.u0, r.u1
	m["runtime.gc_cpu_frac"] = 0
	if cpu := u1.totalCPU - u0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (u1.gcCPU - u0.gcCPU) / cpu
	}
	m["runtime.gc_cycles_per_kentity"] = perEntity(float64(u1.numGC-u0.numGC)*1000, r.delivered)
	m["runtime.alloc_bytes_per_entity"] = perEntity(float64(u1.allocBytes-u0.allocBytes), r.delivered)
}

// sum adds up the count and own time of the spans whose names start with
// prefix.
func sum(stats map[string]*spanStat, prefix string) (n, selfNs int64) {
	for name, st := range stats {
		if strings.HasPrefix(name, prefix) {
			n += st.n
			selfNs += st.selfNs
		}
	}
	return n, selfNs
}

func stat(stats map[string]*spanStat, name string) *spanStat {
	if st := stats[name]; st != nil {
		return st
	}
	return &spanStat{}
}

// loopMetrics derives the in-loop layer metrics of a traced loop.
func loopMetrics(m map[string]float64, r loopResult) {
	n := r.delivered
	calls, entityNs := sum(r.spans, "entity.")
	m["entity.calls_per_entity"] = perEntity(float64(calls), n)
	m["entity.read_bytes_per_entity"] = perEntity(float64(stat(r.spans, "entity.ReadFile").bytes), n)
	m["entity.us_per_entity"] = perEntity(float64(entityNs)/1e3, n)
	m["cvl.reads_per_entity"] = perEntity(float64(stat(r.spans, "cvl.read").n), n)
	c := r.cache
	m["crawler.cache_hit_ratio"] = 0
	if c.Hits+c.Misses > 0 {
		m["crawler.cache_hit_ratio"] = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	m["crawler.cache_evictions_per_entity"] = perEntity(float64(c.Evictions), n)
	m["output.render_us_p50"] = quantile(stat(r.spans, "render").durUs, 0.5)
	m["output.bytes_per_report"] = perEntity(float64(r.renderedB), n)
}

// distMetrics derives the coordinator and worker metrics of a traced
// dist-2w loop.
func distMetrics(m map[string]float64, r loopResult, prog *program) {
	rpc, ttfb := stat(r.spans, "dist.rpc"), stat(r.spans, "dist.ttfb")
	m["dist.rpc_ms_p50"] = quantile(rpc.durUs, 0.50) / 1e3
	m["dist.rpc_ms_p99"] = quantile(rpc.durUs, 0.99) / 1e3
	m["dist.ttfb_ms_p50"] = quantile(ttfb.durUs, 0.50) / 1e3
	m["dist.req_bytes_per_entity"] = perEntity(float64(ttfb.bytes), r.delivered)
	m["dist.resp_bytes_per_entity"] = perEntity(float64(rpc.bytes), r.delivered)
	m["server.shard_handler_ms_p50"] = quantile(stat(r.spans, "server.shard_handler").durUs, 0.5) / 1e3
	// Over the program's whole life: results the coordinator delivered per
	// result record the workers streamed (duplicates from re-leased shards
	// are the waste).
	m["dist.useful_frac"] = 0
	if recv := prog.recv(); recv > 0 {
		m["dist.useful_frac"] = float64(r.results) / float64(recv)
	}
	snap := prog.coord()
	m["dist.rpc_retries"] = float64(snap.WorkerRPCRetries)
	m["dist.lease_reassignments"] = float64(snap.LeaseReassignments)
}

// engineMetrics derives the engine and fleet metrics from the direct
// Validate phase (ds) and the traced loop (loop).
func engineMetrics(m map[string]float64, ds, loop map[string]*spanStat) {
	v := stat(ds, "validate")
	_, entityNs := sum(ds, "entity.")
	_, lensNs := sum(ds, "lens.")
	n := int(v.n)
	m["engine.validate_us_p50"] = quantile(v.durUs, 0.50)
	m["engine.validate_us_p99"] = quantile(v.durUs, 0.99)
	m["engine.self_us_per_entity"] = perEntity(float64(v.selfNs-entityNs-lensNs)/1e3, n)
	root, render := stat(loop, "delivery"), stat(loop, "render")
	m["fleet.overhead_us_per_entity"] = perEntity(float64(root.selfNs)/1e3, int(root.n)) -
		perEntity(float64(v.selfNs)/1e3, n) - perEntity(float64(render.selfNs)/1e3, int(render.n))
}

type directResult struct{ attempted, failed int }

// directValidate calls Validate directly for length d, continuing the
// pool cycle where the traced loop stopped; only the call is timed.
func directValidate(prog *program, p *pool, tr *tracer, firstID int64, d time.Duration) (directResult, error) {
	var r directResult
	dg := newDigester()
	deadline := time.Now().Add(d)
	for id := firstID; time.Now().Before(deadline); id++ {
		v, err := prog.validator()
		if err != nil {
			return r, err
		}
		src := p.ents[int(id%int64(len(p.ents)))]
		ent := &entityView{Entity: src, name: src.Name(), id: id, tr: tr}
		start := now()
		rep, err := v.Validate(ent)
		tr.record("validate", id, start, now(), -1, 0)
		r.attempted++
		if err != nil || dg.digest(rep) != p.ref[p.payload[int(id%int64(len(p.ents)))]] {
			r.failed++
		}
	}
	return r, nil
}

// sample is the probe pool: the first probeEntities distinct payloads,
// with their own built-in-library reference (dist workers run the
// built-in library whatever the workload's manifest).
func sample(p *pool) (*pool, error) {
	n := min(probeEntities, len(p.distinct))
	s := &pool{ents: p.distinct[:n], distinct: p.distinct[:n], payload: make([]int, n)}
	for i := range s.payload {
		s.payload[i] = i
	}
	man, err := builtinSpec().option(nil)
	if err != nil {
		return nil, err
	}
	s.ref, err = reference(s.distinct, man)
	return s, err
}

// probeDist runs a traced dist-2w loop of length d over the pool's sample,
// for workloads that do not take the distributed path themselves.
func probeDist(m map[string]float64, out string, p *pool, tr *tracer, d time.Duration) error {
	s, err := sample(p)
	if err != nil {
		return err
	}
	prog, err := startDist(out, tr, true)
	if err != nil {
		return err
	}
	defer prog.close()
	tr.phase(false)
	w, _ := lookup("dist-2w")
	r := runLoop(prog, s, loopConfig{inflight: w.inflight(true), warmup: d / 4, measure: d, render: w.render, tr: tr})
	if r.delivered == 0 || r.failed > 0 {
		return fmt.Errorf("dist probe: %d delivered, %d failed", r.delivered, r.failed)
	}
	distMetrics(m, r, prog)
	return nil
}

// probeLayers times direct calls into single layers over the pool's sample.
func probeLayers(m map[string]float64, spec ruleSpec, p *pool, out string) error {
	s := p.distinct[:min(probeEntities, len(p.distinct))]
	if err := probeRules(m, spec); err != nil {
		return err
	}
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(spec.manifest))
	if err != nil {
		return err
	}
	var roots []string
	for _, e := range manifest.EnabledEntries() {
		roots = append(roots, e.ConfigSearchPaths...)
	}
	if err := probeLenses(m, s, roots); err != nil {
		return err
	}
	c := crawler.New(nil, crawler.Options{})
	if m["crawler.crawl_us_per_entity"], err = timePer(s, func(e cv.Entity) error {
		_, err := c.CrawlPaths(e, roots)
		return err
	}); err != nil {
		return fmt.Errorf("crawl probe: %w", err)
	}
	plain, err := validatorFor(builtinSpec())
	if err != nil {
		return err
	}
	withStack, err := validatorFor(stackSpec())
	if err != nil {
		return err
	}
	if m["engine.composite_us_per_entity"], err = compositeCost(s, withStack, plain); err != nil {
		return err
	}
	if m["digest.us_per_entity"], err = timePer(s, func(e cv.Entity) error {
		_, err := plain.ConfigDigest(e, "")
		return err
	}); err != nil {
		return fmt.Errorf("digest probe: %w", err)
	}
	if err := probeFrames(m, s); err != nil {
		return err
	}
	return probeJournal(m, s, plain, out)
}

func validatorFor(spec ruleSpec) (*cv.Validator, error) {
	man, err := spec.option(nil)
	if err != nil {
		return nil, err
	}
	return cv.New(man, cv.WithParallelism(1))
}

// timePer returns the mean microseconds of fn over probeReps passes of s.
func timePer(s []cv.Entity, fn func(cv.Entity) error) (float64, error) {
	start := time.Now()
	for i := 0; i < probeReps; i++ {
		for _, e := range s {
			if err := fn(e); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(probeReps*len(s)), nil
}

// probeRules resolves every manifest entry's rule file with
// cvl.ResolveRules, the rule-load cost a fresh Validator pays.
func probeRules(m map[string]float64, spec ruleSpec) error {
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(spec.manifest))
	if err != nil {
		return err
	}
	var ms []float64
	rules := 0
	for i := 0; i < 4*probeReps; i++ {
		start := time.Now()
		rules = 0
		for _, e := range manifest.EnabledEntries() {
			rs, err := cvl.ResolveRules(spec.read, e.CVLFile)
			if err != nil {
				return fmt.Errorf("resolve %s: %w", e.CVLFile, err)
			}
			rules += len(rs)
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["cvl.resolve_ms"] = quantile(ms, 0.5)
	m["cvl.rules"] = float64(rules)
	return nil
}

// probeLenses parses every crawled file of the sample through the lens
// lens.Default() selects for it.
func probeLenses(m map[string]float64, s []cv.Entity, roots []string) error {
	reg := lens.Default()
	perLens := make(map[string][]float64)
	var all []float64
	for _, e := range s {
		for _, root := range roots {
			err := e.Walk(root, func(fi entity.FileInfo) error {
				l, ok := reg.ForFile(fi.Path)
				if fi.IsDir() || !ok {
					return nil
				}
				content, err := e.ReadFile(fi.Path)
				if err != nil {
					return err
				}
				for i := 0; i < probeReps; i++ {
					start := now()
					if _, err := l.Parse(fi.Path, content); err != nil {
						return err
					}
					us := float64(now()-start) / 1e3
					perLens[l.Name()] = append(perLens[l.Name()], us)
					all = append(all, us)
				}
				return nil
			})
			if err != nil && !errors.Is(err, entity.ErrNotExist) {
				return fmt.Errorf("lens probe on %s: %w", e.Name(), err)
			}
		}
	}
	m["lens.us_per_parse"] = mean(all)
	for _, name := range probedLenses {
		if len(perLens[name]) == 0 {
			return fmt.Errorf("lens probe: no %s file in the pool", name)
		}
		m["lens."+name+".us_per_parse"] = quantile(perLens[name], 0.5)
	}
	return nil
}

// compositeBudget is how long compositeCost keeps alternating scans: the
// composite costs microseconds against scans of hundreds, so only many
// repetitions separate it from timer and scheduling noise.
const compositeBudget = time.Second

// compositeCost is the extra Validate time the stack composite entry
// costs: per entity, the fastest scan with the entry minus the fastest
// without, over alternating rounds for at least compositeBudget and
// probeReps rounds, averaged over the sample.
func compositeCost(s []cv.Entity, with, without *cv.Validator) (float64, error) {
	bestWith := make([]float64, len(s))
	bestWithout := make([]float64, len(s))
	scan := func(v *cv.Validator, e cv.Entity, best *float64) error {
		start := now()
		if _, err := v.Validate(e); err != nil {
			return err
		}
		if us := float64(now()-start) / 1e3; *best == 0 || us < *best {
			*best = us
		}
		return nil
	}
	deadline := time.Now().Add(compositeBudget)
	for round := 0; round < probeReps || time.Now().Before(deadline); round++ {
		for i, e := range s {
			if err := scan(with, e, &bestWith[i]); err != nil {
				return 0, err
			}
			if err := scan(without, e, &bestWithout[i]); err != nil {
				return 0, err
			}
		}
	}
	var diffs []float64
	for i := range s {
		diffs = append(diffs, bestWith[i]-bestWithout[i])
	}
	return mean(diffs), nil
}

// probeFrames captures, encodes and decodes each sample entity.
func probeFrames(m map[string]float64, s []cv.Entity) error {
	var capture, encode, decode, size []float64
	stamp := time.Unix(0, 0)
	for i := 0; i < probeReps; i++ {
		for _, e := range s {
			t0 := now()
			f, err := frames.Capture(e, nil, stamp)
			if err != nil {
				return err
			}
			t1 := now()
			var buf bytes.Buffer
			if err := f.Write(&buf); err != nil {
				return err
			}
			t2 := now()
			if _, err := frames.Read(bytes.NewReader(buf.Bytes())); err != nil {
				return err
			}
			t3 := now()
			capture = append(capture, float64(t1-t0)/1e3)
			encode = append(encode, float64(t2-t1)/1e3)
			decode = append(decode, float64(t3-t2)/1e3)
			size = append(size, float64(buf.Len()))
		}
	}
	m["frames.capture_us"] = quantile(capture, 0.5)
	m["frames.encode_us"] = quantile(encode, 0.5)
	m["frames.decode_us"] = quantile(decode, 0.5)
	m["frames.bytes_per_entity"] = mean(size)
	return nil
}

// probeJournal appends each sample entity's result record to a fresh
// journal with default options (an fsync per record), as worker segments
// and fleet checkpoints do.
func probeJournal(m map[string]float64, s []cv.Entity, v *cv.Validator, out string) error {
	path := filepath.Join(out, fmt.Sprintf("probe-%d.cvj", os.Getpid()))
	_ = journal.Remove(path) // a leftover from a killed run; absence is fine
	j, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = journal.Remove(path) }() // the probe journal is temporary; a leftover is removed by the next run
	var recs []journal.Record
	for _, e := range s {
		rep, err := v.Validate(e)
		if err != nil {
			j.Close()
			return err
		}
		dig, err := v.ConfigDigest(e, "")
		if err != nil {
			j.Close()
			return err
		}
		recs = append(recs, journal.Record{Entity: e.Name(), Digest: dig, Report: journal.NewReportRecord(rep)})
	}
	info0, err := os.Stat(path)
	if err != nil {
		j.Close()
		return err
	}
	var us []float64
	for i := 0; i < probeReps; i++ {
		for _, rec := range recs {
			start := now()
			if err := j.Append(rec); err != nil {
				j.Close()
				return err
			}
			us = append(us, float64(now()-start)/1e3)
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	info1, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["journal.append_us_p50"] = quantile(us, 0.50)
	m["journal.append_us_p99"] = quantile(us, 0.99)
	m["journal.bytes_per_record"] = float64(info1.Size()-info0.Size()) / float64(len(us))
	return nil
}
