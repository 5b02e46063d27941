// Command cvbench is ConfigValidator's end-to-end benchmark. One process
// runs one workload: it generates the workload's entities from -seed,
// computes reference verdicts with a plain serial Validator, measures
// set-up time, then drives the program with a closed loop for -seconds
// after an untimed warm-up and checks every report against the reference.
// With -trace 1 it instead reports per-layer metrics from a traced run and
// writes the spans to <out>/<workload>.spans.json.
//
//	bash bench/run.sh -workload fleet-unique -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// same result with the environment and sample counts. Without -workload
// every workload runs, each in its own process. bench/README.md defines
// the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// metricDecl names one reported metric and its unit; BENCHMARK.json
// declares the same names and units (TestMetricsMatchBenchmarkJSON).
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"entities_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_entity", "ms"},
	{"allocs_per_entity", "count"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDecl{
	{"cvl.resolve_ms", "ms"},
	{"cvl.rules", "count"},
	{"cvl.reads_per_entity", "count"},
	{"entity.calls_per_entity", "count"},
	{"entity.read_bytes_per_entity", "B"},
	{"entity.us_per_entity", "us"},
	{"lens.parses_per_entity", "count"},
	{"lens.us_per_entity", "us"},
	{"lens.us_per_parse", "us"},
	{"lens.sshd.us_per_parse", "us"},
	{"lens.sysctl.us_per_parse", "us"},
	{"lens.nginx.us_per_parse", "us"},
	{"lens.mysql.us_per_parse", "us"},
	{"lens.fstab.us_per_parse", "us"},
	{"crawler.cache_hit_ratio", "ratio"},
	{"crawler.cache_evictions_per_entity", "count"},
	{"crawler.crawl_us_per_entity", "us"},
	{"engine.validate_us_p50", "us"},
	{"engine.validate_us_p99", "us"},
	{"engine.self_us_per_entity", "us"},
	{"engine.composite_us_per_entity", "us"},
	{"output.render_us_p50", "us"},
	{"output.bytes_per_report", "B"},
	{"fleet.overhead_us_per_entity", "us"},
	{"digest.us_per_entity", "us"},
	{"frames.capture_us", "us"},
	{"frames.encode_us", "us"},
	{"frames.decode_us", "us"},
	{"frames.bytes_per_entity", "B"},
	{"journal.append_us_p50", "us"},
	{"journal.append_us_p99", "us"},
	{"journal.bytes_per_record", "B"},
	{"dist.rpc_ms_p50", "ms"},
	{"dist.rpc_ms_p99", "ms"},
	{"dist.ttfb_ms_p50", "ms"},
	{"dist.req_bytes_per_entity", "B"},
	{"dist.resp_bytes_per_entity", "B"},
	{"dist.useful_frac", "ratio"},
	{"dist.rpc_retries", "count"},
	{"dist.lease_reassignments", "count"},
	{"server.shard_handler_ms_p50", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_kentity", "count"},
	{"runtime.alloc_bytes_per_entity", "B"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before it: the same outcome with its context.
type detail struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Seconds        float64        `json:"seconds"`
	Trace          bool           `json:"trace"`
	Env            map[string]any `json:"env"`
	LatencySamples int            `json:"latency_samples,omitempty"`
	ReferenceSum   string         `json:"reference_digest"`
	Problems       []string       `json:"problems,omitempty"`
	Result         outcome        `json:"result"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	measure time.Duration
	traced  bool
	out     string
	golden  string
	sizes   sizes
	// warmup overrides each workload's warm-up when positive (tests).
	warmup time.Duration
}

func (c runConfig) warmupFor(w *workload) time.Duration {
	if c.warmup > 0 {
		return c.warmup
	}
	return w.warmup
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload, one process each")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	out := fs.String("out", ".bench_build/out", "directory for spans files, result files and worker journals")
	goldenPath := fs.String("golden", "bench/golden.json", "reference digests pinned for the golden seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "cvbench: usage: cvbench [-workload name] [-seed n] [-seconds n] [-trace 0|1]")
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "cvbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		out:     *out,
		golden:  *goldenPath,
		sizes:   fullSizes,
	}
	d, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "cvbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(d)
	if err != nil {
		fmt.Fprintf(stderr, "cvbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(filepath.Join(cfg.out, w.name+".result.json"), line, 0o644); err != nil {
		fmt.Fprintf(stderr, "cvbench: %v\n", err)
		return 1
	}
	last, _ := json.Marshal(d.Result) // a map of plain structs cannot fail to marshal
	fmt.Fprintf(stdout, "%s\n%s\n", line, last)
	for _, p := range d.Problems {
		fmt.Fprintf(stderr, "cvbench: %s: %s\n", w.name, p)
	}
	if !d.Result.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own process, one after another.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cvbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "cvbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// runWorkload generates the pool, checks the reference against the golden
// file, and measures either the end-to-end or the per-layer metrics.
func runWorkload(w *workload, cfg runConfig) (*detail, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	p, err := w.makePool(cfg.seed, cfg.sizes)
	if err != nil {
		return nil, fmt.Errorf("generate pool: %w", err)
	}
	man, err := w.spec().option(nil)
	if err != nil {
		return nil, err
	}
	if p.ref, err = reference(p.distinct, man); err != nil {
		return nil, err
	}
	d := &detail{
		Workload:     w.name,
		Seed:         cfg.seed,
		Seconds:      cfg.measure.Seconds(),
		Trace:        cfg.traced,
		Env:          environment(),
		ReferenceSum: digestOfDigests(p.ref),
	}
	if cfg.sizes == fullSizes {
		g, err := readGolden(cfg.golden)
		if err != nil {
			return nil, err
		}
		if want, ok := g.Workloads[w.name]; ok && g.Seed == cfg.seed && want != d.ReferenceSum {
			d.Problems = append(d.Problems, fmt.Sprintf("reference digest %s differs from %s pinned in %s", d.ReferenceSum, want, cfg.golden))
		}
	}
	var values map[string]float64
	var decls []metricDecl
	if cfg.traced {
		decls = perLayer
		values, err = traceRun(w, cfg, p, d)
	} else {
		decls = endToEnd
		values, err = measureEndToEnd(w, cfg, p, d)
	}
	if err != nil {
		return nil, err
	}
	d.Result.Metrics = make(map[string]metric, len(decls))
	for _, m := range decls {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		d.Result.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if d.Result.Failed > 0 {
		d.Problems = append(d.Problems, fmt.Sprintf("%d of %d entities failed (scan error, wrong report or missing result)", d.Result.Failed, d.Result.Attempted))
	}
	if d.Result.Attempted == 0 {
		d.Problems = append(d.Problems, "no entity was handed to the program inside the window")
	}
	d.Result.Correct = len(d.Problems) == 0
	return d, nil
}

// measureEndToEnd is the untraced run: set-up trials, then the closed
// loop over the workload's own configuration.
func measureEndToEnd(w *workload, cfg runConfig, p *pool, d *detail) (map[string]float64, error) {
	setup, err := measureSetup(w, cfg.out, p)
	if err != nil {
		return nil, err
	}
	prog, err := w.start(cfg.out, nil, false)
	if err != nil {
		return nil, err
	}
	r := runLoop(prog, p, loopConfig{
		inflight: w.inflight(false),
		warmup:   cfg.warmupFor(w),
		measure:  cfg.measure,
		render:   w.render,
	})
	prog.close()
	if r.delivered == 0 {
		return nil, errors.New("no report was delivered inside the window")
	}
	d.Result.Attempted, d.Result.Failed = r.attempted, r.failed
	q := r.quiet()
	d.LatencySamples = len(q.latencyMs)
	return map[string]float64{
		"setup_s":           setup,
		"entities_per_s":    q.rate(),
		"latency_p50_ms":    quantile(q.latencyMs, 0.50),
		"latency_p99_ms":    quantile(q.latencyMs, 0.99),
		"cpu_ms_per_entity": perEntity(float64(q.cpu)/1e6, q.delivered),
		"allocs_per_entity": perEntity(float64(q.mallocs), q.delivered),
		"rss_peak_mb":       peakRSSMB(),
	}, nil
}
