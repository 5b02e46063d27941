package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	cv "configvalidator"
	"configvalidator/internal/cvl"
	"configvalidator/internal/dist"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/rules"
	"configvalidator/internal/server"
)

func maxProcs() int { return runtime.GOMAXPROCS(0) }

// sizes are the pool sizes; tests shrink them.
type sizes struct {
	unique         int // distinct images in fleet-unique and dist-2w
	sharedDistinct int // distinct images behind fleet-shared
	shared         int // entities in fleet-shared
	hosts          int // hosts in cold-scan
}

var fullSizes = sizes{unique: 4096, sharedDistinct: 16, shared: 1024, hosts: 64}

// pool is a workload's input: deliveries cycle through ents, and ents[i]
// carries the content of distinct[payload[i]].
type pool struct {
	ents     []cv.Entity
	payload  []int
	distinct []cv.Entity
	ref      [][sha256.Size]byte // reference verdict digest per distinct payload
}

// ruleSpec is a manifest plus the rule files it names.
type ruleSpec struct {
	manifest string
	files    map[string]string
}

func (s ruleSpec) read(path string) ([]byte, error) {
	content, ok := s.files[path]
	if !ok {
		return nil, fmt.Errorf("no rule file %q", path)
	}
	return []byte(content), nil
}

// option parses the manifest, as a one-shot run does, and returns the
// WithManifest option over a reader timed by tr.
func (s ruleSpec) option(tr *tracer) (cv.Option, error) {
	m, err := cvl.ParseManifest("manifest.yaml", []byte(s.manifest))
	if err != nil {
		return nil, fmt.Errorf("parse manifest: %w", err)
	}
	return cv.WithManifest(m, tr.reader(s.read)), nil
}

// builtinSpec is the built-in rule library, the same one New() loads.
func builtinSpec() ruleSpec {
	files := rules.Files()
	return ruleSpec{manifest: files["manifest.yaml"], files: files}
}

// stackComposite is a Listing-1-style composite over existing nginx, mysql
// and sysctl rules of the built-in library.
const stackComposite = `composite_rule_name: stack_tls
composite_rule_description: "MySQL trusts the site CA and listens locally, IP forwarding is off, and nginx restricts TLS protocols."
composite_rule: mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && mysql.bind-address && sysctl.net.ipv4.ip_forward && nginx.ssl_protocols
matched_description: "The web/database stack is configured consistently."
not_matched_preferred_value_description: "At least one leg of the web/database stack is misconfigured."
`

// stackSpec is the built-in library plus the stack composite entry.
func stackSpec() ruleSpec {
	s := builtinSpec()
	s.manifest += "stack:\n  enabled: True\n  cvl_file: stack.yaml\n"
	s.files["stack.yaml"] = stackComposite
	return s
}

// program is one constructed instance of the system under test.
type program struct {
	// scan consumes entities until in closes and emits one result each,
	// closing the returned channel when done.
	scan func(ctx context.Context, in <-chan cv.Entity) <-chan cv.FleetResult
	// validator returns a Validator configured as the program scans with,
	// for direct timed Validate calls in traced runs.
	validator func() (*cv.Validator, error)
	// cache reads the parse-cache counters of the program's validators.
	cache func() cv.ParseCacheStats
	// coord reads the coordinator's telemetry and recv the result records
	// its traced transport received; both nil outside dist-2w.
	coord func() cv.MetricsSnapshot
	recv  func() int64
	close func()
}

// workload is one input set and the program configuration that consumes it.
type workload struct {
	name   string
	warmup time.Duration
	// inflight bounds the closed loop: entities handed to the program and
	// not yet rendered. traced runs of the fleet workloads use 1 so that
	// spans nest by time.
	inflight func(traced bool) int
	render   func(io.Writer, *cv.Report, cv.OutputOptions) error
	spec     func() ruleSpec
	makePool func(seed int64, sz sizes) (*pool, error)
	// start constructs the program under test, writing any files under
	// out; tr is nil in untraced runs, and traced selects the traced
	// configuration.
	start func(out string, tr *tracer, traced bool) (*program, error)
}

var workloads = []*workload{
	{
		name:     "fleet-unique",
		warmup:   2 * time.Second,
		inflight: fleetInflight,
		render:   cv.WriteText,
		spec:     builtinSpec,
		makePool: uniquePool,
		start:    startFleet,
	},
	{
		name:     "fleet-shared",
		warmup:   2 * time.Second,
		inflight: fleetInflight,
		render:   cv.WriteJSON,
		spec:     builtinSpec,
		makePool: sharedPool,
		start:    startFleet,
	},
	{
		name:     "cold-scan",
		warmup:   time.Second,
		inflight: func(bool) int { return 1 },
		render:   cv.WriteJSON,
		spec:     stackSpec,
		makePool: hostPool,
		start:    startCold,
	},
	{
		name:   "dist-2w",
		warmup: 2 * time.Second,
		// Two shards per worker keep both workers busy while the
		// coordinator packs the next shards.
		inflight: func(bool) int { return 2 * distWorkers * distShardSize },
		render:   cv.WriteText,
		spec:     builtinSpec,
		makePool: uniquePool,
		start:    startDist,
	},
}

func lookup(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// fleetInflight keeps a second entity ready for each fleet worker while the
// client renders the previous report.
func fleetInflight(traced bool) int {
	if traced {
		return 1
	}
	return 2 * maxProcs()
}

const misconfigRate = 0.3

// uniquePool is sz.unique distinct images: about two config files per image
// are unique to it, so the fleet's distinct parses outnumber the 4096-entry
// parse cache and it evicts on every pass.
func uniquePool(seed int64, sz sizes) (*pool, error) {
	imgs, err := images(sz.unique, seed)
	if err != nil {
		return nil, err
	}
	p := &pool{ents: imgs, distinct: imgs, payload: make([]int, len(imgs))}
	for i := range p.payload {
		p.payload[i] = i
	}
	return p, nil
}

// sharedPool is sz.shared entities drawn from sz.sharedDistinct images, so
// the parse cache and verdict memo hit on almost every file. Each entity is
// materialized on its own, as separately pulled images are; only their
// content repeats.
func sharedPool(seed int64, sz sizes) (*pool, error) {
	reg, _ := fixtures.Fleet(sz.sharedDistinct, fixtures.Profile{Seed: seed, MisconfigRate: misconfigRate})
	refs := reg.Images()
	p := &pool{}
	for _, ref := range refs {
		img, err := reg.Pull(ref)
		if err != nil {
			return nil, err
		}
		p.distinct = append(p.distinct, img.Entity())
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < sz.shared; i++ {
		k := rng.Intn(len(refs))
		img, err := reg.Pull(refs[k])
		if err != nil {
			return nil, err
		}
		p.ents = append(p.ents, img.Entity())
		p.payload = append(p.payload, k)
	}
	return p, nil
}

func images(n int, seed int64) ([]cv.Entity, error) {
	reg, _ := fixtures.Fleet(n, fixtures.Profile{Seed: seed, MisconfigRate: misconfigRate})
	var out []cv.Entity
	for _, ref := range reg.Images() {
		img, err := reg.Pull(ref)
		if err != nil {
			return nil, err
		}
		out = append(out, img.Entity())
	}
	return out, nil
}

// hostPool is sz.hosts full Ubuntu hosts carrying every Table-1 target.
func hostPool(seed int64, sz sizes) (*pool, error) {
	p := &pool{}
	for i := 0; i < sz.hosts; i++ {
		h, _ := fixtures.UbuntuHost(fmt.Sprintf("host-%02d", i), fixtures.Profile{
			Seed:          seed*7919 + int64(i),
			MisconfigRate: misconfigRate,
		})
		p.ents = append(p.ents, h)
		p.distinct = append(p.distinct, h)
		p.payload = append(p.payload, i)
	}
	return p, nil
}

// startFleet is the in-process fleet scan: one Validator with the default
// parse cache and serial intra-entity evaluation, fanned out over one
// fleet worker per CPU (one when traced).
func startFleet(_ string, tr *tracer, traced bool) (*program, error) {
	man, err := builtinSpec().option(tr)
	if err != nil {
		return nil, err
	}
	opts := []cv.Option{man, cv.WithParseCache(cv.NewParseCache(0)), cv.WithParallelism(1)}
	if tr != nil {
		opts = append(opts, cv.WithLensRegistry(tr.registry()))
	}
	v, err := cv.New(opts...)
	if err != nil {
		return nil, err
	}
	workers := maxProcs()
	if traced {
		workers = 1
	}
	return &program{
		scan: func(ctx context.Context, in <-chan cv.Entity) <-chan cv.FleetResult {
			return v.ValidateFleet(ctx, in, cv.FleetOptions{Workers: workers})
		},
		validator: func() (*cv.Validator, error) { return v, nil },
		cache:     v.ParseCacheStats,
		close:     func() {},
	}, nil
}

// startCold is the one-shot CLI/CI run: every entity gets a freshly parsed
// manifest and a fresh New() with default options, so rule files resolve
// on every scan and the default intra-entity parallel path runs.
func startCold(_ string, tr *tracer, _ bool) (*program, error) {
	spec := stackSpec()
	build := func() (*cv.Validator, error) {
		man, err := spec.option(tr)
		if err != nil {
			return nil, err
		}
		opts := []cv.Option{man}
		if tr != nil {
			opts = append(opts, cv.WithLensRegistry(tr.registry()))
		}
		return cv.New(opts...)
	}
	return &program{
		scan: func(ctx context.Context, in <-chan cv.Entity) <-chan cv.FleetResult {
			out := make(chan cv.FleetResult)
			go func() {
				defer close(out)
				for e := range in {
					res := cv.FleetResult{Entity: e.Name()}
					v, err := build()
					if err == nil {
						res.Report, err = v.Validate(e)
					}
					res.Err = err
					select {
					case out <- res:
					case <-ctx.Done():
						return
					}
				}
			}()
			return out
		},
		validator: build,
		cache:     func() cv.ParseCacheStats { return cv.ParseCacheStats{} },
		close:     func() {},
	}, nil
}

const (
	distWorkers   = 2
	distShardSize = 8 // dist.Options' default ShardSize
)

// segmentTTL is how long a worker journal segment may sit unwritten before
// the janitor deletes it. A segment is read again only when its shard is
// re-leased after a failure, which happens within the coordinator's lease
// TTL; deleting idle ones keeps a long run from leaving one file per shard
// on disk.
const segmentTTL = 2 * time.Second

// startDist is the distributed path: a coordinator with default options
// and two in-process HTTP workers. Each worker is server.New over a
// Validator configured as cvworker's flag defaults configure it, plus a
// journal directory so shard segments are written.
func startDist(out string, tr *tracer, _ bool) (_ *program, err error) {
	segDir, err := os.MkdirTemp(out, "segments-")
	if err != nil {
		return nil, fmt.Errorf("worker journal dir: %w", err)
	}
	var (
		srvs    []*httptest.Server
		workers []*cv.Validator
		urls    []string
	)
	stop := make(chan struct{})
	var janitor sync.WaitGroup
	closeAll := func() {
		close(stop)
		janitor.Wait()
		for _, s := range srvs {
			s.Close()
		}
		_ = os.RemoveAll(segDir) // segments are temporary files under the run's output directory
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	janitor.Add(1)
	go func() {
		defer janitor.Done()
		tick := time.NewTicker(segmentTTL / 2)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				pruneSegments(segDir)
			}
		}
	}()
	for i := 0; i < distWorkers; i++ {
		man, err := builtinSpec().option(tr)
		if err != nil {
			return nil, err
		}
		opts := []cv.Option{
			man,
			cv.WithTelemetry(cv.NewCollector()),
			cv.WithParallelism(0),
			cv.WithParseCache(cv.NewParseCache(cv.DefaultParseCacheSize)),
		}
		if tr != nil {
			opts = append(opts, cv.WithLensRegistry(tr.registry()))
		}
		wv, err := cv.New(opts...)
		if err != nil {
			return nil, err
		}
		s, err := server.New(wv)
		if err != nil {
			return nil, err
		}
		s.ShardJournalDir = filepath.Join(segDir, strconv.Itoa(i))
		if err := os.MkdirAll(s.ShardJournalDir, 0o755); err != nil {
			return nil, err
		}
		h := s.Handler()
		if tr != nil {
			h = tr.handler(h)
		}
		srv := httptest.NewServer(h)
		srvs = append(srvs, srv)
		workers = append(workers, wv)
		urls = append(urls, srv.URL)
	}
	man, err := builtinSpec().option(nil)
	if err != nil {
		return nil, err
	}
	coordV, err := cv.New(man, cv.WithTelemetry(cv.NewCollector()))
	if err != nil {
		return nil, err
	}
	var opts dist.Options
	recv := func() int64 { return 0 }
	if tr != nil {
		tp := &transport{base: http.DefaultTransport, tr: tr}
		opts.HTTPClient = &http.Client{Transport: tp}
		recv = tp.results.Load
	}
	coord := dist.NewCoordinator(urls, opts)
	return &program{
		recv: recv,
		scan: func(ctx context.Context, in <-chan cv.Entity) <-chan cv.FleetResult {
			return coordV.ValidateFleet(ctx, in, cv.FleetOptions{Scheduler: coord})
		},
		validator: func() (*cv.Validator, error) { return workers[0], nil },
		cache: func() cv.ParseCacheStats {
			var sum cv.ParseCacheStats
			for _, w := range workers {
				s := w.ParseCacheStats()
				sum.Hits += s.Hits
				sum.Misses += s.Misses
				sum.Evictions += s.Evictions
			}
			return sum
		},
		coord: coordV.Telemetry().Snapshot,
		close: closeAll,
	}, nil
}

// pruneSegments deletes worker journal segments idle for segmentTTL.
func pruneSegments(dir string) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*", "*.cvj")) // the pattern is well-formed
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && time.Since(fi.ModTime()) > segmentTTL {
			_ = os.Remove(p) // a segment already gone is fine
		}
	}
}
