package configvalidator

// Benchmark harness regenerating the paper's evaluation (see DESIGN.md §4
// and EXPERIMENTS.md):
//
//	E2 / Table 2  — BenchmarkTable2_* : the same 40 CIS system-service
//	                rules under four engines (ConfigValidator/CVL,
//	                Inspec-observed script checks, OpenSCAP-style XCCDF,
//	                and the CIS-CAT variant with simulated init cost).
//	E5            — BenchmarkFleetScan* : production-scale image scanning.
//	E6            — BenchmarkComposite : Listing-1 cross-entity rule.
//	E8            — BenchmarkAblation* : design-choice ablations (E8a,
//	                natural format vs forced conversion, lives in
//	                internal/lens beside its conversion code).

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"configvalidator/internal/baseline"
	"configvalidator/internal/baseline/scriptcheck"
	"configvalidator/internal/baseline/xccdf"
	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/engine"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
	"configvalidator/internal/rules"
)

// table2Host is the Table-2 workload: one synthetic Ubuntu host carrying
// the system-service configuration the 40 common CIS rules inspect.
func table2Host() *entity.Mem {
	host, _ := fixtures.SystemHost("bench-host", fixtures.Profile{Seed: 1234, MisconfigRate: 0.2})
	return host
}

// cvl40Manifest returns the built-in manifest restricted to the system
// targets the 40-check workload covers (the full system-service rule set,
// 72 rules — a superset of the 40 common checks run through the manifest
// path).
func cvl40Manifest(b *testing.B) (*cvl.Manifest, cvl.FileReader) {
	b.Helper()
	systems := map[string]bool{"sshd": true, "sysctl": true, "audit": true, "fstab": true, "modprobe": true}
	full, err := rules.Manifest()
	if err != nil {
		b.Fatal(err)
	}
	sub := &cvl.Manifest{}
	for _, e := range full.Entries {
		if systems[e.Name] {
			sub.Entries = append(sub.Entries, e)
		}
	}
	return sub, rules.Reader()
}

// BenchmarkTable2_ConfigValidator measures the CVL engine on the Table-2
// workload (full system-service rule set, a superset of the 40 common
// checks — 72 rules; the per-rule cost is what the table compares).
func BenchmarkTable2_ConfigValidator(b *testing.B) {
	host := table2Host()
	manifest, reader := cvl40Manifest(b)
	eng := engine.New(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh source per iteration: the gated number covers rule
		// parsing as well as evaluation.
		if _, err := eng.Validate(host, manifest, engine.NewCachedSource(reader), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_ConfigValidator40 measures exactly the 40 common rules
// through the library's rule-list path.
func BenchmarkTable2_ConfigValidator40(b *testing.B) {
	host := table2Host()
	ruleList, paths := table2CVLRules(b)
	eng := engine.New(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ValidateRules(host, ruleList, paths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2_ConfigValidator40Serial is the 40-rule row at
// Parallelism 1, so every Table-2 engine can be compared single-threaded.
func BenchmarkTable2_ConfigValidator40Serial(b *testing.B) {
	host := table2Host()
	ruleList, paths := table2CVLRules(b)
	eng := engine.NewWithOptions(nil, engine.Options{Parallelism: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ValidateRules(host, ruleList, paths); err != nil {
			b.Fatal(err)
		}
	}
}

// table2CVLRules resolves the exact 40 built-in CVL rules referenced by
// the neutral specs plus the union of their search paths.
func table2CVLRules(b *testing.B) ([]*cvl.Rule, []string) {
	b.Helper()
	specs := baseline.CIS40()
	want := make(map[string]bool, len(specs))
	for _, s := range specs {
		want[s.CVLTarget+"/"+s.CVLRule] = true
	}
	var out []*cvl.Rule
	pathSet := map[string]bool{}
	for _, t := range rules.Targets() {
		rs, err := rules.Load(t.Name)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if want[t.Name+"/"+r.Name] {
				out = append(out, r)
				for _, p := range t.SearchPaths {
					pathSet[p] = true
				}
			}
		}
	}
	if len(out) != 40 {
		b.Fatalf("resolved %d CVL rules, want 40", len(out))
	}
	paths := make([]string, 0, len(pathSet))
	for p := range pathSet {
		paths = append(paths, p)
	}
	return out, paths
}

// BenchmarkTable2_ChefInspec measures the script-check (Inspec-observed)
// engine on the same 40 checks.
func BenchmarkTable2_ChefInspec(b *testing.B) {
	host := table2Host()
	checks := scriptcheck.FromSpecs(baseline.CIS40())
	eng := scriptcheck.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := eng.Run(host, checks)
		if len(out) != 40 {
			b.Fatal("short run")
		}
	}
}

// BenchmarkTable2_OpenSCAP measures the XCCDF/OVAL engine (document
// pre-loaded, as openscap does) on the same 40 checks.
func BenchmarkTable2_OpenSCAP(b *testing.B) {
	host := table2Host()
	eng := loadXCCDF(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := eng.Evaluate(host)
		if len(out) != 40 {
			b.Fatal("short run")
		}
	}
}

// BenchmarkTable2_CISCAT measures the CIS-CAT-style variant: the same
// XCCDF evaluation behind a simulated JVM/license initialization cost.
func BenchmarkTable2_CISCAT(b *testing.B) {
	host := table2Host()
	cc := xccdf.NewCISCAT(loadXCCDF(b), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := cc.Evaluate(host)
		if len(out) != 40 {
			b.Fatal("short run")
		}
	}
}

func loadXCCDF(b *testing.B) *xccdf.Engine {
	b.Helper()
	benchXML, ovalXML, err := xccdf.Generate("cis-ubuntu-40", baseline.CIS40())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := xccdf.Load(benchXML, ovalXML)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// --- E5: fleet scanning (production-scale claim) ---

func benchmarkFleetScan(b *testing.B, n int) {
	reg, _ := fixtures.Fleet(n, fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	v, err := New()
	if err != nil {
		b.Fatal(err)
	}
	refs := reg.Images()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		failed := 0
		for _, ref := range refs {
			img, err := reg.Pull(ref)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := v.Validate(img.Entity())
			if err != nil {
				b.Fatal(err)
			}
			failed += rep.Counts()[StatusFail]
		}
		if failed == 0 {
			b.Fatal("fleet with misconfigurations reported no failures")
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "images/s")
}

func BenchmarkFleetScan10(b *testing.B)  { benchmarkFleetScan(b, 10) }
func BenchmarkFleetScan100(b *testing.B) { benchmarkFleetScan(b, 100) }

// benchmarkFleetScanWarm measures the tuned configuration the fleet layer
// ships with: a shared content-addressed ParseCache (pre-warmed by one
// untimed pass, as in steady-state scanning where the fleet's distinct
// file payloads are already resident) and Parallelism=GOMAXPROCS. The
// cold serial BenchmarkFleetScan* above is the baseline; benchreport
// -diff gates the warm/cold ratio.
func benchmarkFleetScanWarm(b *testing.B, n int) {
	reg, _ := fixtures.Fleet(n, fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	v, err := New(WithParseCache(NewParseCache(0)), WithParallelism(0))
	if err != nil {
		b.Fatal(err)
	}
	refs := reg.Images()
	scan := func() {
		failed := 0
		for _, ref := range refs {
			img, err := reg.Pull(ref)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := v.Validate(img.Entity())
			if err != nil {
				b.Fatal(err)
			}
			failed += rep.Counts()[StatusFail]
		}
		if failed == 0 {
			b.Fatal("fleet with misconfigurations reported no failures")
		}
	}
	scan() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan()
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "images/s")
}

func BenchmarkFleetScanWarm10(b *testing.B)  { benchmarkFleetScanWarm(b, 10) }
func BenchmarkFleetScanWarm100(b *testing.B) { benchmarkFleetScanWarm(b, 100) }

// renamed is an entity scanned under another name.
type renamed struct {
	Entity
	name string
}

func (r renamed) Name() string { return r.name }

// BenchmarkFleetScanJournaled measures the warm fleet scan of
// benchmarkFleetScanWarm over 10 images through the journal's resume
// protocol, on a journal that never fsyncs. "miss" scans every image
// under a name the journal has not seen, so each scan runs in full and
// appends a record; the journal starts over, untimed, every 50 passes to
// bound its size. "replay" rescans the names one untimed pass journaled,
// so each scan stops at its resume check. Not gated by bench-check.
func BenchmarkFleetScanJournaled(b *testing.B) {
	reg, _ := fixtures.Fleet(10, fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	v, err := New(WithParseCache(NewParseCache(0)), WithParallelism(0))
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 50
	var imgs []Entity
	var fresh [rounds][]Entity
	for _, ref := range reg.Images() {
		img, err := reg.Pull(ref)
		if err != nil {
			b.Fatal(err)
		}
		imgs = append(imgs, img.Entity())
		for r := range fresh {
			fresh[r] = append(fresh[r], renamed{img.Entity(), fmt.Sprintf("%s#%d", ref, r)})
		}
	}
	open := func() *Journal {
		j, err := OpenJournal(filepath.Join(b.TempDir(), "fleet.cvj"), JournalOptions{SyncEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		return j
	}
	scan := func(j *Journal, ents []Entity, resumed bool) {
		for _, ent := range ents {
			res := v.scanJournaled(context.Background(), ent, FleetOptions{Journal: j})
			if res.Err != nil || res.Resumed != resumed {
				b.Fatalf("%s: err %v, resumed %v, want %v", ent.Name(), res.Err, res.Resumed, resumed)
			}
		}
	}
	b.Run("miss", func(b *testing.B) {
		j := open()
		scan(j, imgs, false) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%rounds == 0 {
				b.StopTimer()
				_ = j.Close()
				j = open()
				b.StartTimer()
			}
			scan(j, fresh[i%rounds], false)
		}
		b.StopTimer()
		_ = j.Close()
		b.ReportMetric(float64(len(imgs))/b.Elapsed().Seconds()*float64(b.N), "images/s")
	})
	b.Run("replay", func(b *testing.B) {
		j := open()
		scan(j, imgs, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan(j, imgs, true)
		}
		b.StopTimer()
		_ = j.Close()
		b.ReportMetric(float64(len(imgs))/b.Elapsed().Seconds()*float64(b.N), "images/s")
	})
}

// --- E6: composite rule evaluation (Listing 1) ---

func BenchmarkComposite(b *testing.B) {
	host, _ := fixtures.UbuntuHost("stack", fixtures.Profile{Seed: 5})
	files := map[string]string{
		"manifest.yaml": `
nginx:
  config_search_paths: [/etc/nginx]
  cvl_file: nginx.yaml
sysctl:
  config_search_paths: [/etc/sysctl.conf]
  cvl_file: sysctl.yaml
mysql:
  config_search_paths: [/etc/mysql]
  cvl_file: mysql.yaml
stack:
  cvl_file: composite.yaml
`,
		"nginx.yaml":  "config_name: listen\nconfig_path: [\"server\", \"http/server\"]\npreferred_value: [\"ssl\"]\npreferred_value_match: substr,any\n",
		"sysctl.yaml": "config_name: net/ipv4/ip_forward\nconfig_path: [\"\"]\npreferred_value: [\"0\"]\n",
		"mysql.yaml":  "config_name: ssl-ca\nconfig_path: [\"mysqld\"]\n",
		"composite.yaml": `composite_rule_name: stack_tls
composite_rule: mysql.ssl-ca.CONFIGPATH=[mysqld].VALUE == "/etc/mysql/cacert.pem" && sysctl.net.ipv4.ip_forward && nginx.listen
`,
	}
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(files["manifest.yaml"]))
	if err != nil {
		b.Fatal(err)
	}
	read := func(p string) ([]byte, error) { return []byte(files[p]), nil }
	eng := engine.New(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Validate(host, manifest, engine.NewCachedSource(read), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8b: frame-based vs live validation ---

func BenchmarkAblationLiveScan(b *testing.B) {
	host, _ := fixtures.UbuntuHost("live", fixtures.Profile{Seed: 77})
	v, err := New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Validate(host); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFrameScan(b *testing.B) {
	host, _ := fixtures.UbuntuHost("live", fixtures.Profile{Seed: 77})
	frame, err := frames.Capture(host, nil, time.Unix(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := frame.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	v, err := New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := frames.Read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Validate(back.Entity()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8c: normalization's share of scan cost ---

// BenchmarkAblationNormalizationOnly isolates the crawl+lens stage.
func BenchmarkAblationNormalizationOnly(b *testing.B) {
	host, _ := fixtures.UbuntuHost("norm", fixtures.Profile{Seed: 77})
	manifest, err := rules.Manifest()
	if err != nil {
		b.Fatal(err)
	}
	var paths []string
	for _, e := range manifest.EnabledEntries() {
		paths = append(paths, e.ConfigSearchPaths...)
	}
	c := crawler.New(nil, crawler.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		configs, err := c.CrawlPaths(host, paths)
		if err != nil {
			b.Fatal(err)
		}
		if len(configs) == 0 {
			b.Fatal("no configs")
		}
	}
}

// --- rule loading: what a one-shot run pays before its first scan ---

// BenchmarkResolveLibrary parses the built-in manifest and resolves every
// target's rule file through a fresh CachedSource, as New() followed by
// one Validate does for each host in a one-shot run.
func BenchmarkResolveLibrary(b *testing.B) {
	files := rules.Files()
	manifest := []byte(files["manifest.yaml"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cvl.ParseManifest("manifest.yaml", manifest)
		if err != nil {
			b.Fatal(err)
		}
		src := engine.NewCachedSource(rules.Reader())
		for _, e := range m.Entries {
			if _, err := src.Resolve(e.CVLFile); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConfigDigest measures the journal's resume check: one
// ConfigDigest of a fleet image and of an Ubuntu host under the built-in
// library, after a first digest has fingerprinted the rule files.
func BenchmarkConfigDigest(b *testing.B) {
	v, err := New()
	if err != nil {
		b.Fatal(err)
	}
	img, _ := fixtures.Image("app", "v1", fixtures.Profile{Seed: 1})
	host, _ := fixtures.UbuntuHost("host", fixtures.Profile{Seed: 1})
	for _, bc := range []struct {
		name string
		ent  Entity
	}{{"image", img.Entity()}, {"ubuntu-host", host}} {
		b.Run(bc.name, func(b *testing.B) {
			if _, err := v.ConfigDigest(bc.ent, ""); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.ConfigDigest(bc.ent, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro: Listing-6 encodings (E3 sanity; asserted in tests) ---

func BenchmarkRuleParseCVL(b *testing.B) {
	content := []byte(permitRootLoginCVL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cvl.ParseRuleFile("r.yaml", content); err != nil {
			b.Fatal(err)
		}
	}
}

const permitRootLoginCVL = `config_name: PermitRootLogin
tags: ["#security","#cis", "#cisubuntu14.04_5.2.8"]
config_path: [""]
config_description: "Enable root login."
file_context: ["sshd_config"]
preferred_value: [ "no" ]
preferred_value_match: substr,all
not_present_description: "PermitRootLogin is not present. It is enabled by default."
not_matched_preferred_value_description: "PermitRootLogin is present but it is enabled."
matched_description: "Root login is disabled."
`
