package configvalidator

import (
	"bytes"
	"context"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
	"configvalidator/internal/lens"
	"configvalidator/internal/pkgdb"
	"configvalidator/internal/rules"
)

// permitRootLogin is a rule that passes when sshd_config's PermitRootLogin
// is want.
func permitRootLogin(want string) string {
	return "config_name: PermitRootLogin\nconfig_path: [\"\"]\nfile_context: [sshd_config]\npreferred_value: [\"" + want + "\"]\n"
}

// TestJournalResumeSeesRuleChainEdits pins that an entity digest covers
// the whole parent_cvl_file chain its rule file resolves through: after
// an edit to the parent or grandparent rule file, a journaled fleet run
// re-scans the entity and reports the new verdict instead of replaying
// the stale one.
func TestJournalResumeSeesRuleChainEdits(t *testing.T) {
	host := entity.NewMem("h", entity.TypeHost)
	host.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin yes\n"))
	for _, tc := range []struct {
		name   string
		files  map[string]string
		edited string
	}{
		{"parent", map[string]string{
			"child.yaml":  "parent_cvl_file: parent.yaml\n",
			"parent.yaml": permitRootLogin("no"),
		}, "parent.yaml"},
		{"grandparent", map[string]string{
			"child.yaml":  "parent_cvl_file: parent.yaml\n",
			"parent.yaml": "parent_cvl_file: grand.yaml\n",
			"grand.yaml":  permitRootLogin("no"),
		}, "grand.yaml"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := tc.files
			files["m.yaml"] = "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: child.yaml\n"
			path := filepath.Join(t.TempDir(), "fleet.cvj")
			run := func() FleetResult { return journaledScan(t, path, files, host) }
			if first := run(); first.Report.Results[0].Status != StatusFail {
				t.Fatalf("before the edit: %v, want FAIL", first.Report.Results[0].Status)
			}
			files[tc.edited] = strings.Replace(files[tc.edited], `["no"]`, `["yes"]`, 1)
			second := run()
			if second.Resumed {
				t.Errorf("resumed a journaled result after %s changed", tc.edited)
			}
			if got := second.Report.Results[0].Status; got != StatusPass {
				t.Errorf("after editing %s: %v, want PASS", tc.edited, got)
			}
		})
	}
}

// journaledScan runs a one-entity fleet over the journal at path, with
// the manifest m.yaml and the rule files in files, and returns the one
// result, which must hold one rule verdict.
func journaledScan(t *testing.T, path string, files map[string]string, ent Entity) FleetResult {
	t.Helper()
	m, err := cvl.ParseManifest("m.yaml", []byte(files["m.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(p string) ([]byte, error) { return []byte(files[p]), nil }
	v, err := New(WithManifest(m, read))
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ch := make(chan Entity, 1)
	ch <- ent
	close(ch)
	var out []FleetResult
	for res := range v.ValidateFleet(context.Background(), ch, FleetOptions{Workers: 1, Journal: j}) {
		out = append(out, res)
	}
	if len(out) != 1 || out[0].Err != nil || len(out[0].Report.Results) != 1 {
		t.Fatalf("fleet results = %+v", out)
	}
	return out[0]
}

// TestJournalResumeSeesPathRuleTargets pins that an entity digest covers
// what a path rule checks of a target no search path walk reaches — a
// file outside the search paths, or a search path's own directory: after
// the target's mode, owner or existence changes, a journaled fleet run
// re-scans the entity and reports the new verdict instead of replaying
// the stale one.
func TestJournalResumeSeesPathRuleTargets(t *testing.T) {
	const shadowRule = "path_name: /etc/shadow\nownership: \"0:42\"\nmax_permission: 640\n"
	shadow := []byte("root:*:19000:0:99999:7:::\n")
	for _, tc := range []struct {
		name, rule string
		edit       func(*entity.Mem)
	}{
		{"mode", shadowRule, func(h *entity.Mem) {
			h.AddFile("/etc/shadow", shadow, entity.WithMode(0o666), entity.WithOwner(0, 42))
		}},
		{"owner", shadowRule, func(h *entity.Mem) {
			h.AddFile("/etc/shadow", shadow, entity.WithMode(0o640), entity.WithOwner(1000, 42))
		}},
		{"removed", shadowRule, func(h *entity.Mem) { h.RemoveFile("/etc/shadow") }},
		{"search root", "path_name: /etc/ssh\nmax_permission: 755\n", func(h *entity.Mem) {
			h.AddDir("/etc/ssh", entity.WithMode(0o777))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"m.yaml":    "shadow:\n  config_search_paths: [/etc/ssh]\n  cvl_file: rule.yaml\n",
				"rule.yaml": tc.rule,
			}
			host := entity.NewMem("h", entity.TypeHost)
			host.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"))
			host.AddFile("/etc/shadow", shadow, entity.WithMode(0o640), entity.WithOwner(0, 42))
			path := filepath.Join(t.TempDir(), "fleet.cvj")
			if first := journaledScan(t, path, files, host); first.Report.Results[0].Status != StatusPass {
				t.Fatalf("before the change: %v, want PASS", first.Report.Results[0].Status)
			}
			tc.edit(host)
			second := journaledScan(t, path, files, host)
			if second.Resumed {
				t.Errorf("resumed a journaled result after the %s change", tc.name)
			}
			if got := second.Report.Results[0].Status; got != StatusFail {
				t.Errorf("after the %s change: %v, want FAIL", tc.name, got)
			}
		})
	}
}

// TestConfigDigestPinned pins the cvdigest/2 digest of a built-in-library
// scan. A change to these values is a format change: every journal
// written before it re-scans each entity once, then replays again.
func TestConfigDigestPinned(t *testing.T) {
	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("pinned", fixtures.Profile{Seed: 3, MisconfigRate: 0.4})
	for _, tc := range []struct{ target, want string }{
		{"", "98826591ce9e4129a588ebb188a262eb5b66228ae601327bb0c1870b25ecf5f8"},
		{"sshd", "471072051a73a4c82a1ebf100f4f0469c4d3a16953ba5ac334f43b19d2f84e26"},
	} {
		got, err := v.ConfigDigest(host, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("ConfigDigest(target %q) = %s, want %s", tc.target, got, tc.want)
		}
	}
}

// recorder is an entity that logs each call a scan or a digest makes to
// read it: Type, Walk, ReadFile, Stat and RunFeature, with the argument.
// It counts each call in n, and once sealed it also lists every call in
// late.
type recorder struct {
	Entity
	mu     sync.Mutex
	calls  map[string]bool
	n      map[string]int
	sealed bool
	late   []string
}

func record(e Entity) *recorder {
	return &recorder{Entity: e, calls: make(map[string]bool), n: make(map[string]int)}
}

func (r *recorder) log(call string) {
	r.mu.Lock()
	r.calls[call] = true
	r.n[call]++
	if r.sealed {
		r.late = append(r.late, call)
	}
	r.mu.Unlock()
}

// RecordCalls wraps e in a recorder for the external test package: it
// returns the wrapped entity and a function that copies the count of each
// call made of it so far.
func RecordCalls(e Entity) (Entity, func() map[string]int) {
	r := record(e)
	return r, func() map[string]int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return maps.Clone(r.n)
	}
}

func (r *recorder) seal() {
	r.mu.Lock()
	r.sealed = true
	r.mu.Unlock()
}

func (r *recorder) Type() entity.Type { r.log("Type"); return r.Entity.Type() }

func (r *recorder) Walk(root string, fn func(entity.FileInfo) error) error {
	r.log("Walk " + root)
	return r.Entity.Walk(root, fn)
}

func (r *recorder) ReadFile(path string) ([]byte, error) {
	r.log("ReadFile " + path)
	return r.Entity.ReadFile(path)
}

func (r *recorder) Stat(path string) (entity.FileInfo, error) {
	r.log("Stat " + path)
	return r.Entity.Stat(path)
}

func (r *recorder) RunFeature(name string) (string, error) {
	r.log("RunFeature " + name)
	return r.Entity.RunFeature(name)
}

// TestConfigDigestReadsWhatScansRead pins ConfigDigest's promise from the
// reading side: every call a scan makes to read an entity, the digest of
// the same selection makes too, with the same argument, so no input of a
// verdict escapes the digest. A frame captured from the entity digests
// like the entity, which is what lets a coordinator that digests the
// frames it ships share a journal with a local run. It covers both rule
// libraries, every kind of entity, and the whole manifest as well as each
// single target.
func TestConfigDigestReadsWhatScansRead(t *testing.T) {
	// Each kind builds its entity with rec wrapped around the backend, so
	// the plugin host records what its plugins read.
	kinds := []struct {
		name  string
		build func(t *testing.T, seed int64, rec func(Entity) Entity) Entity
	}{
		{"ubuntu host", func(t *testing.T, seed int64, rec func(Entity) Entity) Entity {
			return rec(ubuntuHost(seed))
		}},
		{"system host", func(t *testing.T, seed int64, rec func(Entity) Entity) Entity {
			h, _ := fixtures.SystemHost("h", fixtures.Profile{Seed: seed, MisconfigRate: 0.5})
			return rec(h)
		}},
		{"image", func(t *testing.T, seed int64, rec func(Entity) Entity) Entity {
			img, _ := fixtures.Image("app", "v1", fixtures.Profile{Seed: seed, MisconfigRate: 0.5})
			return rec(img.Entity())
		}},
		{"container", func(t *testing.T, seed int64, rec func(Entity) Entity) Entity {
			img, _ := fixtures.Image("app", "v1", fixtures.Profile{Seed: seed, MisconfigRate: 0.5})
			return rec(newRunningContainer(t, img).Entity())
		}},
		{"plugin host", func(t *testing.T, seed int64, rec func(Entity) Entity) Entity {
			// A host directory answers no feature itself: its plugins
			// derive mysql.ssl and sysctl.runtime from its files.
			dir := t.TempDir()
			h := ubuntuHost(seed)
			for _, p := range h.Files() {
				data, _ := h.ReadFile(p)
				fi, _ := h.Stat(p)
				if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(p)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, p), data, fi.Mode.Perm()); err != nil {
					t.Fatal(err)
				}
			}
			return WithRuntimePlugins(rec(entity.NewOSDir("h", entity.TypeHost, dir)))
		}},
		{"frame", func(t *testing.T, seed int64, rec func(Entity) Entity) Entity {
			frame, err := frames.Capture(ubuntuHost(seed), nil, time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := frame.Write(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := frames.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return rec(back.Entity())
		}},
	}
	for _, lib := range []struct {
		name string
		opts []Option
	}{{"builtin", nil}, {"extended", []Option{WithExtendedRules()}}} {
		v, err := New(lib.opts...)
		if err != nil {
			t.Fatal(err)
		}
		targets := []string{""}
		for _, entry := range v.manifest.Entries {
			targets = append(targets, entry.Name)
		}
		for _, kind := range kinds {
			for seed := int64(1); seed <= 2; seed++ {
				for _, target := range targets {
					var scan, digest *recorder
					ent := kind.build(t, seed, func(e Entity) Entity { scan = record(e); return scan })
					if target == "" {
						_, err = v.Validate(ent)
					} else {
						_, err = v.ValidateTarget(ent, target)
					}
					if err != nil {
						t.Fatal(err)
					}
					ent = kind.build(t, seed, func(e Entity) Entity { digest = record(e); return digest })
					want, err := v.ConfigDigest(ent, target)
					if err != nil {
						t.Fatal(err)
					}
					var missed []string
					for call := range scan.calls {
						if !digest.calls[call] {
							missed = append(missed, call)
						}
					}
					if len(missed) > 0 {
						slices.Sort(missed)
						t.Errorf("%s library, %s seed %d, target %q: the scan made %d calls the digest did not: %s",
							lib.name, kind.name, seed, target, len(missed), strings.Join(missed, "; "))
					}
					frame, err := frames.Capture(ent, nil, time.Now())
					if err != nil {
						t.Fatal(err)
					}
					if got, err := v.ConfigDigest(frame.Entity(), target); err != nil || got != want {
						t.Errorf("%s library, %s seed %d, target %q: its frame digests to %s (%v), the entity to %s",
							lib.name, kind.name, seed, target, got, err, want)
					}
				}
			}
		}
	}
}

// ubuntuHost is the half-misconfigured UbuntuHost of a seed.
func ubuntuHost(seed int64) *entity.Mem {
	h, _ := fixtures.UbuntuHost("h", fixtures.Profile{Seed: seed, MisconfigRate: 0.5})
	return h
}

// builtinRule returns the source of one rule of the built-in library: the
// document of a rule file that defines name.
func builtinRule(t *testing.T, file, name string) string {
	t.Helper()
	for _, doc := range strings.Split(rules.Files()[file], "\n---\n") {
		if strings.Contains(doc, "_name: "+name+"\n") {
			return doc
		}
	}
	t.Fatalf("%s defines no rule %s", file, name)
	return ""
}

// TestJournalResumeSeesFeatureOutputs pins that an entity digest covers
// the output of each runtime feature a script rule judges: after a
// rebuilt image drops its USER and HEALTHCHECK, or a host's MySQL stops
// reporting SSL, a journaled fleet run re-scans the entity and reports the
// new verdict instead of replaying the stale PASS.
func TestJournalResumeSeesFeatureOutputs(t *testing.T) {
	img, _ := fixtures.Image("app", "v1", fixtures.Profile{Seed: 1})
	rebuilt := *img
	rebuilt.Config.User, rebuilt.Config.Healthcheck = "", ""
	before, after := ubuntuHost(1), ubuntuHost(1)
	before.SetFeature("mysql.ssl", "have_ssl YES\n")
	after.SetFeature("mysql.ssl", "have_ssl DISABLED\n")
	for _, tc := range []struct {
		rule, file, searchPath string
		before, after          Entity
	}{
		{"image_user_not_root", "component_configs/docker.yaml", "/etc/docker", img.Entity(), rebuilt.Entity()},
		{"image_healthcheck_present", "component_configs/docker.yaml", "/etc/docker", img.Entity(), rebuilt.Entity()},
		{"mysql_ssl_enabled", "component_configs/mysql.yaml", "/etc/mysql", before, after},
	} {
		t.Run(tc.rule, func(t *testing.T) {
			files := map[string]string{
				"m.yaml":    "e:\n  config_search_paths: [" + tc.searchPath + "]\n  cvl_file: rule.yaml\n",
				"rule.yaml": builtinRule(t, tc.file, tc.rule),
			}
			path := filepath.Join(t.TempDir(), "fleet.cvj")
			if first := journaledScan(t, path, files, tc.before); first.Report.Results[0].Status != StatusPass {
				t.Fatalf("before the change: %v, want PASS", first.Report.Results[0].Status)
			}
			second := journaledScan(t, path, files, tc.after)
			if second.Resumed {
				t.Errorf("resumed a journaled result after the feature output changed")
			}
			if got := second.Report.Results[0].Status; got != StatusFail {
				t.Errorf("after the change: %v, want FAIL", got)
			}
		})
	}
}

// TestJournalResumeSeesEntityType pins that an entity digest covers the
// entity type: the same name and files scanned as another type re-scan
// and report that type.
func TestJournalResumeSeesEntityType(t *testing.T) {
	files := map[string]string{
		"m.yaml":    "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: rule.yaml\n",
		"rule.yaml": permitRootLogin("no"),
	}
	as := func(typ entity.Type) Entity {
		e := entity.NewMem("h", typ)
		e.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"))
		return e
	}
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	if first := journaledScan(t, path, files, as(entity.TypeHost)); first.Report.EntityType != "host" {
		t.Fatalf("first scan typed %q, want host", first.Report.EntityType)
	}
	second := journaledScan(t, path, files, as(entity.TypeImage))
	if second.Resumed {
		t.Error("resumed a journaled result after the entity type changed")
	}
	if second.Report.EntityType != "image" {
		t.Errorf("after the type change: %q, want image", second.Report.EntityType)
	}
}

// TestJournalReplaysChangesScansCannotSee pins the other side of the
// digest: a change no scan reads leaves the digest as it was, so a
// journaled fleet run replays a report byte-identical to the first.
func TestJournalReplaysChangesScansCannotSee(t *testing.T) {
	const unparsed = "/etc/ssh/moduli.orig"
	if _, ok := lens.Default().ForFile(unparsed); ok {
		t.Fatalf("a lens recognizes %s", unparsed)
	}
	for _, tc := range []struct {
		name string
		edit func(*entity.Mem)
	}{
		{"mtime", func(h *entity.Mem) {
			h.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"), entity.WithModTime(time.Unix(1e9, 0)))
		}},
		{"package db", func(h *entity.Mem) {
			h.AddPackage(pkgdb.Package{Name: "openssh-server", Version: "1:7.2p2", Architecture: "amd64", Status: "install ok installed"})
		}},
		{"unparsed file", func(h *entity.Mem) { h.AddFile(unparsed, []byte("2048 moduli\n")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"m.yaml":    "sshd:\n  config_search_paths: [/etc/ssh]\n  cvl_file: rule.yaml\n",
				"rule.yaml": permitRootLogin("no"),
			}
			host := entity.NewMem("h", entity.TypeHost)
			host.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"))
			path := filepath.Join(t.TempDir(), "fleet.cvj")
			first := journaledScan(t, path, files, host)
			tc.edit(host)
			second := journaledScan(t, path, files, host)
			if !second.Resumed {
				t.Errorf("re-scanned after the %s change, which no scan reads", tc.name)
			}
			var a, b bytes.Buffer
			if err := WriteJSON(&a, first.Report, OutputOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := WriteJSON(&b, second.Report, OutputOptions{}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("replayed report differs:\n%s\nwant:\n%s", b.Bytes(), a.Bytes())
			}
		})
	}
}

// hostDir is the UbuntuHost of a seed written to a directory, read through
// the built-in crawler plugins: the directory answers no feature itself,
// and its plugins derive mysql.ssl and sysctl.runtime from its files.
func hostDir(t *testing.T, seed int64) Entity {
	dir := t.TempDir()
	h := ubuntuHost(seed)
	for _, p := range h.Files() {
		data, _ := h.ReadFile(p)
		fi, _ := h.Stat(p)
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(p)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, p), data, fi.Mode.Perm()); err != nil {
			t.Fatal(err)
		}
	}
	return WithRuntimePlugins(entity.NewOSDir("h", entity.TypeHost, dir))
}

// scanFleetOf runs a one-entity fleet scan with v over the journal j (nil
// for none) and returns its one result, which must not have failed.
func scanFleetOf(t *testing.T, v *Validator, j *Journal, ent Entity) FleetResult {
	t.Helper()
	var out []FleetResult
	for res := range v.ValidateFleet(context.Background(), sendEntities(ent), FleetOptions{Workers: 1, Journal: j}) {
		out = append(out, res)
	}
	if len(out) != 1 || out[0].Err != nil {
		t.Fatalf("fleet results = %+v", out)
	}
	return out[0]
}

// TestJournaledScanReadsOnce pins the one read per scan: a journaled fleet
// scan that misses the journal makes exactly the entity calls an
// unjournaled scan makes, each once per argument, so its digest costs no
// entity access of its own, and each feature runs once however many
// script rules judge it.
func TestJournaledScanReadsOnce(t *testing.T) {
	kinds := []struct {
		name  string
		build func(t *testing.T) Entity
	}{
		{"ubuntu host", func(t *testing.T) Entity { return ubuntuHost(1) }},
		{"image", func(t *testing.T) Entity {
			img, _ := fixtures.Image("app", "v1", fixtures.Profile{Seed: 1, MisconfigRate: 0.5})
			return img.Entity()
		}},
		{"plugin host", func(t *testing.T) Entity { return hostDir(t, 1) }},
	}
	for _, lib := range []struct {
		name string
		opts []Option
	}{{"builtin", nil}, {"extended", []Option{WithExtendedRules()}}} {
		v, err := New(append(lib.opts, WithParallelism(1), WithParseCache(NewParseCache(0)))...)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			plain := record(kind.build(t))
			scanFleetOf(t, v, nil, plain)
			j, err := OpenJournal(filepath.Join(t.TempDir(), "fleet.cvj"), JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			journaled := record(kind.build(t))
			if res := scanFleetOf(t, v, j, journaled); res.Resumed {
				t.Fatalf("%s library, %s: a fresh journal replayed", lib.name, kind.name)
			}
			_ = j.Close()
			features := 0
			for call, n := range journaled.n {
				if strings.HasPrefix(call, "RunFeature ") {
					features++
				}
				if n != 1 || plain.n[call] != 1 {
					t.Errorf("%s library, %s: %s made %d times journaled, %d unjournaled; want once each",
						lib.name, kind.name, call, n, plain.n[call])
				}
			}
			if len(journaled.n) != len(plain.n) {
				t.Errorf("%s library, %s: %d distinct calls journaled, %d unjournaled",
					lib.name, kind.name, len(journaled.n), len(plain.n))
			}
			if features == 0 {
				t.Errorf("%s library, %s: no feature ran", lib.name, kind.name)
			}
		}
	}
}

// replaySeal seals the recorder at the journal's replay hit, so any entity
// call the scan makes after its resume check shows in late.
type replaySeal struct {
	*Collector
	rec *recorder
}

func (m replaySeal) JournalEntitySkipped() { m.rec.seal(); m.Collector.JournalEntitySkipped() }

// TestReplayStopsAtResumeCheck pins that a replay costs the read phase and
// nothing after it: with parse and eval faults armed on every call, a
// replaying scan fires none, and the entity sees no call after the
// journal's replay hit.
func TestReplayStopsAtResumeCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	img, _ := fixtures.Image("app", "v1", fixtures.Profile{Seed: 1, MisconfigRate: 0.5})
	for _, ent := range []Entity{ubuntuHost(1), img.Entity()} {
		clean, err := New()
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		first := scanFleetOf(t, clean, j, ent)
		_ = j.Close()

		inj, err := ParseFaults("op=parse every=1 kind=error; op=eval every=1 kind=error")
		if err != nil {
			t.Fatal(err)
		}
		faulted, err := New(WithFaults(inj))
		if err != nil {
			t.Fatal(err)
		}
		rec := record(ent)
		j, err = OpenJournal(path, JournalOptions{Metrics: replaySeal{NewCollector(), rec}})
		if err != nil {
			t.Fatal(err)
		}
		second := scanFleetOf(t, faulted, j, rec)
		_ = j.Close()
		if !second.Resumed {
			t.Fatalf("%s: re-scanned an unchanged entity", ent.Name())
		}
		if n := inj.Injected(); n != 0 {
			t.Errorf("%s: a replay fired %d parse or eval faults, want 0", ent.Name(), n)
		}
		if len(rec.late) > 0 {
			t.Errorf("%s: entity calls after the resume check: %s", ent.Name(), strings.Join(rec.late, "; "))
		}
		if !bytes.Equal(reportJSON(t, second.Report), reportJSON(t, first.Report)) {
			t.Errorf("%s: the replayed report differs from the scanned one", ent.Name())
		}
	}
}

// TestJournalNeverReplaysDegradedReports pins that a DEGRADED report is
// never a replay: after a journaled scan under a read or a parse fault,
// the next fault-free scan re-scans and reports clean, and the one after
// it replays that clean report.
func TestJournalNeverReplaysDegradedReports(t *testing.T) {
	for _, spec := range []string{
		"op=read path=sshd_config every=1 kind=error msg=flaky",
		"op=parse path=sshd_config every=1 kind=error msg=flaky",
	} {
		path := filepath.Join(t.TempDir(), "fleet.cvj")
		run := func(opts ...Option) FleetResult {
			t.Helper()
			v, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			return scanFleetOf(t, v, j, ubuntuHost(1))
		}
		inj, err := ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		if first := run(WithFaults(inj)); len(first.Report.Degraded()) == 0 {
			t.Fatalf("%s: the faulted scan is not degraded", spec)
		}
		second := run()
		if second.Resumed || len(second.Report.Degraded()) != 0 {
			t.Errorf("%s: run 2 resumed=%v with %d degraded results, want a clean re-scan",
				spec, second.Resumed, len(second.Report.Degraded()))
		}
		if third := run(); !third.Resumed || len(third.Report.Degraded()) != 0 {
			t.Errorf("%s: run 3 resumed=%v with %d degraded results, want the clean replay",
				spec, third.Resumed, len(third.Report.Degraded()))
		}
	}
}
