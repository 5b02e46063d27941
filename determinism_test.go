package configvalidator

// Differential determinism suite: the Rehearsal-style guarantee that
// identical inputs produce byte-identical reports regardless of how the
// work is scheduled. Every fixture entity is validated serial, at
// Parallelism 2 and 8, and through a cold and then warm parse cache, and
// all five runs must render the same text, JSON, and JUnit bytes. A
// seeded shuffle of the manifest entries then shows that report ordering
// is a function of the manifest, not of goroutine scheduling, and walk
// faults show that a scan aborts at the same entry, having used up the
// same faults, at every parallelism.

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/rules"
)

// determinismEntities builds a representative entity set: two generated
// hosts (system- and application-flavored) and a small image fleet, all
// with deliberate misconfigurations so reports carry real findings.
func determinismEntities(t testing.TB) []Entity {
	t.Helper()
	u, _ := fixtures.UbuntuHost("det-ubuntu", fixtures.Profile{Seed: 11, MisconfigRate: 0.3})
	s, _ := fixtures.SystemHost("det-system", fixtures.Profile{Seed: 23, MisconfigRate: 0.5})
	ents := []Entity{u, s}
	reg, _ := fixtures.Fleet(4, fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	for _, ref := range reg.Images() {
		img, err := reg.Pull(ref)
		if err != nil {
			t.Fatal(err)
		}
		ents = append(ents, img.Entity())
	}
	return ents
}

// renderAll renders a report in every supported output format.
func renderAll(t testing.TB, rep *Report) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, 3)
	for name, write := range map[string]func(io.Writer, *Report, OutputOptions) error{
		"text":  WriteText,
		"json":  WriteJSON,
		"junit": WriteJUnit,
	} {
		var buf bytes.Buffer
		if err := write(&buf, rep, OutputOptions{}); err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

func TestDeterminismAcrossSchedules(t *testing.T) {
	cachedV, err := New(WithParseCache(NewParseCache(0)))
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"parallel2", []Option{WithParallelism(2)}},
		{"parallel8", []Option{WithParallelism(8)}},
	}

	for _, ent := range determinismEntities(t) {
		serialV, err := New(WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := serialV.Validate(ent)
		if err != nil {
			t.Fatal(err)
		}
		want := renderAll(t, rep)

		check := func(label string, v *Validator) {
			t.Helper()
			rep, err := v.Validate(ent)
			if err != nil {
				t.Fatalf("%s/%s: %v", ent.Name(), label, err)
			}
			for format, wantBytes := range want {
				if got := renderAll(t, rep)[format]; !bytes.Equal(got, wantBytes) {
					t.Errorf("%s: %s %s report differs from serial baseline", ent.Name(), label, format)
				}
			}
		}
		for _, variant := range variants {
			v, err := New(variant.opts...)
			if err != nil {
				t.Fatal(err)
			}
			check(variant.name, v)
		}
		// First pass through cachedV populates the cache for this entity
		// (cold), the second is served from it (warm); both must match.
		check("cache-cold", cachedV)
		check("cache-warm", cachedV)
	}

	stats := cachedV.ParseCacheStats()
	if stats.Hits == 0 {
		t.Error("warm cache passes recorded no hits — the cached variant tested nothing")
	}
}

// TestDeterminismManifestOrder validates one entity against a seeded
// shuffle of the built-in manifest: the serial and parallel reports must
// agree byte for byte, and the report's entity sequence must follow the
// shuffled manifest order — ordering derives from the manifest, never
// from which worker finished first.
func TestDeterminismManifestOrder(t *testing.T) {
	base, err := rules.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("det-shuffle", fixtures.Profile{Seed: 31, MisconfigRate: 0.4})

	rng := rand.New(rand.NewSource(1509)) // arXiv 1509.05100, for luck
	for iter := 0; iter < 3; iter++ {
		shuffled := &cvl.Manifest{Entries: append([]*cvl.ManifestEntry(nil), base.Entries...)}
		rng.Shuffle(len(shuffled.Entries), func(i, j int) {
			shuffled.Entries[i], shuffled.Entries[j] = shuffled.Entries[j], shuffled.Entries[i]
		})

		serialV, err := New(WithManifest(shuffled, rules.Reader()), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		parallelV, err := New(WithManifest(shuffled, rules.Reader()), WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		serialRep, err := serialV.Validate(host)
		if err != nil {
			t.Fatal(err)
		}
		parallelRep, err := parallelV.Validate(host)
		if err != nil {
			t.Fatal(err)
		}
		wantAll := renderAll(t, serialRep)
		gotAll := renderAll(t, parallelRep)
		for format, want := range wantAll {
			if !bytes.Equal(gotAll[format], want) {
				t.Errorf("iter %d: parallel %s report differs from serial on shuffled manifest", iter, format)
			}
		}

		// The sequence of manifest entities in the report must be the
		// shuffled entry order with consecutive repeats collapsed.
		var gotOrder []string
		for _, res := range parallelRep.Results {
			if len(gotOrder) == 0 || gotOrder[len(gotOrder)-1] != res.ManifestEntity {
				gotOrder = append(gotOrder, res.ManifestEntity)
			}
		}
		wantOrder := make(map[string]int)
		for i, e := range shuffled.EnabledEntries() {
			wantOrder[e.Name] = i
		}
		last := -1
		for _, name := range gotOrder {
			idx, ok := wantOrder[name]
			if !ok {
				t.Fatalf("iter %d: report names unknown manifest entity %q", iter, name)
			}
			if idx <= last {
				t.Errorf("iter %d: entity %q out of shuffled-manifest order", iter, name)
			}
			last = idx
		}
	}
}

// accessCounter records the entity accesses one scan makes: every search
// root that reached the entity's Walk, and how many files it read.
type accessCounter struct {
	Entity
	mu     sync.Mutex
	walked []string
	reads  int
}

func (a *accessCounter) Walk(root string, fn func(entity.FileInfo) error) error {
	a.mu.Lock()
	a.walked = append(a.walked, root)
	a.mu.Unlock()
	return a.Entity.Walk(root, fn)
}

func (a *accessCounter) ReadFile(path string) ([]byte, error) {
	a.mu.Lock()
	a.reads++
	a.mu.Unlock()
	return a.Entity.ReadFile(path)
}

// TestWalkFaultParity pins error-abort and fault-use parity across
// Parallelism 1, 2 and 8: a walk fault aborts the scan at the same manifest
// entry with the same error, no later entry is walked, no file is read,
// and the injector's budget is used up one fault per failed scan.
func TestWalkFaultParity(t *testing.T) {
	manifest, err := rules.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	// sshd sits mid-manifest and is the only entry searching /etc/ssh; the
	// entries before it are walked (the fault hits sshd's root before the
	// entity sees it), the entries after it are not.
	var beforeSSHD []string
	for _, e := range manifest.EnabledEntries() {
		if e.Name == "sshd" {
			break
		}
		beforeSSHD = append(beforeSSHD, e.ConfigSearchPaths...)
	}
	host, _ := fixtures.UbuntuHost("det-walk", fixtures.Profile{Seed: 5, MisconfigRate: 0.3})

	cases := []struct {
		name   string
		rule   faults.Rule
		scans  int
		walked []string // roots the entity sees in a failed scan
		errs   []string // per scan; "" for success
	}{
		{
			name:  "every-entry-times-2",
			rule:  faults.Rule{Op: faults.OpWalk, Times: 2, Msg: "layer store unreachable"},
			scans: 3,
			errs: []string{
				"engine: entity apache: crawl /etc/apache2: layer store unreachable (at walk /etc/apache2)",
				"engine: entity apache: crawl /etc/apache2: layer store unreachable (at walk /etc/apache2)",
				"",
			},
		},
		{
			name:   "middle-entry",
			rule:   faults.Rule{Op: faults.OpWalk, Path: "/etc/ssh", Msg: "layer store unreachable"},
			scans:  1,
			walked: beforeSSHD,
			errs:   []string{"engine: entity sshd: crawl /etc/ssh: layer store unreachable (at walk /etc/ssh)"},
		},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 2, 8} {
			inj := faults.MustNew(tc.rule)
			v, err := New(WithFaults(inj), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			var failed int64
			for i := 0; i < tc.scans; i++ {
				ent := &accessCounter{Entity: host}
				_, err := v.Validate(ent)
				got := ""
				if err != nil {
					got = err.Error()
					failed++
				}
				if got != tc.errs[i] {
					t.Errorf("%s par %d scan %d: error %q, want %q", tc.name, par, i, got, tc.errs[i])
				}
				if err == nil {
					continue
				}
				if !slices.Equal(ent.walked, tc.walked) {
					t.Errorf("%s par %d scan %d: walked %v, want %v", tc.name, par, i, ent.walked, tc.walked)
				}
				if ent.reads != 0 {
					t.Errorf("%s par %d scan %d: aborted scan read %d files, want 0", tc.name, par, i, ent.reads)
				}
			}
			if got := inj.Injected(); got != failed {
				t.Errorf("%s par %d: injected %d faults over %d failed scans, want one each", tc.name, par, got, failed)
			}
		}
	}
}

// TestEvalFaultParity pins eval-fault placement across Parallelism 1, 2
// and 8: each rule's fault check runs on the caller in manifest order
// before any rule reaches the worker pool, so an Nth trigger on a
// wildcard path degrades the same rule at every setting — an injected
// error and an injected panic alike — and fires exactly once.
func TestEvalFaultParity(t *testing.T) {
	manifest, err := rules.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	// The rules "sshd/*" matches, in evaluation order.
	var sshdRules []string
	for _, e := range manifest.EnabledEntries() {
		if e.Name != "sshd" {
			continue
		}
		rs, err := LoadRules(rules.Reader(), e.CVLFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range cvl.FilterByEntityType(cvl.FilterByTags(rs, e.Tags), "host") {
			if r.Type != cvl.TypeComposite {
				sshdRules = append(sshdRules, r.Name)
			}
		}
	}
	const nth = 5
	if len(sshdRules) < nth {
		t.Fatalf("sshd has %d rules, want at least %d", len(sshdRules), nth)
	}
	target := "sshd/" + sshdRules[nth-1]
	host, _ := fixtures.UbuntuHost("det-eval", fixtures.Profile{Seed: 5, MisconfigRate: 0.3})

	cases := []struct {
		name string
		kind faults.Kind
		want string // the one degraded result: "entry/rule: message"
	}{
		{"error", faults.KindError, target + ": evaluator crashed (at eval " + target + ")"},
		{"panic", faults.KindPanic, target + ": rule evaluation panicked: faults: injected panic (at eval " + target + ")"},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 2, 8} {
			inj := faults.MustNew(faults.Rule{Op: faults.OpEval, Path: "sshd/*", Nth: nth, Kind: tc.kind, Msg: "evaluator crashed"})
			v, err := New(WithFaults(inj), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := v.Validate(host)
			if err != nil {
				t.Fatalf("%s par %d: %v", tc.name, par, err)
			}
			var got []string
			for _, r := range rep.Degraded() {
				got = append(got, r.ManifestEntity+"/"+r.Rule.Name+": "+r.Message)
			}
			if !slices.Equal(got, []string{tc.want}) {
				t.Errorf("%s par %d: degraded %q, want [%q]", tc.name, par, got, tc.want)
			}
			if n := inj.Injected(); n != 1 {
				t.Errorf("%s par %d: injected %d faults, want 1", tc.name, par, n)
			}
		}
	}
}
