package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
)

// resultKeys flattens a report into comparable strings, one per result in
// order, capturing everything the output layer renders.
func resultKeys(rep *Report) []string {
	out := make([]string, len(rep.Results))
	for i, r := range rep.Results {
		name := ""
		if r.Rule != nil {
			name = r.Rule.Name
		}
		out[i] = fmt.Sprintf("%s|%s|%s|%v|%s|%s|%s",
			r.EntityName, r.ManifestEntity, name, r.Status, r.Message, r.Detail, r.File)
	}
	return out
}

// TestParallelReportMatchesSerial runs the Listing 1 stack — four manifest
// entries including a composite — serial and at several parallelism levels
// and requires identical result sequences.
func TestParallelReportMatchesSerial(t *testing.T) {
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(listing1Files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) {
		src, ok := listing1Files[path]
		if !ok {
			return nil, fmt.Errorf("no file %q", path)
		}
		return []byte(src), nil
	}
	for _, ent := range []*entity.Mem{
		stackEntity(true, "0", "/etc/mysql/cacert.pem"), // all legs pass
		stackEntity(false, "1", "/tmp/nope"),            // all legs fail
	} {
		serialRep, err := NewWithOptions(nil, Options{Parallelism: 1}).Validate(ent, manifest, NewCachedSource(read), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := resultKeys(serialRep)
		for _, par := range []int{2, 8} {
			rep, err := NewWithOptions(nil, Options{Parallelism: par}).Validate(ent, manifest, NewCachedSource(read), nil)
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			got := resultKeys(rep)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("parallelism %d: results differ from serial\nserial:\n%s\nparallel:\n%s",
					par, strings.Join(want, "\n"), strings.Join(got, "\n"))
			}
		}
	}
}

// TestRunParallelPanicDeterminism pins the pool's panic contract: every
// task still runs, and the surviving panic value is the one from the
// lowest task index, independent of scheduling — including par = 1, where
// the tasks run inline on the caller's goroutine.
func TestRunParallelPanicDeterminism(t *testing.T) {
	for _, par := range []int{1, 4} {
		var executed atomic.Int64
		pv := runParallel(par, 16, func(i int) {
			executed.Add(1)
			if i == 11 || i == 3 || i == 7 {
				panic(i)
			}
		})
		if got := executed.Load(); got != 16 {
			t.Errorf("par %d: executed %d tasks, want 16 (pool must drain past panics)", par, got)
		}
		if pv != 3 {
			t.Errorf("par %d: surviving panic value = %v, want 3 (lowest index)", par, pv)
		}
		if pv := runParallel(par, 5, func(int) {}); pv != nil {
			t.Errorf("par %d: panic value = %v for panic-free run, want nil", par, pv)
		}
	}
}

// panicWalkEntity panics during entity access — the failure mode of a
// corrupted backend — to prove a panic in the walk phase propagates to
// the caller (where the fleet layer converts it).
type panicWalkEntity struct {
	*entity.Mem
}

func (p *panicWalkEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	panic("walk exploded")
}

func TestParallelPrepPanicPropagates(t *testing.T) {
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(listing1Files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) { return []byte(listing1Files[path]), nil }
	ent := &panicWalkEntity{Mem: stackEntity(true, "0", "/etc/mysql/cacert.pem")}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("entity-access panic was swallowed by the worker pool")
		}
		if s, ok := r.(string); !ok || s != "walk exploded" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
	}()
	_, _ = NewWithOptions(nil, Options{Parallelism: 4}).Validate(ent, manifest, NewCachedSource(read), nil)
}

// TestCachedSourceDefensiveCopy pins the aliasing fix: callers may append
// to and reorder the slice Resolve returns without corrupting what later
// callers see.
func TestCachedSourceDefensiveCopy(t *testing.T) {
	const twoRules = `
config_name: first
config_path: [""]
preferred_value: ["1"]
---
config_name: second
config_path: [""]
preferred_value: ["2"]
`
	src := NewCachedSource(func(path string) ([]byte, error) { return []byte(twoRules), nil })
	got, err := src.Resolve("rules.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("resolved %d rules, want 2", len(got))
	}
	// Mutations a filtering caller performs: reorder and append.
	got[0], got[1] = got[1], got[0]
	_ = append(got, got[0])

	again, err := src.Resolve("rules.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0].rule.Name != "first" || again[1].rule.Name != "second" {
		names := make([]string, len(again))
		for i, r := range again {
			names[i] = r.rule.Name
		}
		t.Fatalf("second Resolve sees mutated slice %v, want [first second]", names)
	}
	// And the two calls must not share a backing array.
	if &got[0] == &again[0] {
		t.Fatal("Resolve returned the same backing array twice")
	}
}

// regexRuleFiles is a manifest whose sshd rules are all regex matchers:
// case-folded, element-wise, and one list that reaches an invalid pattern.
var regexRuleFiles = map[string]string{
	"manifest.yaml": `
sshd:
  enabled: True
  config_search_paths: [/etc/ssh]
  cvl_file: sshd.yaml
`,
	"sshd.yaml": `
config_name: PermitRootLogin
config_path: [""]
preferred_value: ["^(no|without-password)$", "(unclosed"]
preferred_value_match: regex,any
---
config_name: Ciphers
config_path: [""]
value_separator: ","
case_insensitive: true
non_preferred_value: ["-CBC$", "^arcfour"]
non_preferred_value_match: regex,any
---
config_name: LogLevel
config_path: [""]
case_insensitive: true
preferred_value: ["^(info|verbose)$"]
preferred_value_match: regex,any
---
config_name: MaxAuthTries
config_path: [""]
preferred_value: ["^[1-4]$"]
preferred_value_match: regex,all
`,
}

// TestSharedCompiledRulesConcurrent validates regex rules from 8
// goroutines through one engine and one CachedSource, so every goroutine
// evaluates the same compiled rules and races to compile their regexes
// on first use. Each report must equal the one a private serial engine
// produces. make race and scripts/ci.sh run it under -race -count=10.
func TestSharedCompiledRulesConcurrent(t *testing.T) {
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(regexRuleFiles["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) { return []byte(regexRuleFiles[path]), nil }
	var ents []*entity.Mem
	for i, conf := range []string{
		"PermitRootLogin no\nCiphers aes128-ctr,AES256-CBC\nLogLevel VERBOSE\nMaxAuthTries 4\n",
		"PermitRootLogin yes\nCiphers aes128-ctr\nLogLevel DEBUG\nMaxAuthTries 6\n",
		"PermitRootLogin without-password\nCiphers Arcfour,aes128-ctr\nLogLevel info\n",
	} {
		m := entity.NewMem(fmt.Sprintf("host-%d", i), entity.TypeHost)
		m.AddFile("/etc/ssh/sshd_config", []byte(conf))
		ents = append(ents, m)
	}
	want := make([]string, len(ents))
	for i, ent := range ents {
		rep, err := NewWithOptions(nil, Options{Parallelism: 1}).Validate(ent, manifest, NewCachedSource(read), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = strings.Join(resultKeys(rep), "\n")
	}
	if !strings.Contains(want[1], "engine: regex \"(unclosed\"") {
		t.Fatalf("fixture never reaches the bad regex:\n%s", want[1])
	}

	eng := NewWithOptions(nil, Options{Parallelism: 2})
	src := NewCachedSource(read)
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 3*len(ents); i++ {
				k := (g + i) % len(ents)
				rep, err := eng.Validate(ents[k], manifest, src, nil)
				if err != nil {
					errs <- err
					return
				}
				if got := strings.Join(resultKeys(rep), "\n"); got != want[k] {
					errs <- fmt.Errorf("goroutine %d, %s: report differs from serial\ngot:\n%s\nwant:\n%s", g, ents[k].Name(), got, want[k])
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestCachedSourceFingerprintConcurrent pins what Fingerprint reports —
// every file resolving a path reads, child first up its parent_cvl_file
// chain, with the SHA-256 of its content — and that goroutines racing
// Fingerprint against Resolve on one source all see the same sums.
// make race and scripts/ci.sh run it under -race -count=10.
func TestCachedSourceFingerprintConcurrent(t *testing.T) {
	files := map[string]string{
		"child.yaml":  "parent_cvl_file: parent.yaml\n---\nconfig_name: A\n",
		"parent.yaml": "parent_cvl_file: grand.yaml\n---\nconfig_name: B\n",
		"grand.yaml":  "config_name: C\n",
	}
	var want []RuleFileSum
	for _, p := range []string{"child.yaml", "parent.yaml", "grand.yaml"} {
		sum := sha256.Sum256([]byte(files[p]))
		want = append(want, RuleFileSum{Path: p, SHA256: hex.EncodeToString(sum[:])})
	}
	src := NewCachedSource(func(path string) ([]byte, error) { return []byte(files[path]), nil })
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			if g%2 == 0 {
				if _, err := src.Resolve("child.yaml"); err != nil {
					errs <- err
					return
				}
			}
			got, err := src.Fingerprint("child.yaml")
			if err == nil && !reflect.DeepEqual(got, want) {
				err = fmt.Errorf("goroutine %d: fingerprint %v, want %v", g, got, want)
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if _, err := NewCachedSource(func(string) ([]byte, error) { return nil, errors.New("gone") }).Fingerprint("child.yaml"); err == nil {
		t.Error("fingerprint of an unreadable rule file succeeded")
	}
}
