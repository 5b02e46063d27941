package configvalidator_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
)

// coordinate runs ents through a coordinator over the one worker w with
// fopts, its Scheduler set here, and returns every result.
func coordinate(t *testing.T, v *configvalidator.Validator, w string, ents <-chan configvalidator.Entity, fopts configvalidator.FleetOptions) []configvalidator.FleetResult {
	t.Helper()
	fopts.Scheduler = dist.NewCoordinator([]string{w}, dist.Options{
		ShardSize:         4,
		LeaseTTL:          5 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		Logf:              drillLogf(t),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var all []configvalidator.FleetResult
	for res := range v.ValidateFleet(ctx, ents, fopts) {
		all = append(all, res)
	}
	return all
}

// one streams a single entity.
func one(ent configvalidator.Entity) <-chan configvalidator.Entity {
	ch := make(chan configvalidator.Entity, 1)
	ch <- ent
	close(ch)
	return ch
}

// openJournal opens the journal at path, closed when the test ends.
func openJournal(t *testing.T, path string) *configvalidator.Journal {
	t.Helper()
	j, err := configvalidator.OpenJournal(path, configvalidator.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// jsonOf renders rep as JSON.
func jsonOf(t *testing.T, rep *configvalidator.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := configvalidator.WriteJSON(&buf, rep, configvalidator.OutputOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flipFile is an entity whose file at path reads as first on its first
// read and as then on every later one.
type flipFile struct {
	configvalidator.Entity
	path, first, then string

	mu    sync.Mutex
	reads int
}

func (f *flipFile) ReadFile(p string) ([]byte, error) {
	if p != f.path {
		return f.Entity.ReadFile(p)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reads++
	if f.reads == 1 {
		return []byte(f.first), nil
	}
	return []byte(f.then), nil
}

// TestDistributedJournalKeysTheShippedFrame pins that a journaled
// coordinator commits each report under the digest of the frame its
// worker scanned. Run 1 ships an image whose sshd_config changes between
// its first read and the next; run 2 ships the same image reading the
// first version every time, and must report what a local scan of it
// reports, not a report judged on other inputs.
func TestDistributedJournalKeysTheShippedFrame(t *testing.T) {
	const sshd = "/etc/ssh/sshd_config"
	w, _ := drillWorker(t, 0)
	v, err := configvalidator.New()
	if err != nil {
		t.Fatal(err)
	}
	j := openJournal(t, filepath.Join(t.TempDir(), "coordinator.cvj"))
	img, _ := fixtures.Image("app", "v1", drillFleetProfile)
	base, err := img.Entity().ReadFile(sshd)
	if err != nil {
		t.Fatal(err)
	}
	permit := regexp.MustCompile(`(?m)^PermitRootLogin .*$`)
	flaky := func(first, then string) configvalidator.Entity {
		return &flipFile{Entity: img.Entity(), path: sshd,
			first: permit.ReplaceAllString(string(base), "PermitRootLogin "+first),
			then:  permit.ReplaceAllString(string(base), "PermitRootLogin "+then)}
	}

	for run, ent := range []configvalidator.Entity{flaky("no", "yes"), flaky("no", "no")} {
		all := coordinate(t, v, w.URL, one(ent), configvalidator.FleetOptions{Journal: j})
		if len(all) != 1 || all[0].Err != nil {
			t.Fatalf("run %d: results = %+v", run+1, all)
		}
		if run == 0 {
			continue
		}
		local, err := v.Validate(flaky("no", "no"))
		if err != nil {
			t.Fatal(err)
		}
		got, want := all[0].Report, local
		if !bytes.Equal(jsonOf(t, got), jsonOf(t, want)) {
			t.Errorf("run 2 (resumed=%v) reports %d FAIL, a local scan of its entity %d FAIL",
				all[0].Resumed, got.Counts()[configvalidator.StatusFail], want.Counts()[configvalidator.StatusFail])
		}
	}
}

// TestDistributedJournalReadsEachEntityOnce pins one read per entity on a
// journaled coordinator: on a journal miss and on a replay alike, the live
// entity sees exactly the calls a frame capture makes of it — one Walk of
// /, one ReadFile per file, one RunFeature per listed feature and no Stat.
func TestDistributedJournalReadsEachEntityOnce(t *testing.T) {
	img, _ := fixtures.Image("app", "v1", drillFleetProfile)
	captured, calls := configvalidator.RecordCalls(img.Entity())
	if _, err := frames.Capture(captured, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	want := calls()
	features := 0
	for call, n := range want {
		if n != 1 || strings.HasPrefix(call, "Stat ") || strings.HasPrefix(call, "Walk ") && call != "Walk /" {
			t.Fatalf("a capture made %s %d times", call, n)
		}
		if strings.HasPrefix(call, "RunFeature ") {
			features++
		}
	}
	if want["Walk /"] != 1 || features != len(img.Entity().Features()) {
		t.Fatalf("a capture made %v", want)
	}

	w, _ := drillWorker(t, 0)
	v, err := configvalidator.New()
	if err != nil {
		t.Fatal(err)
	}
	j := openJournal(t, filepath.Join(t.TempDir(), "coordinator.cvj"))
	for _, replay := range []bool{false, true} {
		ent, calls := configvalidator.RecordCalls(img.Entity())
		all := coordinate(t, v, w.URL, one(ent), configvalidator.FleetOptions{Journal: j})
		if len(all) != 1 || all[0].Err != nil || all[0].Resumed != replay || (all[0].Worker == "") != replay {
			t.Fatalf("replay %v: results = %+v", replay, all)
		}
		if got := calls(); !maps.Equal(got, want) {
			calls := maps.Clone(got)
			maps.Copy(calls, want)
			var diff []string
			for call := range calls {
				if got[call] != want[call] {
					diff = append(diff, fmt.Sprintf("%s ×%d (capture ×%d)", call, got[call], want[call]))
				}
			}
			slices.Sort(diff)
			t.Errorf("replay %v: the live entity's calls differ from a capture's: %s", replay, strings.Join(diff, "; "))
		}
	}
}

// TestDistributedScanHonoursTarget pins that workers scan the run's
// FleetOptions.Target: a coordinator run restricted to one manifest entry,
// or to one the manifest lacks, summarizes as a local run does.
func TestDistributedScanHonoursTarget(t *testing.T) {
	const fleetSize = 4
	w, _ := drillWorker(t, 0)
	v, err := configvalidator.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"sshd", "k8s"} {
		fopts := configvalidator.FleetOptions{Target: target}
		want := configvalidator.Summarize(v.ValidateFleet(context.Background(), drillEntities(t, fleetSize), fopts)).String()
		got := summarizeAll(coordinate(t, v, w.URL, drillEntities(t, fleetSize), fopts)).String()
		if got != want {
			t.Errorf("target %q: the coordinator run summarizes as\n%s\nwant the local run's\n%s", target, got, want)
		}
	}
}
