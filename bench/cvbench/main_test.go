package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	cv "configvalidator"
	"configvalidator/internal/entity"
	"configvalidator/internal/lens"
)

// smallSizes keep the tests fast; the golden check applies to fullSizes only.
var smallSizes = sizes{unique: 24, sharedDistinct: 4, shared: 32, hosts: 4}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// declared returns BENCHMARK.json's metric name → unit for one mode.
func declared(t *testing.T, traced bool) map[string]string {
	b := readBenchmarkJSON(t)
	out := make(map[string]string)
	if traced {
		for _, m := range b.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range b.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	var want, got []string
	for _, w := range readBenchmarkJSON(t).Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json declares %v", got, want)
	}
}

// TestSmoke runs every workload briefly in both modes. Each run must check
// every report correct and emit exactly the metrics, with the units,
// BENCHMARK.json declares for that mode.
func TestSmoke(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want := declared(t, traced)
		for _, w := range workloads {
			cfg := runConfig{
				seed:    3,
				measure: 500 * time.Millisecond,
				traced:  traced,
				out:     t.TempDir(),
				sizes:   smallSizes,
				warmup:  100 * time.Millisecond,
			}
			d, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			r := d.Result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, r.Correct, r.Attempted, r.Failed, d.Problems)
			}
			got := make(map[string]string)
			for name, m := range r.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json declares %v", w.name, traced, got, want)
			}
			if traced {
				if _, err := os.Stat(cfg.out + "/" + w.name + ".spans.json"); err != nil {
					t.Errorf("%s: no spans file: %v", w.name, err)
				}
			}
		}
	}
}

// TestLensSelectionMatchesDefault checks that the traced registry selects,
// for every file path in every workload's entities, the lens
// lens.Default() selects.
func TestLensSelectionMatchesDefault(t *testing.T) {
	def, traced := lens.Default(), newTracer().registry()
	checked := 0
	for _, w := range workloads {
		p, err := w.makePool(3, smallSizes)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range p.distinct {
			err := e.Walk("/", func(fi entity.FileInfo) error {
				if fi.IsDir() {
					return nil
				}
				a, aok := def.ForFile(fi.Path)
				b, bok := traced.ForFile(fi.Path)
				if aok != bok || (aok && a.Name() != b.Name()) {
					t.Errorf("%s %s: default selects %v, traced registry %v", w.name, fi.Path, a, b)
				}
				checked++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no file paths checked")
	}
}

// TestTracedVerdictsMatchUntraced scans every distinct payload through the
// traced and the untraced program of each workload and compares verdict
// digests entity by entity.
func TestTracedVerdictsMatchUntraced(t *testing.T) {
	for _, w := range workloads {
		p, err := w.makePool(5, smallSizes)
		if err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		plain := scanAll(t, w, out, nil, p.distinct)
		traced := scanAll(t, w, out, newTracer(), p.distinct)
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced verdict digests differ from untraced ones", w.name)
		}
	}
}

func scanAll(t *testing.T, w *workload, out string, tr *tracer, ents []cv.Entity) [][sha256.Size]byte {
	t.Helper()
	prog, err := w.start(out, tr, tr != nil)
	if err != nil {
		t.Fatal(err)
	}
	defer prog.close()
	in := make(chan cv.Entity)
	go func() {
		defer close(in)
		for i, e := range ents {
			in <- &entityView{Entity: e, name: e.Name() + "~" + strconv.Itoa(i), id: int64(i), tr: tr}
		}
	}()
	digests := make([][sha256.Size]byte, len(ents))
	dg := newDigester()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for res := range prog.scan(ctx, in) {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.Entity, res.Err)
		}
		digests[parseID(res.Entity)] = dg.digest(res.Report)
	}
	return digests
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := readGolden("../golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		if _, ok := g.Workloads[w.name]; !ok {
			names = append(names, w.name)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		t.Fatalf("bench/golden.json pins no reference digest for %v", names)
	}
}

func TestParseID(t *testing.T) {
	for name, want := range map[string]int64{"app-001:v1~42": 42, "host~0": 0, "plain": -1, "x~y": -1} {
		if got := parseID(name); got != want {
			t.Errorf("parseID(%q) = %d, want %d", name, got, want)
		}
	}
}
