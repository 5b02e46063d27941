package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchText = `goos: linux
goarch: amd64
pkg: configvalidator
BenchmarkTable2_ConfigValidator-8   	     100	   1000000 ns/op
BenchmarkFleetScan10      	    1602	   2118973 ns/op	      4719 images/s	  794018 B/op	   14541 allocs/op
BenchmarkFleetScan100     	     121	  30089508 ns/op	      3323 images/s
BenchmarkFleetScanWarm10  	    5707	    661010 ns/op	     15128 images/s
BenchmarkFleetScanWarm100 	     345	  10984913 ns/op	      9103 images/s
PASS
ok  	configvalidator	24.429s
`

func TestParseBenchTextStripsGOMAXPROCSSuffix(t *testing.T) {
	f, err := parseBenchText(strings.NewReader(sampleBenchText))
	if err != nil {
		t.Fatal(err)
	}
	results := f.Benchmarks
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5", len(results))
	}
	if results[0].Name != "BenchmarkTable2_ConfigValidator" {
		t.Errorf("first name = %q, want suffix stripped", results[0].Name)
	}
	if results[0].NsPerOp != 1e6 || results[0].Iters != 100 {
		t.Errorf("first result = %+v", results[0])
	}
	if results[1].Name != "BenchmarkFleetScan10" || results[1].NsPerOp != 2118973 {
		t.Errorf("second result = %+v", results[1])
	}
}

func TestParseBenchTextRejectsEmpty(t *testing.T) {
	if _, err := parseBenchText(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("want error for output with no benchmark lines")
	}
}

// TestParseBenchTextKeepsMemCPUAndProcs pins what a snapshot records
// beyond ns/op: the CPU model, each benchmark's GOMAXPROCS, and B/op and
// allocs/op where the run printed them — a zero included.
func TestParseBenchTextKeepsMemCPUAndProcs(t *testing.T) {
	const text = `goos: linux
cpu: Intel(R) Xeon(R) Processor
BenchmarkRecordEncode-2   	   63430	     45780 ns/op	 664.30 MB/s	       0 B/op	       0 allocs/op
BenchmarkRecordDecode-2   	   17862	    130936 ns/op	 232.27 MB/s	  117525 B/op	      23 allocs/op
BenchmarkPlain            	     100	      1000 ns/op
`
	f, err := parseBenchText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if f.CPU != "Intel(R) Xeon(R) Processor" || len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %+v", f)
	}
	for i, want := range []struct {
		name          string
		procs         int
		bytes, allocs int64
		mem           bool
	}{
		{"BenchmarkRecordEncode", 2, 0, 0, true},
		{"BenchmarkRecordDecode", 2, 117525, 23, true},
		{"BenchmarkPlain", 1, 0, 0, false},
	} {
		b := f.Benchmarks[i]
		if b.Name != want.name || b.Procs != want.procs {
			t.Errorf("benchmark %d = %s at GOMAXPROCS %d, want %s at %d", i, b.Name, b.Procs, want.name, want.procs)
		}
		if !want.mem {
			if b.BytesPerOp != nil || b.AllocsPerOp != nil {
				t.Errorf("%s: memory figures invented for a run without them", b.Name)
			}
			continue
		}
		if b.BytesPerOp == nil || *b.BytesPerOp != want.bytes || b.AllocsPerOp == nil || *b.AllocsPerOp != want.allocs {
			t.Errorf("%s: memory figures = %v B/op, %v allocs/op, want %d and %d", b.Name, b.BytesPerOp, b.AllocsPerOp, want.bytes, want.allocs)
		}
	}

	// The snapshot keeps them, and the committed baseline records
	// allocs/op for every gated benchmark, so -diff gates them.
	var buf bytes.Buffer
	if err := writeSnapshot(strings.NewReader(text), &buf, "test"); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"cpu": "Intel(R) Xeon(R) Processor"`, `"gomaxprocs": 2`, `"allocs_per_op": 0`, `"bytes_per_op": 117525`} {
		if !strings.Contains(buf.String(), field) {
			t.Errorf("snapshot lacks %s:\n%s", field, buf.String())
		}
	}
	base, err := readBenchFile(filepath.Join("..", "..", "BENCH_parallel.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range base {
		if gated(name) && (b.NsPerOp == 0 || b.AllocsPerOp == nil) {
			t.Errorf("committed baseline read %s as %+v", name, b)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSnapshot(strings.NewReader(sampleBenchText), &buf, "test"); err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.Note != "test" || len(f.Benchmarks) != 5 {
		t.Fatalf("snapshot = %+v", f)
	}
}

// writeSnapshotFile writes a benchFile JSON to a temp path for diff tests.
func writeSnapshotFile(t *testing.T, name string, results []benchResult) string {
	t.Helper()
	data, err := json.Marshal(benchFile{Benchmarks: results})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func baselineResults() []benchResult {
	return []benchResult{
		{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1000},
		{Name: "BenchmarkFleetScan10", Iters: 100, NsPerOp: 2000},
		{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 500},
		{Name: "BenchmarkOther", Iters: 100, NsPerOp: 10},
	}
}

func TestDiffPassesWithinTolerance(t *testing.T) {
	base := writeSnapshotFile(t, "base.json", baselineResults())
	next := writeSnapshotFile(t, "new.json", []benchResult{
		{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1100}, // +10%
		{Name: "BenchmarkFleetScan10", Iters: 100, NsPerOp: 2200},
		{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 550}, // 4x speedup
	})
	var out bytes.Buffer
	failed, err := diffBenchFiles(base, next, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("gate failed unexpectedly:\n%s", out.String())
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	base := writeSnapshotFile(t, "base.json", baselineResults())
	next := writeSnapshotFile(t, "new.json", []benchResult{
		{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1300}, // +30%
		{Name: "BenchmarkFleetScan10", Iters: 100, NsPerOp: 2000},
		{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 500},
	})
	var out bytes.Buffer
	failed, err := diffBenchFiles(base, next, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("gate passed despite +30%% regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("diff output lacks FAIL marker:\n%s", out.String())
	}
}

func TestDiffIgnoresUngatedBenchmarks(t *testing.T) {
	base := writeSnapshotFile(t, "base.json", baselineResults())
	next := writeSnapshotFile(t, "new.json", []benchResult{
		{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1000},
		{Name: "BenchmarkFleetScan10", Iters: 100, NsPerOp: 2000},
		{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 500},
		{Name: "BenchmarkOther", Iters: 100, NsPerOp: 1000}, // 100x slower, ungated
	})
	var out bytes.Buffer
	failed, err := diffBenchFiles(base, next, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("ungated benchmark regression tripped the gate:\n%s", out.String())
	}
}

func TestDiffFailsOnMissingBenchmark(t *testing.T) {
	base := writeSnapshotFile(t, "base.json", baselineResults())
	next := writeSnapshotFile(t, "new.json", []benchResult{
		{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1000},
		{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 500},
	})
	var out bytes.Buffer
	failed, err := diffBenchFiles(base, next, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("gate passed with BenchmarkFleetScan10 missing:\n%s", out.String())
	}
}

func TestDiffFailsOnInsufficientSpeedup(t *testing.T) {
	base := writeSnapshotFile(t, "base.json", baselineResults())
	next := writeSnapshotFile(t, "new.json", []benchResult{
		{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1000},
		{Name: "BenchmarkFleetScan10", Iters: 100, NsPerOp: 2000},
		{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 1500}, // only 1.3x
	})
	var out bytes.Buffer
	failed, err := diffBenchFiles(base, next, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("gate passed with a 1.3x warm speedup:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "speedup") {
		t.Errorf("diff output lacks speedup line:\n%s", out.String())
	}
}

// allocs returns a pointer to n, for benchResult.AllocsPerOp.
func allocs(n int64) *int64 { return &n }

// TestDiffGatesAllocs pins the allocs/op gate: growth past 10% on a gated
// benchmark fails even when ns/op is fine, growth within 10% or on an
// ungated benchmark passes, and the check is skipped when either snapshot
// lacks the figure.
func TestDiffGatesAllocs(t *testing.T) {
	base := []benchResult{
		{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1000, AllocsPerOp: allocs(1000)},
		{Name: "BenchmarkFleetScan10", Iters: 100, NsPerOp: 2000},
		{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 500, AllocsPerOp: allocs(100)},
		{Name: "BenchmarkOther", Iters: 100, NsPerOp: 10, AllocsPerOp: allocs(1)},
	}
	for _, tc := range []struct {
		name        string
		table2, fsc *int64
		other       *int64
		fail        bool
	}{
		{"within 10%", allocs(1099), allocs(5000), allocs(50), false},
		{"gated growth", allocs(1101), nil, nil, true},
		{"ungated growth", allocs(1000), nil, allocs(50), false},
		{"figure missing in the new run", nil, allocs(5000), nil, false},
		{"figure missing in the baseline", allocs(1000), allocs(5000), nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next := []benchResult{
				{Name: "BenchmarkTable2_ConfigValidator", Iters: 100, NsPerOp: 1000, AllocsPerOp: tc.table2},
				{Name: "BenchmarkFleetScan10", Iters: 100, NsPerOp: 2000, AllocsPerOp: tc.fsc},
				{Name: "BenchmarkFleetScanWarm10", Iters: 100, NsPerOp: 500, AllocsPerOp: allocs(100)},
				{Name: "BenchmarkOther", Iters: 100, NsPerOp: 10, AllocsPerOp: tc.other},
			}
			var out bytes.Buffer
			failed, err := diffBenchFiles(writeSnapshotFile(t, "base.json", base), writeSnapshotFile(t, "new.json", next), &out)
			if err != nil {
				t.Fatal(err)
			}
			if failed != tc.fail {
				t.Errorf("failed = %v, want %v:\n%s", failed, tc.fail, out.String())
			}
			if tc.fail && !strings.Contains(out.String(), "allocs/op BenchmarkTable2_ConfigValidator: 1000 -> 1101  FAIL") {
				t.Errorf("diff output lacks the allocs verdict:\n%s", out.String())
			}
		})
	}
}

func TestCommittedBaselineSatisfiesItsOwnGate(t *testing.T) {
	// BENCH_parallel.json is the committed baseline; diffing it against
	// itself must pass — in particular its recorded warm/cold speedups must
	// meet the 2x contract.
	p := filepath.Join("..", "..", "BENCH_parallel.json")
	if _, err := os.Stat(p); err != nil {
		t.Skipf("baseline not present: %v", err)
	}
	var out bytes.Buffer
	failed, err := diffBenchFiles(p, p, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatalf("committed baseline fails its own gate:\n%s", out.String())
	}
}
