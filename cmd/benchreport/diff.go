package main

// Benchmark regression gating:
//
//	benchreport -snapshot bench.txt > BENCH.json   convert `go test -bench`
//	                                               text output to bench JSON
//	benchreport -diff base.json new.json           compare two snapshots and
//	                                               exit non-zero on regression
//
// The diff guards the performance-sensitive benchmarks:
//   - BenchmarkTable2_ConfigValidator (exact name), every
//     BenchmarkFleetScan* benchmark, and every BenchmarkSemantic*
//     benchmark (semantic rule analysis: lowering + checking) may not
//     regress more than 15% ns/op against the baseline, nor grow more
//     than 10% allocs/op when both snapshots record allocs/op;
//   - every BenchmarkFleetScanWarm<N> in the new run must be at least 2x
//     faster than its cold counterpart BenchmarkFleetScan<N> — the
//     parse-cache + verdict-memo speedup contract.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// regressionLimit is the tolerated ns/op growth versus the baseline.
const regressionLimit = 1.15

// allocsLimit is the tolerated allocs/op growth versus the baseline.
const allocsLimit = 1.10

// minWarmSpeedup is the required cold/warm ratio for fleet-scan pairs.
const minWarmSpeedup = 2.0

// benchResult is one benchmark measurement.
type benchResult struct {
	Name    string  `json:"name"`
	Iters   int64   `json:"iterations"`
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the B/op and allocs/op figures
	// (-benchmem or b.ReportAllocs), absent when the run printed none.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Procs is the GOMAXPROCS the benchmark ran at, taken from the name's
	// -N suffix (1 when go test printed none).
	Procs int `json:"gomaxprocs,omitempty"`
}

// benchFile is the snapshot format committed as BENCH_parallel.json.
type benchFile struct {
	Note string `json:"note,omitempty"`
	// CPU is the processor model from the run's "cpu:" line.
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// parseBenchText extracts the "cpu:" line and the benchmark lines from
// `go test -bench` text output. Benchmark lines look like:
//
//	BenchmarkFleetScan10-8   	    1602	   2118973 ns/op	  794018 B/op	   14541 allocs/op	 ... extra metrics
//
// The name's trailing -N GOMAXPROCS suffix (absent on a GOMAXPROCS=1 box) is
// stripped so snapshots taken on different machines compare by logical
// name; its value is kept as Procs.
func parseBenchText(r io.Reader) (benchFile, error) {
	var out benchFile
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			out.CPU = cpu
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		res := benchResult{Name: fields[0], Procs: 1}
		if idx := strings.LastIndex(res.Name, "-"); idx > 0 {
			if procs, err := strconv.Atoi(res.Name[idx+1:]); err == nil {
				res.Name, res.Procs = res.Name[:idx], procs
			}
		}
		var err error
		if res.Iters, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return benchFile{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		if res.NsPerOp, err = strconv.ParseFloat(fields[2], 64); err != nil {
			return benchFile{}, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		// The remaining fields are value/unit pairs.
		for i := 4; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if unit != "B/op" && unit != "allocs/op" {
				continue
			}
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				return benchFile{}, fmt.Errorf("bad %s in %q: %w", unit, line, err)
			}
			if unit == "B/op" {
				res.BytesPerOp = &v
			} else {
				res.AllocsPerOp = &v
			}
		}
		out.Benchmarks = append(out.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return benchFile{}, err
	}
	if len(out.Benchmarks) == 0 {
		return benchFile{}, fmt.Errorf("no benchmark lines found")
	}
	return out, nil
}

// writeSnapshot converts bench text from r into snapshot JSON on w.
func writeSnapshot(r io.Reader, w io.Writer, note string) error {
	f, err := parseBenchText(r)
	if err != nil {
		return err
	}
	f.Note = note
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

func readBenchFile(path string) (map[string]benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	byName := make(map[string]benchResult, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		byName[b.Name] = b
	}
	if len(byName) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return byName, nil
}

// gated reports whether a benchmark name is held to the regression limit.
func gated(name string) bool {
	return name == "BenchmarkTable2_ConfigValidator" ||
		strings.HasPrefix(name, "BenchmarkFleetScan") ||
		strings.HasPrefix(name, "BenchmarkSemantic")
}

// diffBenchResults compares a new run against the baseline and writes a
// verdict per gated benchmark. It returns true when any gate failed.
func diffBenchResults(base, next map[string]benchResult, w io.Writer) bool {
	failed := false
	names := make([]string, 0, len(base))
	for name := range base {
		if gated(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-36s %14s %14s %8s  %s\n", "BENCHMARK", "BASE ns/op", "NEW ns/op", "DELTA", "VERDICT")
	for _, name := range names {
		b := base[name]
		n, ok := next[name]
		if !ok {
			failed = true
			fmt.Fprintf(w, "%-36s %14.0f %14s %8s  FAIL (missing from new run)\n", name, b.NsPerOp, "-", "-")
			continue
		}
		delta := n.NsPerOp/b.NsPerOp - 1
		verdict := "ok"
		if n.NsPerOp > b.NsPerOp*regressionLimit {
			verdict = fmt.Sprintf("FAIL (> +%.0f%%)", (regressionLimit-1)*100)
			failed = true
		}
		fmt.Fprintf(w, "%-36s %14.0f %14.0f %+7.1f%%  %s\n", name, b.NsPerOp, n.NsPerOp, delta*100, verdict)
	}

	// Allocation gate, where both snapshots recorded allocs/op.
	for _, name := range names {
		b, n := base[name], next[name]
		if b.AllocsPerOp == nil || n.AllocsPerOp == nil {
			continue
		}
		ba, na := *b.AllocsPerOp, *n.AllocsPerOp
		verdict := "ok"
		if float64(na) > float64(ba)*allocsLimit {
			verdict = fmt.Sprintf("FAIL (> +%.0f%%)", (allocsLimit-1)*100)
			failed = true
		}
		fmt.Fprintf(w, "allocs/op %s: %d -> %d  %s\n", name, ba, na, verdict)
	}

	// Speedup contract: each warm fleet benchmark in the new run must beat
	// its cold counterpart by minWarmSpeedup.
	for _, name := range names {
		const warmPrefix = "BenchmarkFleetScanWarm"
		if !strings.HasPrefix(name, warmPrefix) {
			continue
		}
		cold := "BenchmarkFleetScan" + strings.TrimPrefix(name, warmPrefix)
		warmRes, wok := next[name]
		coldRes, cok := next[cold]
		if !wok || !cok {
			failed = true
			fmt.Fprintf(w, "speedup %s vs %s: FAIL (pair missing from new run)\n", cold, name)
			continue
		}
		ratio := coldRes.NsPerOp / warmRes.NsPerOp
		verdict := "ok"
		if ratio < minWarmSpeedup {
			verdict = fmt.Sprintf("FAIL (< %.1fx)", minWarmSpeedup)
			failed = true
		}
		fmt.Fprintf(w, "speedup %s vs %s: %.2fx  %s\n", cold, name, ratio, verdict)
	}
	return failed
}

// diffBenchFiles runs the diff on two snapshot files.
func diffBenchFiles(basePath, newPath string, w io.Writer) (bool, error) {
	base, err := readBenchFile(basePath)
	if err != nil {
		return false, err
	}
	next, err := readBenchFile(newPath)
	if err != nil {
		return false, err
	}
	return diffBenchResults(base, next, w), nil
}
