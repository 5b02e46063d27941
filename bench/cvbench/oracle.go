package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strconv"
	"sync"

	cv "configvalidator"
)

// digester computes name-free verdict digests: SHA-256 over each result's
// manifest entity, rule, status, message, detail and file, in report
// order. Entity names are left out because every delivery carries a
// unique name while its verdicts must equal the reference scan's. Not safe
// for concurrent use; each consumer owns one.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) digest(rep *cv.Report) [sha256.Size]byte {
	d.h.Reset()
	for _, r := range rep.Results {
		b := d.buf[:0]
		b = append(b, r.ManifestEntity...)
		b = append(b, 0)
		if r.Rule != nil {
			b = append(b, r.Rule.Name...)
		}
		b = append(b, 0)
		b = strconv.AppendInt(b, int64(r.Status), 10)
		b = append(b, 0)
		b = append(b, r.Message...)
		b = append(b, 0)
		b = append(b, r.Detail...)
		b = append(b, 0)
		b = append(b, r.File...)
		b = append(b, 1)
		d.h.Write(b)
		d.buf = b
	}
	var out [sha256.Size]byte
	d.h.Sum(out[:0])
	return out
}

// reference scans every distinct payload once with a plain serial
// Validator — no parse cache, no verdict memo, no intra-entity
// parallelism — and returns the verdict digest of each. Payloads are
// spread over GOMAXPROCS goroutines; the reference is untimed.
func reference(distinct []cv.Entity, opts ...cv.Option) ([][sha256.Size]byte, error) {
	v, err := cv.New(append(opts, cv.WithParallelism(1))...)
	if err != nil {
		return nil, fmt.Errorf("reference validator: %w", err)
	}
	out := make([][sha256.Size]byte, len(distinct))
	errs := make([]error, len(distinct))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < maxProcs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := newDigester()
			for i := range next {
				rep, err := v.Validate(distinct[i])
				if err != nil {
					errs[i] = fmt.Errorf("reference scan of %s: %w", distinct[i].Name(), err)
					continue
				}
				out[i] = d.digest(rep)
			}
		}()
	}
	for i := range distinct {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// digestOfDigests folds a pool's reference digests, in pool order, into
// the single value bench/golden.json pins.
func digestOfDigests(ds [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// golden is bench/golden.json: per workload, the digest-of-digests of the
// full-size pool at GoldenSeed.
type golden struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]string `json:"workloads"`
}

func readGolden(path string) (golden, error) {
	var g golden
	data, err := os.ReadFile(path)
	if err != nil {
		return g, fmt.Errorf("read golden file: %w", err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("parse golden file %s: %w", path, err)
	}
	return g, nil
}
