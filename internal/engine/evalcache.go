package engine

import (
	"crypto/sha256"
	"strconv"
	"sync"

	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
)

// The evaluation memo extends content-addressing from parsing to verdicts.
// Tree and schema rules are pure functions of (rule, parsed configs), and
// a parse is a function of the path, which selects the lens, and the
// content: a rule whose entry holds files of the same paths and content
// sums as an earlier scan's (configSig) reuses that scan's verdict. Script
// rules are memoized too, keyed by the feature output they judged
// (scriptSig). Path rules read file metadata that no signature captures,
// and composites read other rules' per-entity outcomes; neither is
// memoized. An engine builds the memo only beside a crawler.ParseCache,
// whose key makes Read hash every file.

// maxMemoVerdicts bounds the verdict memo.
const maxMemoVerdicts = 1 << 16

// evalMemo is a bounded concurrent two-level map of rule verdicts: config
// signature → rule → verdict. The signature level is resolved once per
// manifest entry (or per script output), so the per-rule lookup on the hot
// path hashes a pointer, not a digest. The bound is a safety valve, not a
// working-set tuner — the natural population is (#rules × #distinct config
// payloads), far below the cap — so overflow clears the map instead of
// paying LRU bookkeeping on every hit.
type evalMemo struct {
	mu    sync.Mutex
	cap   int
	count int
	m     map[string]*sigVerdicts
}

// sigVerdicts holds every memoized verdict for one config signature.
type sigVerdicts struct {
	memo *evalMemo
	mu   sync.RWMutex
	m    map[*cvl.Rule]verdict
}

func newEvalMemo() *evalMemo {
	return &evalMemo{cap: maxMemoVerdicts, m: make(map[string]*sigVerdicts)}
}

// forSig resolves the verdict table for one signature, creating it on
// first sight sized for rules verdicts.
func (c *evalMemo) forSig(sig []byte, rules int) *sigVerdicts {
	c.mu.Lock()
	sv, ok := c.m[string(sig)]
	if !ok {
		sv = &sigVerdicts{memo: c, m: make(map[*cvl.Rule]verdict, rules)}
		c.m[string(sig)] = sv
	}
	c.mu.Unlock()
	return sv
}

// get returns rule's memoized verdict. A nil table (memo off) has none.
func (s *sigVerdicts) get(rule *cvl.Rule) (verdict, bool) {
	if s == nil {
		return verdict{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lookup(rule)
}

// lookup is get for a caller that holds the table's read lock (see
// rlock), so a batch of lookups takes the lock once.
func (s *sigVerdicts) lookup(rule *cvl.Rule) (verdict, bool) {
	if s == nil {
		return verdict{}, false
	}
	v, ok := s.m[rule]
	return v, ok
}

// rlock and runlock bracket a batch of lookups; both are no-ops on a nil
// table.
func (s *sigVerdicts) rlock() {
	if s != nil {
		s.mu.RLock()
	}
}

func (s *sigVerdicts) runlock() {
	if s != nil {
		s.mu.RUnlock()
	}
}

// put memoizes rule's verdict; a nil table (memo off) drops it.
func (s *sigVerdicts) put(rule *cvl.Rule, v verdict) {
	if s == nil {
		return
	}
	c := s.memo
	c.mu.Lock()
	if c.count >= c.cap {
		// Clear the whole memo; tables still referenced by in-flight
		// runs keep filling, which at worst overshoots the cap by one
		// fleet generation.
		c.m = make(map[string]*sigVerdicts)
		c.count = 0
	}
	c.count++
	c.mu.Unlock()
	s.mu.Lock()
	s.m[rule] = v
	s.mu.Unlock()
}

// memoizable reports whether a rule's outcome is a pure function of the
// crawled configs.
func memoizable(rule *cvl.Rule) bool {
	return rule.Type == cvl.TypeTree || rule.Type == cvl.TypeSchema
}

// configSig fingerprints a config set by each file's path and content
// SHA-256, or its error text, appended to buf. Paths and error texts are
// length-prefixed, so distinct config sets never share a signature. An
// empty set gets a constant marker: "this entry crawled nothing" is
// itself content, and the resulting not-applicable verdicts are the most
// common outcome in a heterogeneous fleet (most images don't carry most
// applications).
func configSig(buf []byte, configs []*crawler.FileConfig) []byte {
	if len(configs) == 0 {
		return append(buf, "\x00empty"...)
	}
	for _, fc := range configs {
		buf = appendField(buf, fc.Path)
		if fc.Err != nil {
			buf = appendField(append(buf, 'E'), fc.Err.Error())
		} else {
			buf = append(append(buf, 'S'), fc.Sum()...)
		}
		buf = append(buf, ';')
	}
	return buf
}

// appendField appends s with its length prefix.
func appendField(buf []byte, s string) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	return append(append(buf, ':'), s...)
}

// scriptSig keys a script-rule verdict by the feature output it judged:
// the verdict is a pure function of (rule, output), so entities whose
// runtime feature answered identically share one verdict.
func scriptSig(output string) [sha256.Size]byte {
	return sha256.Sum256([]byte("script\x00" + output))
}
