package engine

import (
	"crypto/sha256"
	"strconv"
	"sync"

	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
)

// The evaluation memo extends content-addressing from parsing to verdicts:
// tree and schema rules are pure functions of (rule, normalized configs),
// so when the parse cache makes two entities' configs literally the same
// Results, the rule outcome is provably identical and the evaluation can
// be skipped. Script rules are memoized too, but keyed by the feature
// output they judged (scriptSig) rather than by the config signature. Path
// rules read file metadata that no signature captures, and composites read
// other rules' per-entity outcomes; neither is memoized.
//
// Only worth enabling together with a crawler.ParseCache — without one,
// every scan allocates fresh Results, no signature ever repeats, and the
// memo is pure overhead.

// DefaultEvalCacheSize bounds the verdict memo of an engine constructed
// with EvalCacheSize < 0.
const DefaultEvalCacheSize = 1 << 16

// verdict is the entity-independent part of a Result: everything except
// the EntityName/ManifestEntity attribution stamped per report.
type verdict struct {
	status  Status
	message string
	detail  string
	file    string
}

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

func newEvalMemo(capacity int) *evalMemo {
	if capacity < 0 {
		capacity = DefaultEvalCacheSize
	}
	if capacity == 0 {
		return nil
	}
	return &evalMemo{cap: capacity, m: make(map[string]*sigVerdicts)}
}

// forSig resolves the verdict table for one config signature, creating it
// on first sight.
func (c *evalMemo) forSig(sig string) *sigVerdicts {
	c.mu.Lock()
	sv, ok := c.m[sig]
	if !ok {
		sv = &sigVerdicts{memo: c, m: make(map[*cvl.Rule]verdict)}
		c.m[sig] = sv
	}
	c.mu.Unlock()
	return sv
}

// eval returns rule's memoized verdict stamped with this entity and entry,
// or evaluates it with fn and memoizes the outcome. A nil table (memo off)
// just calls fn.
func (s *sigVerdicts) eval(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, fn func() *Result) *Result {
	if s == nil {
		return fn()
	}
	s.mu.RLock()
	v, ok := s.m[rule]
	s.mu.RUnlock()
	if ok {
		return &Result{
			EntityName:     ent.Name(),
			ManifestEntity: entry.Name,
			Rule:           rule,
			Status:         v.status,
			Message:        v.message,
			Detail:         v.detail,
			File:           v.file,
		}
	}
	res := fn()
	s.put(rule, verdict{status: res.Status, message: res.Message, detail: res.Detail, file: res.File})
	return res
}

func (s *sigVerdicts) put(rule *cvl.Rule, v verdict) {
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

// configSig fingerprints a config set by each file's path, parse identity
// (the Result UID — stable for cache-shared Results, never reused), and
// error text. Two entities with equal signatures present rule evaluation
// with indistinguishable input. The fingerprint is folded to a SHA-256
// digest so map lookups hash 32 bytes per rule instead of the full
// manifest payload. An empty set gets a constant marker: "this entry
// crawled nothing" is itself content, and the resulting not-applicable
// verdicts are the most common outcome in a heterogeneous fleet (most
// images don't carry most applications).
func configSig(configs []*crawler.FileConfig) string {
	if len(configs) == 0 {
		return "\x00empty"
	}
	h := sha256.New()
	var buf [24]byte
	for _, fc := range configs {
		h.Write([]byte(fc.Path))
		buf[0] = 0
		h.Write(buf[:1])
		if fc.Err != nil {
			h.Write([]byte{'E'})
			h.Write([]byte(fc.Err.Error()))
		} else if fc.Result != nil {
			h.Write(strconv.AppendUint(buf[:0], fc.Result.UID(), 36))
		}
		buf[0] = 1
		h.Write(buf[:1])
	}
	return string(h.Sum(nil))
}

// scriptSig keys a script-rule verdict by the feature output it judged:
// checkValue is a pure function of (rule, output), so entities whose
// runtime feature answered identically share one verdict.
func scriptSig(output string) string {
	sum := sha256.Sum256([]byte("script\x00" + output))
	return string(sum[:])
}
