// Package yaml implements the YAML subset used by the Configuration
// Validation Language (CVL).
//
// The subset covers everything that appears in CVL rule files and manifests:
// block and flow mappings, block and flow sequences, plain/single/double
// quoted scalars, comments, literal (|) and folded (>) block scalars, and
// multi-document streams. It deliberately excludes anchors, aliases, tags,
// and complex (non-scalar) mapping keys; inputs using those constructs are
// rejected with a descriptive error rather than silently mis-parsed.
//
// Decoded values use the following Go types:
//
//	mapping  -> *yaml.Map (insertion ordered)
//	sequence -> []any
//	string   -> string
//	integer  -> int64
//	float    -> float64
//	boolean  -> bool
//	null     -> nil
package yaml

import "fmt"

// Pos is a 1-based source position. The zero value means the position is
// unknown (for example on a Map built programmatically rather than decoded).
type Pos struct {
	Line int
	Col  int
}

// IsZero reports whether the position is unknown.
func (p Pos) IsZero() bool { return p.Line == 0 }

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Map is an insertion-ordered string-keyed mapping. YAML mappings decode to
// *Map so that rule files keep their author-written key order, which matters
// for linting, round-tripping, and stable report output.
//
// A Map is one slice of entries in key order, read by position with Len
// and At. Lookups by key scan the entries while the map holds at most 16
// keys and go through a hash index above that, so building or querying a
// large mapping stays linear.
//
// Decoded maps additionally carry the source position of each key token
// (see KeyPos and Start), so tools such as the CVL static analyzer can point
// diagnostics at the offending line. Positions inside flow mappings
// ({k: v}) are relative to the start of the flow text and therefore
// approximate in column; block mappings are exact.
type Map struct {
	entries []entry
	index   map[string]int32 // key -> entry position; nil up to linearScanMax keys
	start   Pos
}

// entry is one key of a Map with its value and key position.
type entry struct {
	key string
	val any
	pos Pos
}

// linearScanMax is the largest Map looked up by scanning its entries; a
// larger one keeps a hash index.
const linearScanMax = 16

// NewMap returns an empty ordered map.
func NewMap() *Map {
	return &Map{}
}

// newMapIndex indexes entries by key.
func newMapIndex(entries []entry) map[string]int32 {
	index := make(map[string]int32, 2*len(entries))
	for i := range entries {
		index[entries[i].key] = int32(i)
	}
	return index
}

// Len reports the number of keys.
func (m *Map) Len() int {
	if m == nil {
		return 0
	}
	return len(m.entries)
}

// At returns the key and value of the i-th entry in key order, for
// 0 <= i < Len().
func (m *Map) At(i int) (key string, value any) {
	e := &m.entries[i]
	return e.key, e.val
}

// Keys returns the keys in insertion order. The returned slice is a copy.
func (m *Map) Keys() []string {
	if m == nil {
		return nil
	}
	out := make([]string, len(m.entries))
	for i := range m.entries {
		out[i] = m.entries[i].key
	}
	return out
}

// find returns the position of key, or -1.
func (m *Map) find(key string) int {
	if m == nil {
		return -1
	}
	return indexOf(m.entries, m.index, key)
}

// indexOf returns the position of key among entries, looked up in index
// when there is one and scanned for otherwise, or -1.
func indexOf(entries []entry, index map[string]int32, key string) int {
	if index != nil {
		if i, ok := index[key]; ok {
			return int(i)
		}
		return -1
	}
	for i := range entries {
		if entries[i].key == key {
			return i
		}
	}
	return -1
}

// Get returns the value stored under key and whether it was present.
func (m *Map) Get(key string) (any, bool) {
	i := m.find(key)
	if i < 0 {
		return nil, false
	}
	return m.entries[i].val, true
}

// Has reports whether key is present.
func (m *Map) Has(key string) bool {
	return m.find(key) >= 0
}

// Set stores value under key, preserving the original position when the key
// already exists.
func (m *Map) Set(key string, value any) {
	if i := m.find(key); i >= 0 {
		m.entries[i].val = value
		return
	}
	m.entries = append(m.entries, entry{key: key, val: value})
	switch n := len(m.entries); {
	case m.index != nil:
		m.index[key] = int32(n - 1)
	case n > linearScanMax:
		m.index = newMapIndex(m.entries)
	}
}

// KeyPos returns the source position of key's key token. The zero Pos is
// returned for maps built programmatically or keys set after decoding.
func (m *Map) KeyPos(key string) Pos {
	i := m.find(key)
	if i < 0 {
		return Pos{}
	}
	return m.entries[i].pos
}

// SetKeyPos records the source position of key's key token; an absent key
// is ignored. The first recorded position also becomes the map's Start
// when none is set yet.
func (m *Map) SetKeyPos(key string, p Pos) {
	i := m.find(key)
	if i < 0 {
		return
	}
	m.entries[i].pos = p
	if m.start.IsZero() {
		m.start = p
	}
}

// Start returns the position where the mapping begins (its first decoded
// key), or the zero Pos when unknown.
func (m *Map) Start() Pos {
	if m == nil {
		return Pos{}
	}
	return m.start
}

// String returns the value under key when it is a string. ok is false when
// the key is absent or holds a non-string value.
func (m *Map) String(key string) (string, bool) {
	v, ok := m.Get(key)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

// Map returns the value under key when it is a nested mapping.
func (m *Map) Map(key string) (*Map, bool) {
	v, ok := m.Get(key)
	if !ok {
		return nil, false
	}
	mm, ok := v.(*Map)
	return mm, ok
}

// Equal reports deep equality with another map, ignoring key order.
func (m *Map) Equal(other *Map) bool {
	if m.Len() != other.Len() {
		return false
	}
	for i := 0; i < m.Len(); i++ {
		e := &m.entries[i]
		ov, ok := other.Get(e.key)
		if !ok || !valueEqual(e.val, ov) {
			return false
		}
	}
	return true
}

func valueEqual(a, b any) bool {
	switch av := a.(type) {
	case *Map:
		bv, ok := b.(*Map)
		return ok && av.Equal(bv)
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !valueEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// SyntaxError describes a YAML parse failure with source position.
type SyntaxError struct {
	Line int    // 1-based line number
	Col  int    // 1-based column number
	Msg  string // human-readable description
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("yaml: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

func syntaxErrorf(line, col int, format string, args ...any) error {
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
