// Package configtree defines the normalized key-value tree structure that
// the data normalizer produces from raw configuration files and that the
// rule engine queries.
//
// The tree mirrors the Augeas model used by ConfigValidator: every node has
// a label, an optional scalar value, and ordered children. Repeated labels
// are allowed (an nginx configuration may contain several "server" blocks).
// Nodes are addressed with slash-separated paths supporting per-segment
// globs, 1-based indices for repeated labels, and a "**" descendant
// wildcard:
//
//	server/listen        every listen directive in every server block
//	server[2]/listen     listen directives of the second server block only
//	*/ssl_*              any ssl_-prefixed key one level down
//	**/PermitRootLogin   the key at any depth
package configtree

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node is one element of a configuration tree.
type Node struct {
	// Label is the node name, e.g. a configuration key or section name.
	Label string
	// Value is the scalar value for leaf-style nodes; empty for sections.
	Value string
	// Children holds nested nodes in file order.
	Children []*Node
	// File is the source file this node was parsed from, when known.
	File string
	// Line is the 1-based source line this node starts on, when known.
	Line int
}

// New returns a root node with the given label. Roots conventionally use the
// file path or entity name as label.
func New(label string) *Node {
	return &Node{Label: label}
}

// Add appends a child with the given label and value and returns it.
func (n *Node) Add(label, value string) *Node {
	child := &Node{Label: label, Value: value, File: n.File}
	n.Children = append(n.Children, child)
	return child
}

// AddNode appends an existing node as a child and returns it.
func (n *Node) AddNode(child *Node) *Node {
	n.Children = append(n.Children, child)
	return child
}

// Section appends (or reuses the last) child section with the given label
// and returns it. Unlike Add it leaves Value empty.
func (n *Node) Section(label string) *Node {
	child := &Node{Label: label, File: n.File}
	n.Children = append(n.Children, child)
	return child
}

// ChildrenByLabel returns all direct children whose label equals label.
func (n *Node) ChildrenByLabel(label string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Label == label {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first direct child with the given label.
func (n *Node) Child(label string) (*Node, bool) {
	for _, c := range n.Children {
		if c.Label == label {
			return c, true
		}
	}
	return nil, false
}

// Find returns every node matching the path expression, in document order.
// An empty path matches the receiver itself. Find parses the expression on
// every call; code that runs one expression against many trees should
// Compile it once and use AppendFind.
func (n *Node) Find(path string) []*Node {
	segs := splitPath(path)
	if len(segs) == 0 {
		return []*Node{n}
	}
	current := []*Node{n}
	for _, seg := range segs {
		var next []*Node
		if seg.descend {
			for _, c := range current {
				c.walkAll(func(d *Node) {
					if seg.match(d.Label) {
						next = append(next, d)
					}
				})
			}
			// Overlapping "**" roots can reach the same descendant
			// through more than one ancestor; plain child expansion
			// cannot duplicate (every node has one parent).
			next = dedup(next)
		} else {
			for _, c := range current {
				next = append(next, c.matchChildren(seg)...)
			}
		}
		if len(next) == 0 {
			return nil
		}
		current = next
	}
	return current
}

// Query is a compiled path expression: parse it once with Compile and run
// it against any number of trees with AppendFind.
type Query struct {
	segs []segment
	// dedup is set when the expression holds two or more "**" segments:
	// only then can a depth-first walk reach one node along two routes.
	dedup bool
}

// Compile parses a path expression (see the package comment for the
// syntax).
func Compile(path string) Query {
	q := Query{segs: splitPath(path)}
	descends := 0
	for _, s := range q.segs {
		if s.descend {
			descends++
		}
	}
	q.dedup = descends > 1
	return q
}

// AppendFind appends the nodes q matches to dst — the same nodes, in the
// same order, that Find returns for q's expression — and returns the
// extended slice. It walks the tree depth-first without building
// per-segment node lists, so with a reused dst it does not allocate. A nil
// receiver matches nothing.
func (n *Node) AppendFind(dst []*Node, q Query) []*Node {
	if n == nil {
		return dst
	}
	start := len(dst)
	dst = n.appendMatches(dst, q.segs)
	if q.dedup {
		dst = append(dst[:start], dedup(dst[start:])...)
	}
	return dst
}

// appendMatches appends the nodes segs match below n. Depth-first
// expansion visits matches in the order of Find's level-by-level
// expansion: both concatenate each node's matches in document order. A
// "**" segment recurses with itself still leading, so every descendant
// is tried in pre-order. (One self-recursive function, rather than a
// separate descendant walk, keeps dst off the heap in callers.)
func (n *Node) appendMatches(dst []*Node, segs []segment) []*Node {
	if len(segs) == 0 {
		return append(dst, n)
	}
	seg, rest := &segs[0], segs[1:]
	nth := 0
	for _, c := range n.Children {
		if seg.descend {
			if seg.match(c.Label) {
				dst = c.appendMatches(dst, rest)
			}
			dst = c.appendMatches(dst, segs)
			continue
		}
		if !seg.match(c.Label) {
			continue
		}
		nth++
		if seg.index != 0 && nth != seg.index {
			continue
		}
		dst = c.appendMatches(dst, rest)
	}
	return dst
}

// Get returns the first node matching the path expression.
func (n *Node) Get(path string) (*Node, bool) {
	matches := n.Find(path)
	if len(matches) == 0 {
		return nil, false
	}
	return matches[0], true
}

// ValueAt returns the value of the first node matching path.
func (n *Node) ValueAt(path string) (string, bool) {
	node, ok := n.Get(path)
	if !ok {
		return "", false
	}
	return node.Value, true
}

// ValuesAt returns the values of every node matching path.
func (n *Node) ValuesAt(path string) []string {
	matches := n.Find(path)
	out := make([]string, len(matches))
	for i, m := range matches {
		out[i] = m.Value
	}
	return out
}

// Put creates (or reuses) the nodes along a plain path (no globs or
// indices), sets the final node's value, and returns that node. Existing
// nodes are reused; missing ones are appended.
func (n *Node) Put(path, value string) (*Node, error) {
	segs := strings.Split(strings.Trim(path, "/"), "/")
	cur := n
	for _, label := range segs {
		if label == "" {
			continue
		}
		if strings.ContainsAny(label, "*[") {
			return nil, fmt.Errorf("configtree: Put path %q contains pattern syntax", path)
		}
		child, ok := cur.Child(label)
		if !ok {
			child = cur.Add(label, "")
		}
		cur = child
	}
	cur.Value = value
	return cur, nil
}

// Walk visits the receiver and all descendants in depth-first document
// order. Returning false from fn stops the walk.
func (n *Node) Walk(fn func(path string, node *Node) bool) {
	n.walk("", fn)
}

func (n *Node) walk(prefix string, fn func(string, *Node) bool) bool {
	path := n.Label
	if prefix != "" {
		path = prefix + "/" + n.Label
	}
	if !fn(path, n) {
		return false
	}
	for _, c := range n.Children {
		if !c.walk(path, fn) {
			return false
		}
	}
	return true
}

// walkAll visits all descendants (excluding the receiver).
func (n *Node) walkAll(fn func(*Node)) {
	for _, c := range n.Children {
		fn(c)
		c.walkAll(fn)
	}
}

// Leaves returns all descendant nodes that have no children.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.walkAll(func(d *Node) {
		if len(d.Children) == 0 {
			out = append(out, d)
		}
	})
	if len(n.Children) == 0 {
		out = append(out, n)
	}
	return out
}

// Size returns the total number of nodes in the tree including the receiver.
func (n *Node) Size() int {
	total := 1
	for _, c := range n.Children {
		total += c.Size()
	}
	return total
}

// String renders the tree in a compact indented form for debugging and
// golden tests.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Label)
	if n.Value != "" {
		b.WriteString(" = ")
		b.WriteString(n.Value)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}

// Clone returns a deep copy of the tree.
func (n *Node) Clone() *Node {
	out := &Node{Label: n.Label, Value: n.Value, File: n.File, Line: n.Line}
	if len(n.Children) > 0 {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = c.Clone()
		}
	}
	return out
}

// Equal reports structural equality (label, value, children; ignores
// File/Line provenance).
func (n *Node) Equal(other *Node) bool {
	if n == nil || other == nil {
		return n == other
	}
	if n.Label != other.Label || n.Value != other.Value || len(n.Children) != len(other.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(other.Children[i]) {
			return false
		}
	}
	return true
}

// segment is one parsed path component.
type segment struct {
	label   string   // label pattern, may contain * wildcards
	parts   []string // label split at '*', when it holds a partial wildcard
	index   int      // 1-based index among matching siblings; 0 = all
	descend bool     // true for "**": match at any depth
}

func splitPath(path string) []segment {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil
	}
	parts := strings.Split(path, "/")
	segs := make([]segment, 0, len(parts))
	for _, p := range parts {
		if p == "" {
			continue
		}
		if p == "**" {
			segs = append(segs, segment{label: "*", descend: true})
			continue
		}
		s := segment{label: p}
		if i := strings.IndexByte(p, '['); i >= 0 && strings.HasSuffix(p, "]") {
			if idx, err := strconv.Atoi(p[i+1 : len(p)-1]); err == nil && idx > 0 {
				s.label = p[:i]
				s.index = idx
			}
		}
		if s.label != "*" && strings.Contains(s.label, "*") {
			s.parts = strings.Split(s.label, "*")
		}
		segs = append(segs, s)
	}
	return segs
}

func (n *Node) matchChildren(seg segment) []*Node {
	var out []*Node
	nth := 0
	for _, c := range n.Children {
		if !seg.match(c.Label) {
			continue
		}
		nth++
		if seg.index != 0 && nth != seg.index {
			continue
		}
		out = append(out, c)
	}
	return out
}

// match matches the segment's label pattern against label, where '*'
// matches any run of characters (including none).
func (seg *segment) match(label string) bool {
	if seg.label == "*" {
		return true
	}
	if seg.parts == nil {
		return seg.label == label
	}
	parts := seg.parts
	if !strings.HasPrefix(label, parts[0]) {
		return false
	}
	label = label[len(parts[0]):]
	for i := 1; i < len(parts)-1; i++ {
		idx := strings.Index(label, parts[i])
		if idx < 0 {
			return false
		}
		label = label[idx+len(parts[i]):]
	}
	return strings.HasSuffix(label, parts[len(parts)-1])
}

func dedup(nodes []*Node) []*Node {
	seen := make(map[*Node]struct{}, len(nodes))
	out := nodes[:0]
	for _, n := range nodes {
		if _, ok := seen[n]; ok {
			continue
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	return out
}

// SortChildren orders the direct children by label (stable), which is
// useful for deterministic output of unordered sources.
func (n *Node) SortChildren() {
	sort.SliceStable(n.Children, func(i, j int) bool {
		return n.Children[i].Label < n.Children[j].Label
	})
}
