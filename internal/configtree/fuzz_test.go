package configtree

import (
	"strconv"
	"testing"
)

// fuzzTree builds a tree from shape: each byte adds one node, labelled
// from a small alphabet so paths and globs hit often, and then stays at,
// descends into, or climbs out of the current level.
func fuzzTree(shape []byte) *Node {
	labels := [...]string{"a", "b", "ab", "ba", "aa", "server", "listen", "x"}
	root := New("root")
	stack := []*Node{root}
	for i, c := range shape {
		if i == 256 {
			break
		}
		child := stack[len(stack)-1].Add(labels[c&7], strconv.Itoa(i))
		switch c >> 6 {
		case 1, 2:
			stack = append(stack, child)
		case 3:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	return root
}

// find is the reference the compiled matcher is held to: it expands the
// whole list of matched nodes one segment at a time. "**" takes each
// node itself and then its descendants in pre-order (zero or more
// levels). An empty path matches n itself.
func (n *Node) find(path string) []*Node {
	current := []*Node{n}
	for _, seg := range splitPath(path) {
		var next []*Node
		for _, c := range current {
			if seg.descend {
				next = append(next, c)
				next = c.walkAll(next)
			} else {
				next = append(next, c.matchChildren(seg)...)
			}
		}
		if seg.descend {
			// Overlapping "**" roots can reach the same descendant
			// through more than one ancestor; plain child expansion
			// cannot duplicate (every node has one parent).
			next = dedup(next)
		}
		if len(next) == 0 {
			return nil
		}
		current = next
	}
	return current
}

// walkAll appends all descendants of n (excluding n) in pre-order.
func (n *Node) walkAll(dst []*Node) []*Node {
	for _, c := range n.Children {
		dst = append(dst, c)
		dst = c.walkAll(dst)
	}
	return dst
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

// FuzzTreePath holds the compiled query path to the reference: for any
// generated tree and path expression, AppendFind(nil, Compile(p)) returns
// exactly find(p), node for node, and appending after a prefix leaves the
// prefix alone.
//
//	go test -fuzz FuzzTreePath -fuzztime 10s ./internal/configtree/
func FuzzTreePath(f *testing.F) {
	nested := []byte{0x40, 0x40, 0x41, 0x40, 0x00, 0xc1, 0x80, 0x40, 0x01, 0x02}
	for _, seed := range []struct {
		shape []byte
		path  string
	}{
		{nil, ""},
		{nil, "a"},
		{nested, "a"},
		{nested, "a/a/b"},
		{nested, "**/a"},
		{nested, "**/a/**/b"},
		{nested, "a/**/b"},
		{nested, "**/**"},
		{nested, "**"},
		{nested, "**/a[2]"},
		{nested, "*/b"},
		{nested, "a*/b*"},
		{nested, "a[2]/a"},
		{nested, "a[0]/a[x]"},
		{nested, "/a//a/"},
		{[]byte("server listen server listen"), "**/server/listen"},
	} {
		f.Add(seed.shape, seed.path)
	}
	f.Fuzz(func(t *testing.T, shape []byte, path string) {
		root := fuzzTree(shape)
		want := root.find(path)
		q := Compile(path)
		if got := root.AppendFind(nil, q); !sameNodes(got, want) {
			t.Fatalf("AppendFind(%q) = %s, find = %s", path, nodeIDs(got), nodeIDs(want))
		}
		prefix := []*Node{root, root}
		got := root.AppendFind(prefix, q)
		if len(got) < 2 || got[0] != root || got[1] != root || !sameNodes(got[2:], want) {
			t.Fatalf("AppendFind(%q) after a prefix = %s, want the prefix then %s", path, nodeIDs(got), nodeIDs(want))
		}
	})
}

func sameNodes(a, b []*Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nodeIDs renders nodes by label and the creation index fuzzTree stores
// as the value.
func nodeIDs(nodes []*Node) string {
	out := "["
	for i, n := range nodes {
		if i > 0 {
			out += " "
		}
		out += n.Label + "#" + n.Value
	}
	return out + "]"
}
