package configtree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// buildNginxLike constructs a tree shaped like a parsed nginx.conf.
func buildNginxLike() *Node {
	root := New("nginx.conf")
	root.Add("user", "www-data")
	http := root.Section("http")
	s1 := http.Section("server")
	s1.Add("listen", "80")
	s1.Add("server_name", "a.example.com")
	s2 := http.Section("server")
	s2.Add("listen", "443 ssl")
	s2.Add("server_name", "b.example.com")
	s2.Add("ssl_protocols", "TLSv1.2 TLSv1.3")
	s2.Add("ssl_certificate", "/etc/ssl/cert.pem")
	return root
}

// query runs path through the compiled matcher, the one the engine uses.
func query(root *Node, path string) []*Node {
	return root.AppendFind(nil, Compile(path))
}

// values returns the values of every node path matches.
func values(root *Node, path string) []string {
	var out []string
	for _, n := range query(root, path) {
		out = append(out, n.Value)
	}
	return out
}

// first returns the value of the first node path matches.
func first(root *Node, path string) (string, bool) {
	nodes := query(root, path)
	if len(nodes) == 0 {
		return "", false
	}
	return nodes[0].Value, true
}

func TestFindExactPath(t *testing.T) {
	root := buildNginxLike()
	got := values(root, "http/server/listen")
	want := []string{"80", "443 ssl"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("listen values = %v, want %v", got, want)
	}
}

func TestFindIndexedSegment(t *testing.T) {
	root := buildNginxLike()
	if v, ok := first(root, "http/server[2]/listen"); !ok || v != "443 ssl" {
		t.Errorf("server[2]/listen = %q ok=%v", v, ok)
	}
	if v, ok := first(root, "http/server[1]/server_name"); !ok || v != "a.example.com" {
		t.Errorf("server[1]/server_name = %q ok=%v", v, ok)
	}
	if _, ok := first(root, "http/server[3]"); ok {
		t.Error("server[3] should not exist")
	}
}

func TestFindGlobSegment(t *testing.T) {
	root := buildNginxLike()
	got := values(root, "http/server/ssl_*")
	if len(got) != 2 {
		t.Fatalf("ssl_* matches = %v", got)
	}
	if got[0] != "TLSv1.2 TLSv1.3" {
		t.Errorf("first ssl value = %q", got[0])
	}
	all := query(root, "http/*/server_name")
	if len(all) != 2 {
		t.Errorf("*/server_name matched %d nodes", len(all))
	}
}

func TestFindDescendant(t *testing.T) {
	root := buildNginxLike()
	nodes := query(root, "**/ssl_protocols")
	if len(nodes) != 1 || nodes[0].Value != "TLSv1.2 TLSv1.3" {
		t.Errorf("descendant search = %v", nodes)
	}
	listens := query(root, "**/listen")
	if len(listens) != 2 {
		t.Errorf("**/listen matched %d", len(listens))
	}
}

// TestDescendantSpansZeroOrMoreLevels pins "**" as descendant-or-self: a
// key directly under the root matches "**/key" just as a nested one does.
func TestDescendantSpansZeroOrMoreLevels(t *testing.T) {
	root := New("sshd_config")
	root.Add("PermitRootLogin", "yes")
	match := root.Section("Match")
	match.Add("PermitRootLogin", "no")
	deep := match.Section("Inner")
	deep.Add("PermitRootLogin", "deep")
	deep.Add("PermitRootLogin", "deeper")
	for _, tt := range []struct {
		path string
		want []string
	}{
		{"**/PermitRootLogin", []string{"yes", "no", "deep", "deeper"}}, // "**" spans 0, 1 and 2 levels
		{"**/Match", []string{""}},                                      // zero levels: a root child
		{"**", []string{"", "yes", "", "no", "", "deep", "deeper"}},     // the root itself and every descendant
		{"Match/**/PermitRootLogin", []string{"no", "deep", "deeper"}},  // zero levels below Match, then one
		{"**/PermitRootLogin[2]", []string{"deeper"}},                   // the index counts siblings under each parent
		{"**/Inner/**/PermitRootLogin", []string{"deep", "deeper"}},     // two "**" segments, each node once
		{"**/**/PermitRootLogin", []string{"yes", "no", "deep", "deeper"}},
		{"**/Missing", nil},
	} {
		if got := values(root, tt.path); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s = %q, want %q", tt.path, got, tt.want)
		}
	}
}

func TestFindEmptyPathIsSelf(t *testing.T) {
	root := buildNginxLike()
	for _, p := range []string{"", "/", "//"} {
		nodes := query(root, p)
		if len(nodes) != 1 || nodes[0] != root {
			t.Errorf("query %q = %v, want self", p, nodes)
		}
	}
}

func TestFindMissing(t *testing.T) {
	root := buildNginxLike()
	if nodes := query(root, "http/upstream"); nodes != nil {
		t.Errorf("missing path returned %v", nodes)
	}
	if _, ok := first(root, "nope/nope"); ok {
		t.Error("missing path should report absent")
	}
}

func TestPutAndGet(t *testing.T) {
	root := New("sysctl.conf")
	if _, err := root.Put("net/ipv4/ip_forward", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := root.Put("net/ipv4/tcp_syncookies", "1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := first(root, "net/ipv4/ip_forward"); v != "0" {
		t.Errorf("ip_forward = %q", v)
	}
	// Put reuses intermediate nodes.
	ipv4 := query(root, "net/ipv4")
	if len(ipv4) != 1 {
		t.Fatalf("expected one net/ipv4 node, got %d", len(ipv4))
	}
	if len(ipv4[0].Children) != 2 {
		t.Errorf("net/ipv4 children = %d", len(ipv4[0].Children))
	}
	// Overwrite.
	if _, err := root.Put("net/ipv4/ip_forward", "1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := first(root, "net/ipv4/ip_forward"); v != "1" {
		t.Errorf("ip_forward after overwrite = %q", v)
	}
}

func TestPutRejectsPatterns(t *testing.T) {
	root := New("x")
	if _, err := root.Put("a/*/b", "v"); err == nil {
		t.Error("Put with glob should fail")
	}
	if _, err := root.Put("a[1]/b", "v"); err == nil {
		t.Error("Put with index should fail")
	}
}

func TestWalkOrderAndStop(t *testing.T) {
	root := buildNginxLike()
	var visited []string
	root.Walk(func(path string, n *Node) bool {
		visited = append(visited, path)
		return true
	})
	if visited[0] != "nginx.conf" || visited[1] != "nginx.conf/user" {
		t.Errorf("walk order start = %v", visited[:2])
	}
	count := 0
	root.Walk(func(string, *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestCloneAndEqual(t *testing.T) {
	root := buildNginxLike()
	clone := root.Clone()
	if !root.Equal(clone) {
		t.Fatal("clone not equal to original")
	}
	clone.Children[0].Value = "changed"
	if root.Equal(clone) {
		t.Error("mutated clone still equal")
	}
	if root.Children[0].Value != "www-data" {
		t.Error("mutating clone affected original")
	}
	if (*Node)(nil).Equal(nil) != true {
		t.Error("nil==nil")
	}
	if root.Equal(nil) {
		t.Error("non-nil == nil")
	}
}

func TestStringRendering(t *testing.T) {
	root := New("f")
	root.Add("a", "1")
	s := root.Section("sec")
	s.Add("b", "2")
	got := root.String()
	want := "f\n  a = 1\n  sec\n    b = 2\n"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSize(t *testing.T) {
	root := buildNginxLike()
	if got := root.Size(); got != 11 {
		t.Errorf("Size = %d, want 11", got)
	}
}

func TestMatchGlob(t *testing.T) {
	tests := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "anything", true},
		{"ssl_*", "ssl_protocols", true},
		{"ssl_*", "listen", false},
		{"*_name", "server_name", true},
		{"a*c", "abc", true},
		{"a*c", "ac", true},
		{"a*c", "abd", false},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "acb", false},
		{"exact", "exact", true},
		{"exact", "exactx", false},
	}
	for _, tt := range tests {
		seg := Compile(tt.pattern).segs[0]
		if got := seg.match(tt.s); got != tt.want {
			t.Errorf("segment %q match(%q) = %v, want %v", tt.pattern, tt.s, got, tt.want)
		}
	}
}

// TestQuickPutThenFind checks the property: after Put(path, v), a query
// for path returns v, for random plain paths.
func TestQuickPutThenFind(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	labels := []string{"alpha", "beta", "gamma", "delta", "eps"}
	for i := 0; i < 300; i++ {
		root := New("root")
		type kv struct{ path, val string }
		var inserted []kv
		last := make(map[string]string)
		n := 1 + r.Intn(8)
		for j := 0; j < n; j++ {
			depth := 1 + r.Intn(4)
			segs := make([]string, depth)
			for d := range segs {
				segs[d] = labels[r.Intn(len(labels))]
			}
			path := strings.Join(segs, "/")
			val := labels[r.Intn(len(labels))] + "-" + string(rune('0'+j))
			if _, err := root.Put(path, val); err != nil {
				t.Fatalf("Put(%q): %v", path, err)
			}
			inserted = append(inserted, kv{path, val})
			last[path] = val
		}
		for _, e := range inserted {
			got, ok := first(root, e.path)
			if !ok {
				t.Fatalf("iteration %d: path %q not found after Put", i, e.path)
			}
			// A later Put to the same path (or to a prefix extension that
			// reuses a node) may overwrite; compare against last write.
			if want := last[e.path]; got != want && !isPrefixOfAnother(e.path, last) {
				t.Fatalf("iteration %d: query %q = %q, want %q", i, e.path, got, want)
			}
		}
	}
}

// isPrefixOfAnother reports whether path is a strict prefix of another
// inserted path, in which case its node may have been reused as a section.
func isPrefixOfAnother(path string, all map[string]string) bool {
	for other := range all {
		if other != path && strings.HasPrefix(other, path+"/") {
			return true
		}
	}
	return false
}

// TestQuickGlobSuperset checks that a glob query's results always include
// every exact-match query result it generalizes.
func TestQuickGlobSuperset(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	labels := []string{"aa", "ab", "ba", "bb"}
	for i := 0; i < 200; i++ {
		root := New("root")
		for j := 0; j < 10; j++ {
			path := labels[r.Intn(4)] + "/" + labels[r.Intn(4)]
			if _, err := root.Put(path, "v"); err != nil {
				t.Fatal(err)
			}
		}
		for _, l1 := range labels {
			for _, l2 := range labels {
				exact := query(root, l1+"/"+l2)
				glob := query(root, "*/"+l2)
				star := query(root, "**/"+l2)
				if !containsAll(glob, exact) {
					t.Fatalf("glob */%s missing exact %s/%s results", l2, l1, l2)
				}
				if !containsAll(star, exact) {
					t.Fatalf("** missing exact results for %s/%s", l1, l2)
				}
			}
		}
	}
}

func containsAll(haystack, needles []*Node) bool {
	set := make(map[*Node]struct{}, len(haystack))
	for _, n := range haystack {
		set[n] = struct{}{}
	}
	for _, n := range needles {
		if _, ok := set[n]; !ok {
			return false
		}
	}
	return true
}

// TestAppendFindReusesDst pins the allocation contract the rule engine
// relies on: with a reused destination that has room, AppendFind does not
// allocate, "**" walks included.
func TestAppendFindReusesDst(t *testing.T) {
	root := New("nginx.conf")
	http := root.Section("http")
	for i := 0; i < 3; i++ {
		s := http.Section("server")
		s.Add("listen", "443 ssl")
		s.Add("ssl_protocols", "TLSv1.2")
	}
	var buf [8]*Node
	for _, tt := range []struct {
		path string
		want int
	}{{"http/server/listen", 3}, {"**/ssl_*", 3}, {"http/server[2]/listen", 1}, {"missing", 0}} {
		path, want := tt.path, tt.want
		q := Compile(path)
		if n := testing.AllocsPerRun(100, func() {
			if got := len(root.AppendFind(buf[:0], q)); got != want {
				t.Fatalf("%s: %d nodes, want %d", path, got, want)
			}
		}); n != 0 {
			t.Errorf("AppendFind(%q) allocates %v times with a reused dst, want 0", path, n)
		}
	}
}
