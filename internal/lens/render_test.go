package lens

import (
	"math/rand"
	"strings"
	"testing"

	"configvalidator/internal/configtree"
)

// roundTrip asserts Parse(Render(Parse(src))) ≡ Parse(src).
func roundTrip(t *testing.T, l Lens, src string) {
	t.Helper()
	r, ok := l.(Renderer)
	if !ok {
		t.Fatalf("lens %s does not implement Renderer", l.Name())
	}
	first, err := l.Parse("f", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rendered, err := r.Render(first.Tree)
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	second, err := l.Parse("f", rendered)
	if err != nil {
		t.Fatalf("re-parse of rendered output failed: %v\n%s", err, rendered)
	}
	if !first.Tree.Equal(second.Tree) {
		t.Errorf("round trip changed the tree:\noriginal:\n%srendered:\n%s\nre-parsed:\n%s",
			first.Tree, rendered, second.Tree)
	}
}

func TestRenderRoundTrips(t *testing.T) {
	tests := []struct {
		name string
		lens Lens
		src  string
	}{
		{"keyvalue", NewKeyValue("kv", "="), "a = 1\nb = two words\n"},
		{"sysctl", NewSysctl(), sampleSysctl},
		{"sshd", NewSSHD(), sampleSSHD},
		{"ini", NewINI("mysql"), sampleMyCnf},
		{"nginx", NewNginx(), sampleNginx},
		{"properties", NewProperties(), "app.name=demo\napp.port=8080\nflagonly\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			roundTrip(t, tt.lens, tt.src)
		})
	}
}

func TestRenderAfterEdit(t *testing.T) {
	// The remediation flow: parse, change a value, render, re-parse, and
	// observe the new value.
	l := NewSSHD()
	res, err := l.Parse("sshd_config", []byte("Port 22\nPermitRootLogin yes\n"))
	if err != nil {
		t.Fatal(err)
	}
	node, ok := nodeAt(res.Tree, "PermitRootLogin")
	if !ok {
		t.Fatal("key missing")
	}
	node.Value = "no"
	rendered, err := l.Render(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := l.Parse("sshd_config", rendered)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := valueAt(back.Tree, "PermitRootLogin"); v != "no" {
		t.Errorf("edited value = %q\nrendered:\n%s", v, rendered)
	}
	if v, _ := valueAt(back.Tree, "Port"); v != "22" {
		t.Errorf("untouched value = %q", v)
	}
}

func TestRenderErrorsOnUnrepresentableTrees(t *testing.T) {
	nested := configtree.New("f")
	sec := nested.Section("outer")
	sec.Section("inner").Add("k", "v")
	if _, err := NewKeyValue("kv", "=").Render(nested); err == nil {
		t.Error("keyvalue rendered a nested tree")
	}
	if _, err := NewINI("ini").Render(nested); err == nil {
		t.Error("ini rendered a doubly nested tree")
	}
	if _, err := NewProperties().Render(nested); err == nil {
		t.Error("properties rendered a nested tree")
	}
}

func TestNginxRenderNesting(t *testing.T) {
	l := NewNginx()
	res, err := l.Parse("f", []byte(sampleNginx))
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := l.Render(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	out := string(rendered)
	if !strings.Contains(out, "http {") || !strings.Contains(out, "location /api {") {
		t.Errorf("rendered nginx lost structure:\n%s", out)
	}
}

// TestQuickSysctlRenderRoundTrip property-tests the sysctl round trip over
// random key/value sets.
func TestQuickSysctlRenderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	segs := []string{"net", "ipv4", "ipv6", "conf", "all", "kernel", "fs"}
	l := NewSysctl()
	for i := 0; i < 200; i++ {
		var b strings.Builder
		seen := map[string]bool{}
		n := 1 + r.Intn(10)
		for j := 0; j < n; j++ {
			depth := 1 + r.Intn(4)
			parts := make([]string, depth)
			for d := range parts {
				parts[d] = segs[r.Intn(len(segs))]
			}
			key := strings.Join(parts, ".")
			// A key that is a prefix of another becomes an interior node
			// and can't hold a value; skip duplicates and prefixes.
			conflict := false
			for k := range seen {
				if k == key || strings.HasPrefix(k, key+".") || strings.HasPrefix(key, k+".") {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			seen[key] = true
			b.WriteString(key)
			b.WriteString(" = ")
			b.WriteString([]string{"0", "1", "2", "4096"}[r.Intn(4)])
			b.WriteByte('\n')
		}
		if len(seen) == 0 {
			continue
		}
		roundTrip(t, l, b.String())
	}
}
