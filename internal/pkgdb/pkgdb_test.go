package pkgdb

import (
	"math/rand"
	"strings"
	"testing"
)

const sampleStatus = `Package: openssh-server
Status: install ok installed
Architecture: amd64
Version: 1:7.2p2-4ubuntu2.8
Description: secure shell (SSH) server
 This is a continuation line that must be ignored.

Package: nginx
Status: install ok installed
Architecture: amd64
Version: 1.10.3-0ubuntu0.16.04.5

Package: removed-pkg
Status: deinstall ok config-files
Version: 1.0
`

func TestParseStatusFile(t *testing.T) {
	pkgs, err := ParseStatusFile([]byte(sampleStatus))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("parsed %d packages", len(pkgs))
	}
	ssh := pkgs[0]
	if ssh.Name != "openssh-server" || ssh.Version != "1:7.2p2-4ubuntu2.8" || ssh.Architecture != "amd64" {
		t.Errorf("ssh = %+v", ssh)
	}
	if ssh.Status != "install ok installed" || pkgs[2].Status != "deinstall ok config-files" {
		t.Errorf("status = %q, %q", ssh.Status, pkgs[2].Status)
	}
}

func TestParseStatusFileErrors(t *testing.T) {
	if _, err := ParseStatusFile([]byte("Version: 1.0\n\n")); err == nil {
		t.Error("stanza without Package accepted")
	}
	if _, err := ParseStatusFile([]byte("not a field line\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	in := []Package{
		{Name: "a", Version: "1.0", Architecture: "amd64", Status: "install ok installed"},
		{Name: "b", Version: "2:3.4-5"},
	}
	out, err := ParseStatusFile(FormatStatusFile(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("round trip: %+v", out)
	}
}

func TestDB(t *testing.T) {
	db := New([]Package{{Name: "a", Version: "1"}, {Name: "b", Version: "2"}, {Name: "a", Version: "3"}})
	all := db.All()
	if len(all) != 2 || all[0].Name != "a" || all[1].Name != "b" {
		t.Errorf("All() = %+v", all)
	}
	if all[0].Version != "3" {
		t.Errorf("duplicate handling: %+v", all[0])
	}
}

func TestCompareVersions(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"1.0", "1.0", 0},
		{"1.0", "2.0", -1},
		{"2.0", "1.0", 1},
		{"1.10", "1.9", 1},     // numeric, not lexicographic
		{"1.0-1", "1.0-2", -1}, // revision compare
		{"1.0", "1.0-1", -1},   // empty revision sorts first
		{"1:1.0", "2.0", 1},    // epoch dominates
		{"0:1.0", "1.0", 0},    // explicit zero epoch
		{"1.0~rc1", "1.0", -1}, // tilde sorts before release
		{"1.0~rc1", "1.0~rc2", -1},
		{"1.0a", "1.0", 1}, // letters after digits extend
		{"1.0a", "1.0b", -1},
		{"1.0+b1", "1.0a", 1}, // non-letters sort after letters
		{"7.2p2", "7.2p1", 1},
		{"1:7.2p2-4ubuntu2.8", "1:7.2p2-4ubuntu2.10", -1},
		{"007", "7", 0}, // leading zeros
		{"1.2.3", "1.2", 1},
	}
	for _, tt := range tests {
		if got := CompareVersions(tt.a, tt.b); got != tt.want {
			t.Errorf("CompareVersions(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		// Antisymmetry.
		if got := CompareVersions(tt.b, tt.a); got != -tt.want {
			t.Errorf("CompareVersions(%q, %q) = %d, want %d", tt.b, tt.a, got, -tt.want)
		}
	}
}

// TestQuickCompareVersionsTotalOrder checks reflexivity, antisymmetry, and
// transitivity on random versions.
func TestQuickCompareVersionsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	randVersion := func() string {
		var b strings.Builder
		if r.Intn(4) == 0 {
			b.WriteString(strings.Repeat("1", 1+r.Intn(2)))
			b.WriteByte(':')
		}
		parts := 1 + r.Intn(3)
		for i := 0; i < parts; i++ {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString([]string{"0", "1", "2", "10", "3a", "rc", "~b", "p2"}[r.Intn(8)])
		}
		if r.Intn(3) == 0 {
			b.WriteByte('-')
			b.WriteString([]string{"1", "2ubuntu1", "0+deb9"}[r.Intn(3)])
		}
		return b.String()
	}
	for i := 0; i < 500; i++ {
		a, b, c := randVersion(), randVersion(), randVersion()
		if CompareVersions(a, a) != 0 {
			t.Fatalf("reflexivity broken for %q", a)
		}
		if CompareVersions(a, b) != -CompareVersions(b, a) {
			t.Fatalf("antisymmetry broken for %q vs %q", a, b)
		}
		// Transitivity: a<=b and b<=c implies a<=c.
		if CompareVersions(a, b) <= 0 && CompareVersions(b, c) <= 0 && CompareVersions(a, c) > 0 {
			t.Fatalf("transitivity broken: %q <= %q <= %q but a > c", a, b, c)
		}
	}
}
