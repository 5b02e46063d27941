// Package pkgdb models the installed-software state of an entity: package
// names, versions, and architecture, as recorded by a dpkg-style status
// database. Validation rules use it for the "software packages and their
// versions" portion of system state (paper §2.1.2).
package pkgdb

import (
	"fmt"
	"sort"
	"strings"
)

// Package describes one installed package.
type Package struct {
	// Name is the package name, e.g. "openssh-server".
	Name string
	// Version is the full dpkg version, e.g. "1:7.2p2-4ubuntu2.8".
	Version string
	// Architecture is e.g. "amd64".
	Architecture string
	// Status is the dpkg status line, e.g. "install ok installed".
	Status string
}

// DB is a queryable package database.
type DB struct {
	packages map[string]Package
}

// New builds a database from a package list. Later duplicates win.
func New(packages []Package) *DB {
	db := &DB{packages: make(map[string]Package, len(packages))}
	for _, p := range packages {
		db.packages[p.Name] = p
	}
	return db
}

// All returns every package sorted by name.
func (db *DB) All() []Package {
	out := make([]Package, 0, len(db.packages))
	for _, p := range db.packages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParseStatusFile parses a dpkg-style status database:
//
//	Package: openssh-server
//	Status: install ok installed
//	Version: 1:7.2p2-4ubuntu2.8
//	Architecture: amd64
//	<blank line between stanzas>
func ParseStatusFile(content []byte) ([]Package, error) {
	var out []Package
	var cur Package
	flush := func(line int) error {
		if cur == (Package{}) {
			return nil
		}
		if cur.Name == "" {
			return fmt.Errorf("pkgdb: stanza ending at line %d has no Package field", line)
		}
		out = append(out, cur)
		cur = Package{}
		return nil
	}
	lines := strings.Split(strings.ReplaceAll(string(content), "\r\n", "\n"), "\n")
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			if err := flush(i + 1); err != nil {
				return nil, err
			}
			continue
		}
		if line[0] == ' ' || line[0] == '\t' {
			continue // continuation of a multi-line field (e.g. Description)
		}
		idx := strings.IndexByte(line, ':')
		if idx < 0 {
			return nil, fmt.Errorf("pkgdb: line %d: expected 'Field: value', got %q", i+1, line)
		}
		field := line[:idx]
		value := strings.TrimSpace(line[idx+1:])
		switch field {
		case "Package":
			cur.Name = value
		case "Version":
			cur.Version = value
		case "Architecture":
			cur.Architecture = value
		case "Status":
			cur.Status = value
		}
	}
	if err := flush(len(lines)); err != nil {
		return nil, err
	}
	return out, nil
}

// FormatStatusFile renders packages in the dpkg status format parsed by
// ParseStatusFile.
func FormatStatusFile(packages []Package) []byte {
	var b strings.Builder
	for _, p := range packages {
		fmt.Fprintf(&b, "Package: %s\n", p.Name)
		if p.Status != "" {
			fmt.Fprintf(&b, "Status: %s\n", p.Status)
		}
		if p.Architecture != "" {
			fmt.Fprintf(&b, "Architecture: %s\n", p.Architecture)
		}
		if p.Version != "" {
			fmt.Fprintf(&b, "Version: %s\n", p.Version)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// CompareVersions compares two dpkg versions, returning -1, 0, or 1. It
// implements the dpkg algorithm: [epoch:]upstream[-revision], where the
// upstream and revision parts alternate non-digit and digit runs, '~' sorts
// before everything (including the empty string), and letters sort before
// non-letters.
func CompareVersions(a, b string) int {
	ae, au, ar := splitVersion(a)
	be, bu, br := splitVersion(b)
	if ae != be {
		if ae < be {
			return -1
		}
		return 1
	}
	if c := compareDpkgPart(au, bu); c != 0 {
		return c
	}
	return compareDpkgPart(ar, br)
}

func splitVersion(v string) (epoch int, upstream, revision string) {
	if idx := strings.IndexByte(v, ':'); idx >= 0 {
		for _, c := range v[:idx] {
			if c < '0' || c > '9' {
				epoch = 0
				goto noEpoch
			}
		}
		for _, c := range v[:idx] {
			epoch = epoch*10 + int(c-'0')
		}
		v = v[idx+1:]
	}
noEpoch:
	if idx := strings.LastIndexByte(v, '-'); idx >= 0 {
		return epoch, v[:idx], v[idx+1:]
	}
	return epoch, v, ""
}

func compareDpkgPart(a, b string) int {
	for a != "" || b != "" {
		// Compare non-digit prefixes.
		an, a2 := takeNonDigits(a)
		bn, b2 := takeNonDigits(b)
		if c := compareNonDigits(an, bn); c != 0 {
			return c
		}
		a, b = a2, b2
		// Compare digit prefixes numerically.
		ad, a3 := takeDigits(a)
		bd, b3 := takeDigits(b)
		if c := compareNumeric(ad, bd); c != 0 {
			return c
		}
		a, b = a3, b3
	}
	return 0
}

func takeNonDigits(s string) (string, string) {
	i := 0
	for i < len(s) && (s[i] < '0' || s[i] > '9') {
		i++
	}
	return s[:i], s[i:]
}

func takeDigits(s string) (string, string) {
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	return s[:i], s[i:]
}

// compareNonDigits compares per dpkg rules: '~' < end-of-string < letters <
// non-letters, otherwise byte order.
func compareNonDigits(a, b string) int {
	i := 0
	for {
		var ca, cb int
		switch {
		case i < len(a):
			ca = dpkgOrder(a[i])
		default:
			ca = 0
		}
		switch {
		case i < len(b):
			cb = dpkgOrder(b[i])
		default:
			cb = 0
		}
		if i >= len(a) && i >= len(b) {
			return 0
		}
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
		i++
	}
}

func dpkgOrder(c byte) int {
	switch {
	case c == '~':
		return -1
	case (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		return int(c)
	default:
		return int(c) + 256
	}
}

func compareNumeric(a, b string) int {
	a = strings.TrimLeft(a, "0")
	b = strings.TrimLeft(b, "0")
	if len(a) != len(b) {
		if len(a) < len(b) {
			return -1
		}
		return 1
	}
	return strings.Compare(a, b)
}
