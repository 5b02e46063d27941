package entity

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"configvalidator/internal/pkgdb"
)

// findPackage looks a package up by name in db.
func findPackage(db *pkgdb.DB, name string) (pkgdb.Package, bool) {
	for _, p := range db.All() {
		if p.Name == name {
			return p, true
		}
	}
	return pkgdb.Package{}, false
}

func TestClean(t *testing.T) {
	tests := []struct{ in, want string }{
		{"/etc/ssh/sshd_config", "/etc/ssh/sshd_config"},
		{"etc/ssh", "/etc/ssh"},
		{"/etc//ssh/", "/etc/ssh"},
		{"/etc/./ssh", "/etc/ssh"},
		{"/etc/../var", "/var"},
		{"/../..", "/"},
		{"", "/"},
		{"/", "/"},
	}
	for _, tt := range tests {
		if got := Clean(tt.in); got != tt.want {
			t.Errorf("Clean(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypeHost, TypeImage, TypeContainer, TypeCloud, TypeFrame} {
		back, err := ParseType(typ.String())
		if err != nil || back != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), back, err)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Error("bogus type parsed")
	}
}

func TestMemFiles(t *testing.T) {
	m := NewMem("test-host", TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"), WithMode(0o600), WithOwner(0, 0))
	m.AddFile("etc/sysctl.conf", []byte("net.ipv4.ip_forward = 0\n"))

	data, err := m.ReadFile("/etc/ssh/sshd_config")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "PermitRootLogin no\n" {
		t.Errorf("content = %q", data)
	}
	// Path normalization on read.
	if _, err := m.ReadFile("//etc//sysctl.conf"); err != nil {
		t.Errorf("normalized read failed: %v", err)
	}
	if _, err := m.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing file error = %v", err)
	}
	// Mutating the returned slice must not affect the entity.
	data[0] = 'X'
	again, _ := m.ReadFile("/etc/ssh/sshd_config")
	if again[0] != 'P' {
		t.Error("ReadFile returned aliased data")
	}
}

func TestMemStat(t *testing.T) {
	m := NewMem("h", TypeHost)
	mod := time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC)
	m.AddFile("/etc/passwd", []byte("root:x:0:0::/root:/bin/bash\n"), WithMode(0o644), WithOwner(0, 0), WithModTime(mod))

	fi, err := m.Stat("/etc/passwd")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Perm() != 0o644 || fi.UID != 0 || fi.GID != 0 || fi.IsDir() {
		t.Errorf("fi = %+v", fi)
	}
	if fi.Ownership() != "0:0" {
		t.Errorf("ownership = %q", fi.Ownership())
	}
	if !fi.ModTime.Equal(mod) {
		t.Errorf("modtime = %v", fi.ModTime)
	}
	// Implicit parent directory.
	di, err := m.Stat("/etc")
	if err != nil {
		t.Fatal(err)
	}
	if !di.IsDir() {
		t.Error("/etc should be a dir")
	}
	if _, err := m.Stat("/nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing stat error = %v", err)
	}
}

func TestMemWalk(t *testing.T) {
	m := NewMem("h", TypeHost)
	m.AddFile("/etc/nginx/nginx.conf", []byte("x"))
	m.AddFile("/etc/nginx/sites-enabled/default", []byte("y"))
	m.AddFile("/etc/ssh/sshd_config", []byte("z"))
	m.AddFile("/var/log/app.log", []byte("log"))

	var visited []string
	err := m.Walk("/etc/nginx", func(fi FileInfo) error {
		visited = append(visited, fi.Path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Directories are visited too (with IsDir set), in sorted order.
	want := []string{"/etc/nginx/nginx.conf", "/etc/nginx/sites-enabled", "/etc/nginx/sites-enabled/default"}
	if !reflect.DeepEqual(visited, want) {
		t.Errorf("visited = %v", visited)
	}
	var files []string
	if err := m.Walk("/etc/nginx", func(fi FileInfo) error {
		if !fi.IsDir() {
			files = append(files, fi.Path)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(files, []string{"/etc/nginx/nginx.conf", "/etc/nginx/sites-enabled/default"}) {
		t.Errorf("files = %v", files)
	}

	// Walk of a file path visits just the file.
	visited = nil
	if err := m.Walk("/etc/ssh/sshd_config", func(fi FileInfo) error {
		visited = append(visited, fi.Path)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(visited, []string{"/etc/ssh/sshd_config"}) {
		t.Errorf("file walk = %v", visited)
	}

	if err := m.Walk("/missing", func(FileInfo) error { return nil }); !errors.Is(err, ErrNotExist) {
		t.Errorf("walk missing = %v", err)
	}

	// Error propagation stops the walk.
	sentinel := errors.New("stop")
	count := 0
	err = m.Walk("/", func(FileInfo) error {
		count++
		return sentinel
	})
	if !errors.Is(err, sentinel) || count != 1 {
		t.Errorf("err = %v count = %d", err, count)
	}
}

func TestMemPackagesAndFeatures(t *testing.T) {
	m := NewMem("h", TypeHost)
	m.SetPackages([]pkgdb.Package{{Name: "nginx", Version: "1.10.3"}})
	m.AddPackage(pkgdb.Package{Name: "openssh-server", Version: "1:7.2p2"})
	db, err := m.Packages()
	if err != nil {
		t.Fatal(err)
	}
	if len(db.All()) != 2 {
		t.Errorf("packages = %d", len(db.All()))
	}
	m.SetFeature("mysql.ssl", "have_ssl: YES")
	out, err := m.RunFeature("mysql.ssl")
	if err != nil || out != "have_ssl: YES" {
		t.Errorf("feature = %q, %v", out, err)
	}
	if _, err := m.RunFeature("absent"); !errors.Is(err, ErrNoFeature) {
		t.Errorf("absent feature err = %v", err)
	}
	if got := m.Features(); !reflect.DeepEqual(got, []string{"mysql.ssl"}) {
		t.Errorf("features = %v", got)
	}
}

func TestMemRemoveFile(t *testing.T) {
	m := NewMem("h", TypeHost)
	m.AddFile("/a", []byte("1"))
	m.RemoveFile("/a")
	if _, err := m.ReadFile("/a"); !errors.Is(err, ErrNotExist) {
		t.Error("file still present after remove")
	}
}

func TestMemFilesAndDirsListing(t *testing.T) {
	m := NewMem("h", TypeHost)
	m.AddFile("/b/file", []byte("1"))
	m.AddFile("/a/file", []byte("2"))
	m.AddDir("/c/empty")
	files := m.Files()
	if !reflect.DeepEqual(files, []string{"/a/file", "/b/file"}) {
		t.Errorf("files = %v", files)
	}
	dirs := m.Dirs()
	want := []string{"/", "/a", "/b", "/c", "/c/empty"}
	if !reflect.DeepEqual(dirs, want) {
		t.Errorf("dirs = %v", dirs)
	}
}

func TestOSDirEntity(t *testing.T) {
	root := t.TempDir()
	mustWrite(t, filepath.Join(root, "etc/ssh/sshd_config"), "PermitRootLogin no\n", 0o600)
	mustWrite(t, filepath.Join(root, "etc/sysctl.conf"), "net.ipv4.ip_forward = 0\n", 0o644)
	mustWrite(t, filepath.Join(root, "var/lib/dpkg/status"),
		"Package: nginx\nStatus: install ok installed\nVersion: 1.10.3\n\n", 0o644)

	e := NewOSDir("testroot", TypeHost, root)
	if e.Name() != "testroot" || e.Type() != TypeHost {
		t.Errorf("identity = %s/%s", e.Name(), e.Type())
	}
	data, err := e.ReadFile("/etc/ssh/sshd_config")
	if err != nil || string(data) != "PermitRootLogin no\n" {
		t.Errorf("read = %q, %v", data, err)
	}
	fi, err := e.Stat("/etc/ssh/sshd_config")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Perm() != 0o600 {
		t.Errorf("perm = %o", fi.Perm())
	}
	if _, err := e.ReadFile("/missing"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing = %v", err)
	}

	var walked []string
	if err := e.Walk("/etc", func(fi FileInfo) error {
		walked = append(walked, fi.Path)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(walked, []string{"/etc/ssh", "/etc/ssh/sshd_config", "/etc/sysctl.conf"}) {
		t.Errorf("walked = %v", walked)
	}
	if err := e.Walk("/absent", func(FileInfo) error { return nil }); !errors.Is(err, ErrNotExist) {
		t.Errorf("walk missing = %v", err)
	}

	db, err := e.Packages()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := findPackage(db, "nginx"); !ok || p.Version != "1.10.3" {
		t.Errorf("nginx pkg = %+v ok=%v", p, ok)
	}

	e.SetFeature("sysctl.live", "net.ipv4.ip_forward = 0")
	if out, err := e.RunFeature("sysctl.live"); err != nil || out == "" {
		t.Errorf("feature = %q, %v", out, err)
	}
	if _, err := e.RunFeature("nope"); !errors.Is(err, ErrNoFeature) {
		t.Errorf("absent feature = %v", err)
	}
}

func TestOSDirNoPackages(t *testing.T) {
	e := NewOSDir("empty", TypeHost, t.TempDir())
	db, err := e.Packages()
	if err != nil || len(db.All()) != 0 {
		t.Errorf("empty packages = %v, %v", db, err)
	}
}

func mustWrite(t *testing.T, path, content string, mode fs.FileMode) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), mode); err != nil {
		t.Fatal(err)
	}
}
