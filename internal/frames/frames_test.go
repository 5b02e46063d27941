package frames

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"configvalidator/internal/entity"
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

func sampleEntity() *entity.Mem {
	m := entity.NewMem("web-01", entity.TypeHost)
	m.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\nPort 22\n"),
		entity.WithMode(0o600), entity.WithOwner(0, 0),
		entity.WithModTime(time.Date(2017, 12, 11, 10, 0, 0, 0, time.UTC)))
	m.AddFile("/etc/sysctl.conf", []byte("net.ipv4.ip_forward = 0\n"))
	m.AddFile("/etc/nginx/nginx.conf", []byte("user www-data;\n"))
	m.SetPackages([]pkgdb.Package{
		{Name: "nginx", Version: "1.10.3", Architecture: "amd64", Status: "install ok installed"},
	})
	m.SetFeature("sysctl.runtime", "net.ipv4.ip_forward = 0\nkernel.kptr_restrict = 1")
	return m
}

func capture(t *testing.T, e entity.Entity, roots []string) *Frame {
	t.Helper()
	f, err := Capture(e, roots, time.Date(2017, 12, 12, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCaptureAll(t *testing.T) {
	f := capture(t, sampleEntity(), nil)
	if f.Name != "web-01" || f.EntityType != entity.TypeHost {
		t.Errorf("header = %s/%s", f.Name, f.EntityType)
	}
	if f.NumFiles() != 3 {
		t.Errorf("files = %d", f.NumFiles())
	}
	if f.NumPackages() != 1 {
		t.Errorf("packages = %d", f.NumPackages())
	}
}

func TestCaptureSelectedRoots(t *testing.T) {
	f := capture(t, sampleEntity(), []string{"/etc/ssh", "/etc/nginx", "/nonexistent"})
	if f.NumFiles() != 2 {
		t.Errorf("files = %d", f.NumFiles())
	}
}

func TestCaptureDedupsOverlappingRoots(t *testing.T) {
	f := capture(t, sampleEntity(), []string{"/etc", "/etc/ssh"})
	if f.NumFiles() != 3 {
		t.Errorf("files = %d, want 3 (no duplicates)", f.NumFiles())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	src := sampleEntity()
	f := capture(t, src, nil)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != f.Name || back.EntityType != f.EntityType {
		t.Errorf("header mismatch: %s/%s", back.Name, back.EntityType)
	}
	if !back.Captured.Equal(f.Captured) {
		t.Errorf("captured = %v, want %v", back.Captured, f.Captured)
	}

	// The materialized entity reproduces the source's observable state,
	// including its original type (a frame of a host validates as a host).
	m := back.Entity()
	if m.Type() != entity.TypeHost {
		t.Errorf("materialized type = %v", m.Type())
	}
	data, err := m.ReadFile("/etc/ssh/sshd_config")
	if err != nil || !strings.Contains(string(data), "PermitRootLogin no") {
		t.Errorf("sshd_config = %q, %v", data, err)
	}
	fi, err := m.Stat("/etc/ssh/sshd_config")
	if err != nil || fi.Perm() != 0o600 || fi.Ownership() != "0:0" {
		t.Errorf("metadata = %+v, %v", fi, err)
	}
	if !fi.ModTime.Equal(time.Date(2017, 12, 11, 10, 0, 0, 0, time.UTC)) {
		t.Errorf("mtime = %v", fi.ModTime)
	}
	db, err := m.Packages()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := findPackage(db, "nginx"); !ok || p.Version != "1.10.3" || p.Status != "install ok installed" {
		t.Errorf("nginx = %+v ok=%v", p, ok)
	}
	out, err := m.RunFeature("sysctl.runtime")
	if err != nil || !strings.Contains(out, "kptr_restrict") {
		t.Errorf("feature = %q, %v", out, err)
	}
}

func TestDirectoryMetadataSurvivesFrame(t *testing.T) {
	src := entity.NewMem("h", entity.TypeHost)
	src.AddDir("/etc/cron.d", entity.WithMode(0o700), entity.WithOwner(0, 0))
	src.AddFile("/etc/cron.d/backup", []byte("17 2 * * * root /usr/local/bin/backup\n"), entity.WithMode(0o600))
	frame := capture(t, src, nil)
	var buf bytes.Buffer
	if err := frame.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := back.Entity().Stat("/etc/cron.d")
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir() || fi.Perm() != 0o700 {
		t.Errorf("directory metadata lost: %+v", fi)
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"empty stream", ""},
		{"not json", "garbage\n"},
		{"missing header", `{"type":"file","path":"/a"}` + "\n"},
		{"duplicate header", `{"type":"frame","name":"a","entity_type":"host","version":1}` + "\n" +
			`{"type":"frame","name":"b","entity_type":"host","version":1}` + "\n"},
		{"bad version", `{"type":"frame","name":"a","entity_type":"host","version":99}` + "\n"},
		{"bad entity type", `{"type":"frame","name":"a","entity_type":"moon","version":1}` + "\n"},
		{"bad timestamp", `{"type":"frame","name":"a","entity_type":"host","version":1,"captured":"yesterday"}` + "\n"},
		{"unknown record", `{"type":"frame","name":"a","entity_type":"host","version":1}` + "\n" + `{"type":"wat"}` + "\n"},
		{"bad base64", `{"type":"frame","name":"a","entity_type":"host","version":1}` + "\n" +
			`{"type":"file","path":"/a","content":"!!!"}` + "\n"},
		{"bad mtime", `{"type":"frame","name":"a","entity_type":"host","version":1}` + "\n" +
			`{"type":"file","path":"/a","content":"","mtime":"then"}` + "\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tt.src))
			if err == nil {
				t.Error("Read succeeded, want error")
			}
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("error %v should wrap ErrBadFrame", err)
			}
		})
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	src := `{"type":"frame","name":"a","entity_type":"host","version":1}` + "\n\n" +
		`{"type":"package","name":"p","pkg_version":"1"}` + "\n"
	f, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.NumPackages() != 1 {
		t.Errorf("packages = %d", f.NumPackages())
	}
}

func TestBinaryContentRoundTrip(t *testing.T) {
	m := entity.NewMem("bin", entity.TypeImage)
	binary := []byte{0, 1, 2, 255, 254, '\n', 0}
	m.AddFile("/opt/blob", binary)
	f := capture(t, m, nil)
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := back.Entity().ReadFile("/opt/blob")
	if err != nil || !bytes.Equal(data, binary) {
		t.Errorf("binary round trip = %v, %v", data, err)
	}
}
