package entity

import (
	"archive/tar"
	"bytes"
	"strings"
	"testing"
	"time"

	"configvalidator/internal/pkgdb"
)

func tarEntityFixture() *Mem {
	m := NewMem("tarred", TypeContainer)
	m.AddFile("/etc/ssh/sshd_config", []byte("PermitRootLogin no\n"),
		WithMode(0o600), WithOwner(0, 0),
		WithModTime(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)))
	m.AddFile("/etc/sysctl.conf", []byte("net.ipv4.ip_forward = 0\n"), WithMode(0o644))
	m.AddDir("/var/empty", WithMode(0o700), WithOwner(0, 0))
	m.SetPackages([]pkgdb.Package{{Name: "nginx", Version: "1.10.3", Status: "install ok installed"}})
	return m
}

func TestTarRoundTrip(t *testing.T) {
	src := tarEntityFixture()
	var buf bytes.Buffer
	if err := src.WriteTar(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := NewFromTar("tarred", TypeContainer, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := back.ReadFile("/etc/ssh/sshd_config")
	if err != nil || string(data) != "PermitRootLogin no\n" {
		t.Errorf("content = %q, %v", data, err)
	}
	fi, err := back.Stat("/etc/ssh/sshd_config")
	if err != nil || fi.Perm() != 0o600 || fi.Ownership() != "0:0" {
		t.Errorf("metadata = %+v, %v", fi, err)
	}
	if !fi.ModTime.Equal(time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("mtime = %v", fi.ModTime)
	}
	di, err := back.Stat("/var/empty")
	if err != nil || !di.IsDir() || di.Perm() != 0o700 {
		t.Errorf("dir metadata = %+v, %v", di, err)
	}
	// Package state restored through the embedded dpkg status file.
	db, err := back.Packages()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := findPackage(db, "nginx"); !ok || p.Version != "1.10.3" {
		t.Errorf("pkg = %+v ok=%v", p, ok)
	}
}

func TestNewFromTarSkipsSpecials(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Typeflag: tar.TypeSymlink, Name: "etc/link", Linkname: "/etc/target"}); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteHeader(&tar.Header{Typeflag: tar.TypeReg, Name: "etc/real", Size: 2, Mode: 0o644}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := NewFromTar("t", TypeHost, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("/etc/real"); err != nil {
		t.Errorf("real file missing: %v", err)
	}
	if _, err := m.ReadFile("/etc/link"); err == nil {
		t.Error("symlink materialized as a file")
	}
}

func TestNewFromTarBadInput(t *testing.T) {
	if _, err := NewFromTar("x", TypeHost, strings.NewReader("definitely not a tar")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestNewFromTarBadDpkgStatus(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	content := []byte("not a dpkg stanza\n")
	if err := tw.WriteHeader(&tar.Header{Typeflag: tar.TypeReg, Name: "var/lib/dpkg/status", Size: int64(len(content)), Mode: 0o644}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFromTar("x", TypeHost, &buf); err == nil {
		t.Error("bad dpkg status accepted")
	}
}
