package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-addr"}); err == nil {
		t.Error("dangling flag accepted")
	}
}

func TestBadListenAddress(t *testing.T) {
	// An unbindable address surfaces as a startup error rather than a hang.
	if err := run([]string{"-addr", "256.256.256.256:99999"}); err == nil {
		t.Error("unbindable address accepted")
	}
}

func TestBadMaxUpload(t *testing.T) {
	if err := run([]string{"-max-upload", "0"}); err == nil {
		t.Error("zero upload limit accepted")
	}
	if err := run([]string{"-max-upload", "-5"}); err == nil {
		t.Error("negative upload limit accepted")
	}
}

func TestUncreatableJournalDir(t *testing.T) {
	// A worker's segment directory is created before the server listens,
	// so a path under a regular file fails startup instead of every shard.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// The address is unbindable too, so a missing directory check fails
	// the test on the listen error instead of hanging in ListenAndServe.
	err := run([]string{"-addr", "256.256.256.256:99999", "-journal-dir", filepath.Join(file, "seg")})
	if err == nil || !strings.Contains(err.Error(), "create journal dir") {
		t.Errorf("run = %v, want a create journal dir error before listening", err)
	}
}
