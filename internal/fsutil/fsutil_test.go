package fsutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeString writes s to path through WriteAtomic.
func writeString(path, s string, perm os.FileMode) error {
	return WriteAtomic(path, perm, func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	})
}

func TestWriteFileAtomicCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := writeString(path, "payload", 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("content = %q", got)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("perm = %v, want 0644", fi.Mode().Perm())
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.json")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := writeString(path, "new content", 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "new content" {
		t.Fatalf("content = %q", got)
	}
}

// TestWriteAtomicFailureLeavesTargetUntouched is the crash-safety contract:
// a writer that fails partway must leave the previous artifact intact and
// no temp litter behind.
func TestWriteAtomicFailureLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	if err := os.WriteFile(path, []byte("previous good artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteAtomic(path, 0o644, func(w io.Writer) error {
		_, _ = w.Write([]byte("half a new artif")) // torn write
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped writer error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "previous good artifact" {
		t.Fatalf("target changed after failed write: %q, %v", got, rerr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func TestWriteAtomicMissingDir(t *testing.T) {
	err := writeString(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), "x", 0o644)
	if err == nil {
		t.Fatal("want error for missing parent directory")
	}
}
