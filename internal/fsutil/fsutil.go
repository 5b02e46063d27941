// Package fsutil provides crash-safe filesystem helpers: atomic file
// replacement via temp-file + rename + directory fsync. Every artifact the
// CLIs persist (frames, lint baselines, bench snapshots, journal
// compactions) goes through here, so a crash mid-write can never leave a
// torn half-file where a previous good artifact used to be — the reader
// either sees the old content or the new content, nothing in between.
package fsutil

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"

	"configvalidator/internal/faults"
)

// ErrLocked reports a LockFile call on a file another handle holds the
// exclusive lock on.
var ErrLocked = errors.New("fsutil: file locked by another writer")

// armed holds the process-wide write-path fault injector. Atomic writes
// happen from CLI startup code, journal compaction, and watch loops that
// do not share a common options struct, so chaos runs arm one injector
// globally (commands call ArmFaults right after FaultsFromEnv).
var armed atomic.Pointer[faults.Injector]

// ArmFaults installs a write-path fault injector consulted by
// WriteAtomic (op atomic-write, plus fsync for the temp-file sync). A nil
// injector disarms. Only chaos drills and the ENOSPC CI smoke use this;
// the production default is disarmed and costs one atomic load.
func ArmFaults(inj *faults.Injector) { armed.Store(inj) }

// WriteAtomic streams content into path atomically: the write callback
// fills a hidden temp file in the same directory, which is fsynced, renamed
// over path, and sealed with a directory fsync so the rename itself is
// durable. On any error the temp file is removed and path is untouched.
func WriteAtomic(path string, perm fs.FileMode, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fsutil: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmpName)
		}
	}()
	if err = armed.Load().Check(faults.OpAtomicWrite, path); err != nil {
		return fmt.Errorf("fsutil: write %s: %w", path, err)
	}
	if err = write(tmp); err != nil {
		return fmt.Errorf("fsutil: write %s: %w", path, err)
	}
	if err = tmp.Chmod(perm); err != nil {
		return fmt.Errorf("fsutil: chmod %s: %w", path, err)
	}
	if err = armed.Load().Check(faults.OpFsync, path); err != nil {
		return fmt.Errorf("fsutil: sync %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("fsutil: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("fsutil: close %s: %w", path, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("fsutil: rename %s: %w", path, err)
	}
	if err = SyncDir(dir); err != nil {
		return err
	}
	return nil
}

// SyncDir fsyncs a directory, making a just-completed rename or create in
// it durable. Filesystems that do not support directory fsync (some
// network mounts) report EINVAL/ENOTSUP; that is tolerated — the rename
// already happened, only its durability window is weaker.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsutil: open dir %s: %w", dir, err)
	}
	defer func() { _ = d.Close() }()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return fmt.Errorf("fsutil: sync dir %s: %w", dir, err)
	}
	return nil
}

// isSyncUnsupported reports whether the error means the filesystem cannot
// fsync a directory handle at all (as opposed to a real I/O failure).
func isSyncUnsupported(err error) bool {
	return errors.Is(err, fs.ErrInvalid) ||
		errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP)
}
