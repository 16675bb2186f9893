// Package vfs is the injectable filesystem seam under the durability
// layer: internal/wal and internal/service route every file operation —
// open, write, fsync, rename, remove, directory listing and sync —
// through the FS interface, so tests can substitute Fault (fault.go) and
// inject partial writes, fsync errors, ENOSPC, and power-cut byte limits
// at exact operation boundaries. Production code uses OS(), a thin
// passthrough to the os package.
//
// The contract the durability layer relies on (and Fault perturbs):
//
//   - Write may persist any prefix of its bytes before failing; nothing
//     written is durable until Sync returns nil.
//   - Rename is atomic with respect to crashes, but only durable after a
//     SyncDir of the containing directory.
//   - Any operation may fail persistently (a dead disk): callers must
//     surface the failure, not retry blindly.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
)

// File is the per-file surface the durability layer needs. It is a strict
// subset of *os.File.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer

	// Name returns the path the file was opened with.
	Name() string

	// Sync flushes the file's data to stable storage.
	Sync() error

	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the filesystem seam. Implementations: OS() (production) and
// Fault (tests).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)

	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error

	// Remove deletes a file.
	Remove(name string) error

	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]fs.DirEntry, error)

	// Stat describes a file.
	Stat(name string) (fs.FileInfo, error)

	// MkdirAll creates a directory path.
	MkdirAll(path string, perm fs.FileMode) error

	// SyncDir fsyncs a directory, making renames and creates in it
	// durable. Best-effort on filesystems that reject directory fsync:
	// implementations return nil for that specific rejection.
	SyncDir(name string) error
}

// Open opens name read-only.
func Open(fsys FS, name string) (File, error) {
	return fsys.OpenFile(name, os.O_RDONLY, 0)
}

// tempSeq makes CreateTemp names unique within a process without
// consulting a clock or global RNG.
var tempSeq atomic.Uint64

// CreateTemp creates a new exclusive file in dir whose name starts with
// prefix, retrying on collisions like os.CreateTemp.
func CreateTemp(fsys FS, dir, prefix string) (File, error) {
	for range 10000 {
		name := filepath.Join(dir, prefix+strconv.FormatUint(tempSeq.Add(1), 10))
		f, err := fsys.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
	}
	return nil, &fs.PathError{Op: "createtemp", Path: dir, Err: fs.ErrExist}
}

// osFS is the production FS: a passthrough to the os package.
type osFS struct{}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return os.ReadDir(name)
}
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return dirSyncErr(d.Sync())
}

// dirSyncErr is SyncDir's result for a directory fsync that returned err:
// nil when the filesystem rejects fsync on a directory (EINVAL, ENOTSUP
// or EOPNOTSUPP), which the contract allows, and err itself otherwise —
// after an EIO, a create or rename in the directory may not survive a
// power cut.
func dirSyncErr(err error) error {
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EOPNOTSUPP) {
		return nil
	}
	return err
}
