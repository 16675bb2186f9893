package vfs

import (
	"errors"
	"io/fs"
	"syscall"
	"testing"
)

// TestDirSyncErr pins which directory-fsync failures SyncDir swallows: only
// a filesystem's rejection of fsync on a directory, never an I/O error.
func TestDirSyncErr(t *testing.T) {
	sync := func(errno syscall.Errno) error { return &fs.PathError{Op: "sync", Path: "data", Err: errno} }
	for _, tc := range []struct {
		name string
		err  error
		want bool // the error propagates
	}{
		{"ok", nil, false},
		{"EINVAL", sync(syscall.EINVAL), false},
		{"ENOTSUP", sync(syscall.ENOTSUP), false},
		{"EOPNOTSUPP", sync(syscall.EOPNOTSUPP), false},
		{"EIO", sync(syscall.EIO), true},
		{"ENOSPC", sync(syscall.ENOSPC), true},
		{"EBADF", sync(syscall.EBADF), true},
	} {
		got := dirSyncErr(tc.err)
		if tc.want && !errors.Is(got, tc.err) {
			t.Errorf("%s: dirSyncErr = %v, want the error itself", tc.name, got)
		}
		if !tc.want && got != nil {
			t.Errorf("%s: dirSyncErr = %v, want nil", tc.name, got)
		}
	}
}

// TestOSSyncDir runs the real directory fsync on a temporary directory,
// which every filesystem the tests run on accepts, and on a missing one.
func TestOSSyncDir(t *testing.T) {
	if err := OS().SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir of a fresh directory: %v", err)
	}
	if err := OS().SyncDir(t.TempDir() + "/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("SyncDir of a missing directory: %v, want ErrNotExist", err)
	}
}
